"""float32 compute over float64 master weights. Every op keeps its float32
operands' dtype and hands each parent a gradient in that parent's own dtype,
a training step's bits do not depend on the BLAS thread count, the prior's
objective holds no float64 copy of its latent rows, and clouds with
degenerate geometry still train to finite losses and weights."""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as R
import shiftseg.tensor as T
from shiftseg import trainer, verify
from shiftseg.dataset import SYNTH_CLASSES, SceneSpec, generate_scene
from shiftseg.pointcloud import PointCloud
from shiftseg.rng import Stream

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# how the second operand of an op enters: a float32 activation, a float64
# master parameter, or a constant of either dtype
KINDS = ("f32-activation", "f64-master", "f64-constant", "f32-constant")


def operand(values: np.ndarray, kind: str) -> T.Tensor:
    dtype = np.float32 if kind.startswith("f32") else np.float64
    trained = kind.endswith(("activation", "master"))
    return T.Tensor(values.astype(dtype), requires_grad=trained)


def mlp_of(x, w):
    # a two-layer stack whose weights enter as `w` does (a width-1 bias row
    # keeps the shapes of any drawn operand)
    params = {"m.w0": w, "m.b0": T.Tensor(w.data[0], requires_grad=w.requires_grad),
              "m.w1": T.Tensor(w.data.T[:, :1].copy(), requires_grad=w.requires_grad),
              "m.b1": np.zeros(1)}
    return T.mlp(x, params, "m")


# each op the tape records, and the reference ops of tests/reference.py, as
# (x, y) -> Tensor, with x (n, k) and y (n, k)
OPS = {
    "add": T.add, "sub": R.sub, "mul": R.mul, "mse": T.mse,
    "add-row": lambda x, y: R.add_row(x, T.Tensor(y.data[0], requires_grad=y.requires_grad)),
    "matmul": lambda x, y: R.matmul(x, T.Tensor(y.data.T.copy(), requires_grad=y.requires_grad)),
    "mlp": lambda x, y: mlp_of(x, T.Tensor(y.data.T.copy(), requires_grad=y.requires_grad)),
    "concat-rows": lambda x, y: T.concat([x, y], axis=0),
    "concat-cols": lambda x, y: T.concat([x, y], axis=1),
    "gather-rows": lambda x, y: T.gather_rows(T.add(x, y), [0, -1, 0]),
    "scale": lambda x, y: T.scale(T.add(x, y), 0.37),
    "leaky-relu": lambda x, y: R.leaky_relu(R.sub(x, y)),
    "softmax": lambda x, y: T.softmax(T.add(x, y)),
    "cross-entropy": lambda x, y: T.cross_entropy(
        T.add(x, y), np.arange(0, x.shape[0], 2) % x.shape[1], np.arange(x.shape[0]) % 2 == 0),
    "exp": lambda x, y: R.exp(R.mul(x, y)),
    "log": lambda x, y: R.log(R.exp(T.add(x, y))),
    "square": lambda x, y: R.square(R.sub(x, y)),
    "sum": lambda x, y: R.tsum(T.add(x, y), axis=1),
    "mean": lambda x, y: R.tmean(T.add(x, y), axis=0),
}


def nodes_of(out: T.Tensor) -> list[T.Tensor]:
    seen, stack, nodes = set(), [out], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(OPS)), kind=st.sampled_from(KINDS),
       rows=st.integers(1, 6), cols=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_float32_operands_keep_float32_and_each_parent_gets_its_own_dtype(op, kind, rows, cols,
                                                                          seed):
    stream = Stream(seed, "dtype-property")
    x = operand(stream.normal(rows * cols).reshape(rows, cols), "f32-activation")
    y = operand(stream.normal(rows * cols).reshape(rows, cols), kind)
    out = OPS[op](x, y)
    for node in nodes_of(out):
        if node._backward is None:
            continue
        # every recorded op with a float32 operand computes in float32
        assert node.data.dtype == np.float32, (op, node._op)
        grads = node._backward(np.ones_like(node.data))
        for parent, g in zip(node._parents, grads):
            if g is not None:
                assert g.dtype == parent.data.dtype and g.shape == parent.data.shape, \
                    (op, node._op, parent._op)
    # a fresh graph, since a backward closure runs once
    loss = R.tmean(OPS[op](x, y))
    assert loss.data.dtype == np.float32
    T.backward(loss)
    for leaf in (x, y):
        if leaf.grad is not None:
            assert leaf.grad.dtype == leaf.data.dtype, (op, kind)


def test_a_training_step_records_no_float64_op_over_float32_activations(monkeypatch):
    """Every node a tiny default-widths step records: a float32 operand gives
    a float32 value, and each backward hands back its parents' dtypes."""
    recorded = []
    record = T._record

    def auditing(data, parents, backward_fn, op):
        def checked(g):
            grads = backward_fn(g)
            for parent, pg in zip(parents, grads):
                assert pg is None or pg.dtype == parent.data.dtype, (op, parent._op)
            return grads
        out = record(data, parents, checked, op)
        recorded.append((op, out.data.dtype, [p.data.dtype for p in parents]))
        return out

    monkeypatch.setattr(T, "_record", auditing)
    cfg = trainer.TrainConfig(scenes=5, points_per_scene=128, t=0.45)
    split, clouds = trainer.default_data(cfg)
    state = trainer.init_state(cfg)
    trainer.train_step(state, [clouds[c] for c in split.train], cfg, 0, 0)
    ops = [op for op, _, _ in recorded]
    assert set(ops) >= {"mlp", "softmax", "mse", "concat", "gather-rows", "cross-entropy"}
    # one node per cross-entropy: clean, augmented and SCR rows of 4 clouds
    assert ops.count("cross-entropy") == 12
    assert not set(ops) & {"sub", "mul", "exp", "log", "sum", "mean", "matmul", "leaky-relu",
                           "square"}
    for op, dtype, parents in recorded:
        if np.dtype(np.float32) in parents:
            assert dtype == np.float32, op
    # no op computes in float64: the codebook term gathers the float64
    # codes in the latents' float32
    assert {op for op, dtype, _ in recorded if dtype != np.float32} == set()
    for p in (*state.model.params.values(), *state.ae_opt.params.values()):
        assert p.data.dtype == np.float64  # the masters


def float64_row_arrays(obj, rows: int, seen=None) -> list[tuple]:
    """(shape, where) of each float64 array of `rows` rows that `obj` holds:
    itself, a Tensor's data, the items of a list, tuple or dataclass, or the
    closure cells of a function."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        wide = obj.dtype == np.float64 and obj.ndim == 2 and obj.shape[0] == rows
        return [(obj.shape, "array")] if wide else []
    if isinstance(obj, T.Tensor):
        return [(shape, obj._op) for shape, _ in float64_row_arrays(obj.data, rows, seen)]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif callable(obj) and getattr(obj, "__closure__", None):
        items = [c.cell_contents for c in obj.__closure__]
    else:
        return []
    return [hit for item in items for hit in float64_row_arrays(item, rows, seen)]


def test_the_prior_build_of_a_float32_step_holds_no_float64_latent_rows(monkeypatch):
    """When `vq_objective` returns in a float32 step, neither its graph (the
    nodes' values and what their backward closures keep) nor the pinned
    selection holds a 2-D float64 array with a row per selection row: no
    (rows × D) latents, codes or residual."""
    cfg = trainer.TrainConfig(scenes=5, points_per_scene=128, t=0.45)
    split, clouds = trainer.default_data(cfg)
    state = trainer.init_state(cfg)
    found = {}
    build = trainer.vq_objective

    def audited(state, sel, z_e=None):
        vq = build(state, sel, z_e)
        rows = sel.rows.shape[0]
        masters = {id(p) for p in state.ae_opt.params.values()}
        nodes = [n for n in nodes_of(vq.total) if id(n) not in masters]
        found["rows"] = rows
        found["graph"] = [hit for n in nodes for hit in float64_row_arrays(
            [n, n._backward], rows)]
        found["selection"] = float64_row_arrays(sel, rows)
        return vq

    monkeypatch.setattr(trainer, "vq_objective", audited)
    trainer.train_step(state, [clouds[c] for c in split.train], cfg, 0, 0)
    assert found["rows"] > state.cb.codes.shape[0]  # no code table passes as rows
    assert found["graph"] == [] and found["selection"] == []


def test_blocked_weight_gradient_sums_fixed_row_blocks_in_the_weights_dtype():
    stream = Stream(8, "weight-grad")
    for n in (0, 1, 255, 256, 257, 600):
        x = stream.normal(n * 5).reshape(n, 5).astype(np.float32)
        g = stream.normal(n * 3).reshape(n, 3).astype(np.float32)
        got = T._weight_grad(x, g, np.float64)
        want = np.zeros((5, 3))
        for start in range(0, n, T.GRAD_ROW_BLOCK):
            want += x[start:start + T.GRAD_ROW_BLOCK].T @ g[start:start + T.GRAD_ROW_BLOCK]
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), n
        np.testing.assert_allclose(got, x.astype(np.float64).T @ g, rtol=1e-5, atol=1e-5)


# the smallest config of the ladder 64, 128, 256, ... points per scene (5
# scenes, default widths, t=0.45) whose digests differ between 1 and 2
# OpenBLAS threads in the float64 code that preceded blocked weight gradients:
# 3 steps give steplog 7cfb6d36… against e03b007d… and weights c87f9303…
# against e3aa7c3d… (64 points gave equal digests)
THREAD_PROBE = """
import hashlib, json
from shiftseg import trainer

cfg = trainer.TrainConfig(scenes=5, points_per_scene=128, t=0.45)
split, clouds = trainer.default_data(cfg)
batch = [clouds[c] for c in split.train]
state = trainer.init_state(cfg)
steplog = hashlib.sha256()
for epoch in range(3):
    steplog.update(json.dumps(trainer.train_step(state, batch, cfg, epoch, 0)).encode())
weights = hashlib.sha256()
for name, a in sorted(trainer.state_arrays(state).items()):
    weights.update(name.encode() + a.tobytes())
print(steplog.hexdigest(), weights.hexdigest())
"""


def test_training_bits_do_not_depend_on_the_blas_thread_count():
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.split())
    assert digests[0] == digests[1]


def degenerate_batches():
    """An ordinary tiny cloud beside each probe of the degenerate-input
    baseline: a labelled cluster of knn_k + 3 coincident points (density
    1 / (DUPLICATE_SPACING * voxel_size), 2,857), and a cloud scaled by
    1e4."""
    cfg = verify.tiny_config(mode="full", t=0.3)

    def scene(seed):
        return generate_scene(SceneSpec(
            seed=seed, num_points=cfg.points_per_scene,
            enabled_classes=SYNTH_CLASSES[:cfg.class_count], num_cars=1, num_buildings=1,
            num_trees=0, num_poles=0, num_signs=0, ground_extent=4.0))

    base, other = scene(5), scene(6)
    pos, labels = other.positions.copy(), other.labels.copy()
    pos[:cfg.knn_k + 3] = pos[0]
    labels[:cfg.knn_k + 3] = 1
    return cfg, {"cluster": [base, PointCloud(pos, labels, "probe-cluster")],
                 "scaled": [base, PointCloud(other.positions * 1e4, other.labels,
                                             "probe-scaled")]}


def test_coincident_points_keep_the_first_logits_bounded():
    # with a density cap of 1e12 the cluster's step-0 logits reached 7.4e10
    cfg, batches = degenerate_batches()
    state = trainer.init_state(cfg)
    pb = trainer.prepare_batch(state, batches["cluster"], 0, 0)
    logits = [state.model.forward(pc.feats).data for pc in pb.originals + pb.augmented]
    assert max(float(np.abs(lg).max()) for lg in logits) < 1e3


@pytest.mark.parametrize("probe", ["cluster", "scaled"])
def test_degenerate_clouds_train_finite_in_float32(probe):
    # float64 gave loss_total 1.5e8, 3.1 and 2.7 on the cluster's three
    # steps, and 5.5e6-1.2e7 on the scaled cloud's
    cfg, batches = degenerate_batches()
    state = trainer.init_state(cfg)
    for step in range(3):
        log = trainer.train_step(state, batches[probe], cfg, 0, step)
        losses = {k: v for k, v in log.items() if k.startswith(("loss_", "vq_"))}
        assert losses and all(np.isfinite(v) for v in losses.values()), (step, losses)
    assert state.model.params["seg.w0"].data.dtype == np.float64
    for name, a in trainer.state_arrays(state).items():
        assert np.isfinite(a).all(), name
