import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as R
import shiftseg.tensor as T
from shiftseg import oracle
from shiftseg.rng import Stream


def fd_check(build_loss, params, rel_tol=1e-4, h=1e-5):
    """Analytic vs central-difference gradients for a loss closure."""
    loss = build_loss()
    T.backward(loss)
    analytic = {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for n, p in params.items()}
    for p in params.values():
        p.grad = None
    numeric, _ = oracle.fd_gradient(lambda: build_loss().item(),
                                    {n: p.data for n, p in params.items()}, h=h)
    err, name = oracle.gradient_errors(analytic, numeric, rel_tol)
    assert err < rel_tol, f"gradient mismatch at {name}: rel err {err}"


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_rows_sum_to_one():
    x = T.Tensor(Stream(1).normal(40).reshape(8, 5) * 10)
    s = T.softmax(x).data
    assert np.all(s >= 0)
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12


def test_matmul_identity_column_sums():
    ident = np.concatenate([np.eye(2), np.zeros((2, 1))], axis=1)
    ones = np.ones((3, 1))
    out = R.matmul(T.Tensor(ident), T.Tensor(ones))
    assert np.array_equal(out.data, np.array([[1.0], [1.0]]))


def test_matmul_shape_error_reports_dims():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        R.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_forward_matches_extended_precision_interpreter():
    # the production nodes: a 2-layer mlp, then softmax, against the same
    # math in 50-digit arithmetic
    stream = Stream(77)
    arrays = {"m.w0": stream.normal(12).reshape(4, 3), "m.b0": stream.normal(3),
              "m.w1": stream.normal(6).reshape(3, 2), "m.b1": stream.normal(2)}
    x = stream.normal(12).reshape(3, 4)
    program = [
        ("h", "matmul", ("x", "w0"), {}),
        ("hb", "add", ("h", "b0"), {}),
        ("a", "leaky-relu", ("hb",), {"slope": T.LEAKY_SLOPE}),
        ("o", "matmul", ("a", "w1"), {}),
        ("logits", "add", ("o", "b1"), {}),
        ("s", "softmax", ("logits",), {}),
        ("out", "mean", ("s",), {}),
    ]
    inputs = {"x": x, "w0": arrays["m.w0"], "b0": arrays["m.b0"].reshape(1, -1),
              "w1": arrays["m.w1"], "b1": arrays["m.b1"].reshape(1, -1)}
    ref = R.interpret_program(program, inputs)
    logits = T.mlp(x, arrays, "m")
    probs = T.softmax(logits)
    assert np.max(np.abs(logits.data - ref["logits"])) < 1e-12
    assert np.max(np.abs(probs.data - ref["s"])) < 1e-12
    assert abs(probs.data.mean() - float(ref["out"][0][0])) < 1e-12


def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(R.tsum(x))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_mean_square_analytic():
    x = T.Tensor([2.0, -2.0], requires_grad=True)
    T.backward(R.tmean(R.square(x)))
    assert np.allclose(x.grad, [2.0, -2.0], atol=0)


def test_backward_rejects_nonscalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(R.square(x))


def test_mlp_gradients_match_finite_differences():
    stream = Stream(5)
    params = {
        "w0": T.Tensor(stream.normal(12).reshape(4, 3), requires_grad=True),
        "b0": T.Tensor(stream.normal(3), requires_grad=True),
        "w1": T.Tensor(stream.normal(6).reshape(3, 2), requires_grad=True),
        "b1": T.Tensor(stream.normal(2), requires_grad=True),
        "w2": T.Tensor(stream.normal(4).reshape(2, 2), requires_grad=True),
    }
    x = stream.normal(20).reshape(5, 4)
    y = np.array([0, 1, 0, 1, 1])

    def build_loss():
        h = R.leaky_relu(R.add_row(R.matmul(T.Tensor(x), params["w0"]), params["b0"]))
        h = R.leaky_relu(R.add_row(R.matmul(h, params["w1"]), params["b1"]))
        logits = R.matmul(h, params["w2"])
        onehot = np.zeros((5, 2))
        onehot[np.arange(5), y] = 1.0
        p = T.softmax(logits)
        return T.scale(R.tmean(R.mul(R.log(p), T.Tensor(onehot))), -2.0)

    fd_check(build_loss, params)


def test_mlp_is_the_layer_chain_and_takes_arrays_as_constants():
    stream = Stream(6)
    arrays = {}
    for i, (a, b) in enumerate([(4, 5), (5, 3), (3, 2)]):
        arrays[f"m.w{i}"] = stream.normal(a * b).reshape(a, b)
        arrays[f"m.b{i}"] = stream.normal(b)
    x = stream.normal(28).reshape(7, 4)
    want = x
    for i in range(3):
        want = want @ arrays[f"m.w{i}"] + arrays[f"m.b{i}"]
        if i < 2:
            want = np.where(want > 0, want, T.LEAKY_SLOPE * want)
    params = {n: T.Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()}
    assert T.mlp(x, params, "m").data.tobytes() == want.tobytes()
    frozen = T.mlp(x, arrays, "m")
    assert frozen.data.tobytes() == want.tobytes() and not frozen.requires_grad
    fd_check(lambda: R.tmean(R.square(T.mlp(x, params, "m"))), params)


def test_mlp_refuses_a_prefix_without_weights():
    params = {"m.w0": np.ones((2, 2)), "m.b0": np.zeros(2)}
    with pytest.raises(T.ShapeError, match=r"no weights n\.w0"):
        T.mlp(np.ones((3, 2)), params, "n")


def layer_chain(x, params, prefix):
    """The per-layer chain that `mlp` fuses into one node."""
    layers = sum(name.startswith(f"{prefix}.w") for name in params)
    h = x
    for i in range(layers):
        h = R.add_row(R.matmul(h, params[f"{prefix}.w{i}"]), params[f"{prefix}.b{i}"])
        if i < layers - 1:
            h = R.leaky_relu(h)
    return h


# IEEE specials: signed zeros, NaN, infinities, subnormals of both signs
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                     2.5, -2.5])


def random_mlp_inputs():
    stream = Stream(11)
    widths = [5, 6, 4, 3]
    arrays = {}
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        arrays[f"m.w{i}"] = stream.normal(a * b).reshape(a, b)
        arrays[f"m.b{i}"] = stream.normal(b)
    return (stream.normal(35).reshape(7, 5), stream.normal(35).reshape(7, 5), arrays,
            stream.normal(21).reshape(7, 3), stream.normal(21).reshape(7, 3))


def special_mlp_inputs():
    # width 1 with w = 1 and b = -0.0: the first layer's pre-activations are
    # the specials themselves (the matmul turns -0.0 into +0.0), the next
    # layers' their leaky images, and the upstream gradients, which reach the
    # node unchanged through the product with c, are the specials too
    col = SPECIALS[:, None]
    arrays = {}
    for i in range(3):
        arrays[f"m.w{i}"] = np.ones((1, 1))
        arrays[f"m.b{i}"] = np.array([-0.0])
    return col, col[::-1].copy(), arrays, col[::-1].copy(), col


def float32_mlp_inputs():
    # float32 activations over float64 master weights, on 600 rows: two
    # full weight-gradient row blocks and a partial one
    x1, x2, arrays, c1, c2 = random_mlp_inputs()
    stream = Stream(13)
    rows = [stream.normal(600 * n).reshape(600, n).astype(np.float32) for n in (5, 5, 3, 3)]
    return rows[0], rows[1], arrays, rows[2], rows[3]


def test_mlp_bitwise_equals_the_layer_chain():
    def run(net, x1, x2, arrays, c1, c2):
        xs = [T.Tensor(a.copy(), requires_grad=True) for a in (x1, x2)]
        params = {n: T.Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()}
        # the weights serve two passes, so their gradients accumulate in the
        # tape's order
        out1 = net(xs[0], params, "m")
        out2 = net(xs[1], params, "m")
        T.backward(T.add(R.tsum(R.mul(out1, T.Tensor(c1))), R.tsum(R.mul(out2, T.Tensor(c2)))))
        return [out1.data, out2.data] + [x.grad for x in xs] + [params[n].grad
                                                                 for n in sorted(params)]

    for inputs in (random_mlp_inputs(), special_mlp_inputs(), float32_mlp_inputs()):
        with np.errstate(invalid="ignore"):
            got, want = run(T.mlp, *inputs), run(layer_chain, *inputs)
        assert len(got) == len(want) == 10
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_leaky_factor_product_equals_the_select_bytewise():
    # every special against every special: as pre-activation a (forward, where
    # mlp takes the max) and as upstream gradient g under the sign mask of a
    # (backward), in both dtypes the tape computes in
    for dtype in (np.float64, np.float32):
        specials = SPECIALS.astype(dtype)
        a = np.repeat(specials, specials.size)
        g = np.tile(specials, specials.size)
        positive = a > 0
        with np.errstate(invalid="ignore"):
            assert (a * T._leaky_factor(positive, dtype)).tobytes() == \
                np.maximum(a, a * T.LEAKY_SLOPE).tobytes() == \
                np.where(positive, a, T.LEAKY_SLOPE * a).tobytes()
            assert (g * T._leaky_factor(positive, dtype)).tobytes() == \
                np.where(positive, g, T.LEAKY_SLOPE * g).tobytes()
    assert (1.0 - T.LEAKY_SLOPE) + T.LEAKY_SLOPE == 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64)), min_size=1, max_size=64))
def test_leaky_forward_max_equals_the_factor_product_bytewise(pairs):
    # a pre-activation is a sum (h @ w + b), never a signaling NaN; every
    # other float, signed zeros, subnormals and infinities among them, can be
    a, b = np.array(pairs).T
    with np.errstate(invalid="ignore", over="ignore"):
        pre = a + b
        want = pre * T._leaky_factor(pre > 0, np.float64)
        got = pre.copy()
        np.maximum(got, got * T.LEAKY_SLOPE, out=got)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("frozen", [("x",), ("w",), ("b",), ("x", "w"), ("x", "b"), ("w", "b")])
def test_frozen_inputs_get_no_gradient_and_none_is_computed(frozen):
    # x is the mlp's input, w and b its first layer; the second layer trains
    stream = Stream(14)
    data = {"x": stream.normal(24).reshape(6, 4), "w": stream.normal(12).reshape(4, 3),
            "b": stream.normal(3), "w1": stream.normal(6).reshape(3, 2), "b1": stream.normal(2)}
    c = stream.normal(12).reshape(6, 2)

    def run(frozen_names):
        leaves = {n: T.Tensor(a.copy(), requires_grad=n not in frozen_names)
                  for n, a in data.items()}
        params = {"m.w0": leaves["w"], "m.b0": leaves["b"],
                  "m.w1": leaves["w1"], "m.b1": leaves["b1"]}
        # the backward closure skips exactly the frozen inputs; it runs once,
        # so it is probed on a graph of its own
        probe = T.mlp(leaves["x"], params, "m")
        skipped = [pg is None for pg in probe._backward(np.ones((6, 2)))]
        assert skipped == [n in frozen_names for n in ("x", "w", "b", "w1", "b1")]
        out = T.mlp(leaves["x"], params, "m")
        T.backward(R.tsum(R.mul(out, T.Tensor(c))))
        return {n: t.grad for n, t in leaves.items()}

    pruned, reference = run(frozen), run(())
    for name, grad in pruned.items():
        if name in frozen:
            assert grad is None
        else:
            assert grad.tobytes() == reference[name].tobytes()


def closure_cells(node: T.Tensor) -> dict:
    return dict(zip(node._backward.__code__.co_freevars,
                    (c.cell_contents for c in node._backward.__closure__)))


@pytest.mark.parametrize("trained", ["all", "output"])
def test_an_mlp_closure_frees_its_layer_inputs_and_masks_as_it_runs(trained):
    # "output": only the last layer trains, so the closure stops above the
    # hidden layers and their masks are never read
    stream = Stream(18)
    widths = [4, 6, 5, 3]
    params = {}
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        train = trained == "all" or i == len(widths) - 2
        params[f"m.w{i}"] = T.Tensor(stream.normal(a * b).reshape(a, b), requires_grad=train)
        params[f"m.b{i}"] = T.Tensor(stream.normal(b), requires_grad=train)
    x = T.Tensor(stream.normal(28).reshape(7, 4), requires_grad=trained == "all")
    out = T.mlp(x, params, "m")
    cells = closure_cells(out)
    # kept[0] is x's own array, which the leaf holds. "all": the hidden
    # layers' outputs, kept as the next layers' inputs, stand for both
    # masks; "output": the last hidden layer's output stands for its mask,
    # and the first hidden layer's mask is kept below the frozen w1
    saved = [weakref.ref(a) for a in cells["kept"][1:] + cells["masks"] if a is not None]
    del cells
    assert len(saved) == 2
    assert all(r() is not None for r in saved)
    out._backward(np.ones((7, 3)))
    assert out._backward is not None  # the node still holds its closure
    assert all(r() is None for r in saved)


@pytest.mark.parametrize("op", [T.add, R.sub, R.mul])
def test_elementwise_ops_skip_the_gradient_of_a_constant_operand(op):
    stream = Stream(19)
    a = T.Tensor(stream.normal(12).reshape(3, 4))
    b = T.Tensor(stream.normal(12).reshape(3, 4), requires_grad=True)
    g = np.ones((3, 4))
    ga, gb = op(a, b)._backward(g)
    want = {T.add: g, R.sub: -g, R.mul: g * a.data}[op]
    assert ga is None and gb.tobytes() == want.tobytes()
    ga, gb = op(b, a)._backward(g)
    assert gb is None and ga is not None
    out = op(a, b)
    T.backward(R.tsum(out))
    assert a.grad is None and b.grad is not None


def test_matmul_skips_the_product_of_a_constant_operand():
    stream = Stream(15)
    a = T.Tensor(stream.normal(6).reshape(3, 2))
    b = T.Tensor(stream.normal(8).reshape(2, 4), requires_grad=True)
    out = R.matmul(a, b)
    ga, gb = out._backward(np.ones((3, 4)))
    assert ga is None and gb.tobytes() == (a.data.T @ np.ones((3, 4))).tobytes()
    T.backward(R.tsum(out))
    assert a.grad is None and b.grad is not None


@pytest.mark.parametrize("frozen", [(), (2,), (1, 3), (1, 2, 3)])
def test_an_mlp_stores_a_hidden_mask_only_below_frozen_weights(frozen):
    # hidden layer i's mask is the sign of its output, which the node keeps
    # as layer i+1's input whenever layer i+1's weights train
    stream = Stream(21)
    widths = [3, 5, 4, 6, 2]
    params = {}
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        params[f"m.w{i}"] = T.Tensor(stream.normal(a * b).reshape(a, b),
                                     requires_grad=i not in frozen)
        params[f"m.b{i}"] = T.Tensor(stream.normal(b), requires_grad=True)
    x = T.Tensor(stream.normal(24).reshape(8, 3), requires_grad=True)
    out = T.mlp(x, params, "m")
    masks = closure_cells(out)["masks"]
    assert [m is not None for m in masks] == [i + 1 in frozen for i in range(3)]
    T.backward(R.tsum(out))
    assert x.grad is not None


@st.composite
def leaky_inputs(draw):
    """A float dtype and a column of its values, any of them: signed zeros,
    subnormals, infinities and NaNs included."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = np.finfo(dtype).bits
    values = draw(st.lists(st.floats(width=width), min_size=1, max_size=64)
                  | st.just(SPECIALS.tolist()))
    return np.array(values, dtype=dtype)[:, None]


@settings(max_examples=200, deadline=None)
@given(leaky_inputs())
def test_the_sign_of_a_kept_leaky_output_is_the_stored_mask(col):
    # width 1, w = 1, b = -0.0: the hidden pre-activations are the drawn
    # values; with w1 frozen the node stores the mask, with w1 trained it
    # keeps the leaky output, whose sign the backward reads instead
    def node(w1_trains):
        params = {"m.w0": T.Tensor(np.ones((1, 1)), requires_grad=True),
                  "m.b0": T.Tensor(np.array([-0.0]), requires_grad=True),
                  "m.w1": T.Tensor(np.ones((1, 1)), requires_grad=w1_trains),
                  "m.b1": T.Tensor(np.array([-0.0]), requires_grad=True)}
        x = T.Tensor(col.copy(), requires_grad=True)
        with np.errstate(invalid="ignore", over="ignore"):
            return x, params, T.mlp(x, params, "m")

    x_stored, p_stored, stored = node(False)
    x_kept, p_kept, kept = node(True)
    (mask,) = closure_cells(stored)["masks"]
    assert closure_cells(kept)["masks"] == [None]
    output = closure_cells(kept)["kept"][1]
    assert output.dtype == col.dtype
    assert (output > 0).tobytes() == mask.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):
        assert mask.tobytes() == ((col @ np.ones((1, 1), col.dtype)) > 0).tobytes()
        # and the slope the backward applies is the same either way
        T.backward(R.tsum(stored))
        T.backward(R.tsum(kept))
    assert x_stored.grad.tobytes() == x_kept.grad.tobytes()
    assert p_stored["m.w0"].grad.tobytes() == p_kept["m.w0"].grad.tobytes()


def test_mlp_with_stopped_weights_records_no_node():
    stream = Stream(13)
    params = {n: T.Tensor(a, requires_grad=True) for n, a in (
        ("m.w0", stream.normal(6).reshape(3, 2)), ("m.b0", stream.normal(2)),
        ("m.w1", stream.normal(4).reshape(2, 2)), ("m.b1", stream.normal(2)))}
    x = stream.normal(12).reshape(4, 3)
    out = T.mlp(T.Tensor(x), {n: p.data for n, p in params.items()}, "m")
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    assert out.data.tobytes() == layer_chain(T.Tensor(x), params, "m").data.tobytes()


def test_an_mlp_over_constant_weights_keeps_no_layer_input():
    # the frozen snapshot encoder's case: the rows want a gradient, the
    # weights are arrays, so the node keeps the output and the hidden layers'
    # one-byte sign masks, not their float64 inputs
    stream = Stream(17)
    rows, widths = 5000, [11, 128, 128, 64]
    arrays = {}
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        arrays[f"m.w{i}"] = stream.normal(a * b).reshape(a, b)
        arrays[f"m.b{i}"] = stream.normal(b)
    x = T.Tensor(stream.normal(rows * 11).reshape(rows, 11), requires_grad=True)

    def held(params):
        """Bytes the forward leaves allocated while its output lives."""
        tracemalloc.start()
        try:
            out = T.mlp(x, params, "m")
            return tracemalloc.get_traced_memory()[0], out
        finally:
            tracemalloc.stop()

    output, masks, inputs = rows * 64 * 8, rows * (128 + 128), rows * (128 + 128) * 8
    frozen, out = held(arrays)
    assert out.requires_grad
    assert frozen < output + 2 * masks
    # the measure sees kept inputs: trainable weights keep the hidden ones
    trained, _ = held({n: T.Tensor(a, requires_grad=True) for n, a in arrays.items()})
    assert trained > output + inputs


def test_mse_bitwise_equals_the_chain():
    stream = Stream(16)
    scales = 10.0 ** np.floor(stream.uniform(40) * 40 - 20)  # 40 decades
    full = (stream.normal(40) * scales).reshape(8, 5)
    other = stream.normal(40).reshape(8, 5)
    cases = [(full, other), (SPECIALS, SPECIALS[::-1].copy())]

    def run(loss_fn, a, b):
        ta, tb = T.Tensor(a.copy(), requires_grad=True), T.Tensor(b.copy(), requires_grad=True)
        # an upstream scale, so the node's incoming gradient is not 1
        loss = T.scale(loss_fn(ta, tb), 0.37)
        T.backward(loss)
        return [loss.data, ta.grad, tb.grad]

    def chain(a, b):
        return R.tmean(R.square(R.sub(a, b)))

    for a, b in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = run(T.mse, a, b), run(chain, a, b)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    # a constant operand gets no gradient, and none is computed
    ga, gb = T.mse(T.Tensor(full, requires_grad=True), other)._backward(np.ones(()))
    assert gb is None and ga.shape == full.shape
    assert not T.mse(full, other).requires_grad


@pytest.mark.parametrize("op", [T.add, T.mse])
def test_elementwise_ops_refuse_unequal_shapes(op):
    full, row = T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros(4))
    for a, b in ((full, row), (row, full), (full, T.Tensor(np.zeros((4, 3))))):
        with pytest.raises(T.ShapeError, match="are not equal"):
            op(a, b)


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), rows=st.integers(1, 12),
       classes=st.integers(1, 8), decade=st.integers(-3, 3), underflow=st.booleans(),
       upstream=st.sampled_from([1.0, 0.25, -0.5, -0.37]), seed=st.integers(0, 2**16))
def test_cross_entropy_bitwise_equals_the_chain(dtype, rows, classes, decade, underflow,
                                                upstream, seed):
    stream = Stream(seed, "cross-entropy")
    x = stream.normal(rows * classes).reshape(rows, classes) * 10.0 ** decade
    if underflow:
        # entries 1e4 below their row's max: exp gives 0, and the gradient's
        # two terms meet a signed zero
        x[stream.uniform(x.size).reshape(x.shape) < 0.4] -= 1e4
    x = x.astype(dtype)
    mask = stream.uniform(rows) < 0.7
    mask[int(stream.uniform() * rows)] = True
    labels = np.floor(stream.uniform(int(mask.sum())) * classes).astype(np.int64)

    def run(loss_fn):
        logits = T.Tensor(x.copy(), requires_grad=True)
        # an upstream scale, so the node's incoming gradient is not 1
        loss = T.scale(loss_fn(logits, labels, mask), upstream)
        T.backward(loss)
        return loss.data, logits.grad

    got, want = run(T.cross_entropy), run(R.cross_entropy_chain)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()


def test_cross_entropy_checks_its_rows_and_labels():
    logits = T.Tensor(np.zeros((3, 2)), requires_grad=True)
    with pytest.raises(T.ShapeError, match="row mask"):
        T.cross_entropy(logits, [0], np.array([True, False]))
    with pytest.raises(T.ShapeError, match="labels for 2 selected rows"):
        T.cross_entropy(logits, [0], np.array([True, False, True]))
    with pytest.raises(T.ShapeError, match="labels for 0 selected rows"):
        T.cross_entropy(logits, [], np.zeros(3, dtype=bool))
    assert not T.cross_entropy(T.Tensor(np.zeros((3, 2))), [1], [True, False, False]).requires_grad


def test_stop_gradient_frozen_branch_finite_differences():
    stream = Stream(9)
    params = {"w": T.Tensor(stream.normal(9).reshape(3, 3), requires_grad=True)}
    x = stream.normal(6).reshape(2, 3)
    frozen = (x @ params["w"].data).copy()  # stopped branch held constant

    def build_loss():
        h = R.matmul(T.Tensor(x), params["w"])
        return R.tmean(R.mul(h, T.Tensor(frozen)))

    # analytic gradient through the live branch only, against FD of the same
    # pinned-branch loss
    fd_check(build_loss, params)


def test_gather_backward():
    params = {"x": T.Tensor(Stream(3).normal(12).reshape(4, 3), requires_grad=True)}

    def build_loss():
        g = T.gather_rows(params["x"], np.array([0, 2, 2]))
        return R.tsum(R.square(T.gather_rows(g, np.array([0, 2]))))

    fd_check(build_loss, params)


def gather_cases():
    """200 (rows, indices, upstream gradient) cases: duplicate indices,
    permutations, negative indices, gradients over the whole float range
    with -0.0 and ±inf, and empty index lists."""
    s = Stream(21, "gather-cases")
    cases = []
    for c in range(200):
        rows = 1 + int(s.uniform() * 40)
        width = 1 + int(s.uniform() * 6)
        n = 0 if c % 25 == 0 else int(s.uniform() * 120)
        if c % 5 == 1:
            idx = s.permutation(rows)
        else:
            idx = np.floor(s.uniform(n) * 2 * rows).astype(np.int64) - rows
        g = s.normal(idx.size * width).reshape(idx.size, width)
        g *= 10.0 ** np.floor(s.uniform(g.size) * 600 - 300).reshape(g.shape)
        if c % 3 == 0:
            g[s.uniform(g.size).reshape(g.shape) < 0.3] = -0.0
        if c % 7 == 0:
            g[s.uniform(g.size).reshape(g.shape) < 0.05] = np.inf
            g[s.uniform(g.size).reshape(g.shape) < 0.05] = -np.inf
        cases.append((rows, width, idx, g))
    return cases


def test_gather_rows_backward_equals_add_at_bytewise():
    # the column scatter (`T._scatter_rows`) into a float64 parent, and into
    # a float32 one, which gets the float64 sum rounded once
    for rows, width, idx, g in gather_cases():
        ref = np.zeros((rows, width))  # the scatter it replaced
        with np.errstate(invalid="ignore"):
            np.add.at(ref, idx, g)
        for dtype in (np.float64, np.float32):
            x = T.Tensor(np.zeros((rows, width), dtype=dtype), requires_grad=True)
            with np.errstate(over="ignore", invalid="ignore"):
                (got,) = T.gather_rows(x, idx)._backward(g)
                want = ref.astype(dtype)
            assert got.tobytes() == want.tobytes(), (rows, width, idx.size, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gathered_mse_equals_the_gather_then_mse_chain_bytewise(dtype):
    # the prior's codebook term: latents in `dtype` against float64 code
    # rows, each code picked by many rows (and once by a negative index)
    stream = Stream(34, "gathered-mse")
    for rows, codes, width in ((1, 1, 1), (7, 3, 4), (300, 12, 64)):
        table = stream.normal(codes * width).reshape(codes, width)
        idx = stream.integers(rows, codes)
        idx[0] -= codes
        z = stream.normal(rows * width).reshape(rows, width).astype(dtype)
        got_codes, want_codes = (T.Tensor(table.copy(), requires_grad=True) for _ in range(2))
        got = T.gathered_mse(z, got_codes, idx)
        want = T.mse(z, T.gather_rows(want_codes, idx))  # as R.vq_losses_float64_pins
        assert got.data.dtype == want.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes(), rows
        assert got._parents == (got_codes,)
        T.backward(T.scale(got, 0.37))
        T.backward(T.scale(want, 0.37))
        assert got_codes.grad.dtype == np.float64
        assert got_codes.grad.tobytes() == want_codes.grad.tobytes(), rows
        if rows > codes:
            assert np.abs(got_codes.grad).sum() > 0


def test_a_node_does_not_keep_a_constant_operand_alive():
    x = T.Tensor(Stream(35).normal(6).reshape(2, 3), requires_grad=True)
    for op in (T.add, T.mse, lambda a, b: T.concat([a, b])):
        constant = np.ones((2, 3))
        gone = weakref.ref(constant)
        out = op(x, T.Tensor(constant))
        del constant
        assert gone() is None, out._op
        T.backward(R.tsum(out))


def test_concat_backward():
    params = {
        "a": T.Tensor(Stream(4).normal(6).reshape(2, 3), requires_grad=True),
        "b": T.Tensor(Stream(6).normal(3).reshape(1, 3), requires_grad=True),
    }

    def build_loss():
        return R.tmean(R.square(T.concat([params["a"], params["b"]], axis=0)))

    fd_check(build_loss, params)


def test_sum_mean_axis_backward():
    params = {"x": T.Tensor(Stream(8).normal(12).reshape(3, 4), requires_grad=True)}

    def build_loss():
        return R.tsum(R.square(R.tmean(R.exp(T.scale(params["x"], 0.3)), axis=0)))

    fd_check(build_loss, params)


def test_tape_cleared_after_backward():
    x = T.Tensor([1.0], requires_grad=True)
    y = R.square(x)
    loss = R.tsum(y)
    T.backward(loss)
    assert y._parents == () and y._backward is None


def test_backward_releases_each_node_as_it_runs():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = R.square(x)
    z = R.square(y)
    loss = R.tsum(z)
    run, seen = y._backward, []

    def probe(g):
        # by now the nodes after y have run and let go of what they kept
        seen.append((loss._parents, loss._backward, z._parents, z._backward))
        return run(g)

    y._backward = probe
    T.backward(loss)
    assert seen == [((), None, (), None)]
    assert np.array_equal(x.grad, [4.0, 32.0])


def test_two_disjoint_graphs_survive_each_other():
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    b = T.Tensor([3.0, 4.0], requires_grad=True)
    la = R.tsum(R.square(a))
    lb = R.tsum(R.mul(b, T.Tensor(R.square(a).data)))
    T.backward(la)
    T.backward(lb)
    assert np.array_equal(a.grad, [2.0, 4.0])
    assert np.array_equal(b.grad, [1.0, 4.0])


# ---------------------------------------------------------------------------
# Optimizers


def test_sgd_single_step():
    p = T.Tensor([0.0], requires_grad=True)
    opt = T.Optimizer({"p": p}, "sgd-momentum", lr=0.1, momentum=0.0)
    p.grad = np.array([1.0])
    opt.step()
    assert np.allclose(p.data, [-0.1], atol=0)
    assert p.grad is None


def test_zero_grad_zero_decay_keeps_params():
    p = T.Tensor([1.0, -2.0], requires_grad=True)
    opt = T.Optimizer({"p": p}, "sgd-momentum", lr=0.5, weight_decay=0.0)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    opt2 = T.Optimizer({"p": p}, "adam", lr=0.5)
    opt2.step()
    assert np.array_equal(p.data, before)


def test_adam_first_step_closed_form():
    g = np.array([0.3, -0.02, 5.0])
    p = T.Tensor(np.zeros(3), requires_grad=True)
    opt = T.Optimizer({"p": p}, "adam", lr=0.001)
    p.grad = g.copy()
    opt.step()
    # first step: m_hat = g, v_hat = g^2 -> update = -lr * g / (|g| + eps)
    expect = -0.001 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expect, rtol=0, atol=1e-18)


def test_nan_gradient_aborts_with_name():
    # one non-finite entry would turn the whole parameter into NaN: SGD's
    # clip (1/inf = 0, then inf * 0) and Adam's inf / inf
    for kind, clip in (("sgd-momentum", 1.0), ("adam", None)):
        for bad in (np.nan, np.inf, -np.inf):
            ok = T.Tensor([1.0, 1.0, 1.0], requires_grad=True)
            p = T.Tensor([1.0, 1.0, 1.0], requires_grad=True)
            opt = T.Optimizer({"ok": ok, "theta": p}, kind, lr=0.1, max_grad_norm=clip)
            ok.grad = np.array([0.5, 0.5, 0.5])
            p.grad = np.array([1.0, bad, 1.0])
            with pytest.raises(T.GradientError, match="'theta'"):
                opt.step()
            # refused before any parameter moves
            assert ok.data.tolist() == p.data.tolist() == [1.0, 1.0, 1.0]
            assert opt.t == 0


def test_grad_clipping_scales_update():
    p = T.Tensor([0.0], requires_grad=True)
    opt = T.Optimizer({"p": p}, "sgd-momentum", lr=1.0, momentum=0.0, max_grad_norm=1.0)
    p.grad = np.array([10.0])
    opt.step()
    assert np.allclose(p.data, [-1.0])


def test_identical_seeds_identical_trajectories():
    def run():
        stream = Stream(123)
        p = T.Tensor(stream.normal(6).reshape(2, 3), requires_grad=True)
        opt = T.Optimizer({"p": p}, "adam", lr=0.01)
        x = stream.normal(8).reshape(4, 2)
        for _ in range(5):
            loss = R.tmean(R.square(R.matmul(T.Tensor(x), p)))
            T.backward(loss)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# Checkpoint format


def test_checkpoint_round_trip(tmp_path):
    arrays = {
        "seg.w0": Stream(1).normal(12).reshape(3, 4),
        "seg.b0": Stream(2).normal(4),
        "scp.codes": Stream(3).normal(24).reshape(2, 3, 4),
    }
    path = tmp_path / "w.a3wt"
    T.save_checkpoint(path, arrays)
    back = T.load_checkpoint(path)
    assert set(back) == set(arrays)
    for name in arrays:
        assert np.array_equal(back[name], arrays[name])


def test_checkpoint_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.a3wt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(T.CheckpointError, match="offset 0"):
        T.load_checkpoint(path)
    good = tmp_path / "good.a3wt"
    T.save_checkpoint(good, {"a": np.ones(4)})
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.a3wt"
    trunc.write_bytes(blob[:-8])
    with pytest.raises(T.CheckpointError, match="truncated"):
        T.load_checkpoint(trunc)


def checkpoint_blob(*entries):
    """A3WT bytes of raw (name bytes, dims, values) entries."""
    parts = [b"A3WT"]
    for name, dims, values in entries:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<I", len(dims)),
                  struct.pack(f"<{len(dims)}Q", *dims), np.asarray(values, "<f8").tobytes()]
    return b"".join(parts)


@pytest.mark.parametrize("blob, match", [
    (checkpoint_blob((b"\xff\xfe", (1,), [1.0])), "not utf-8"),
    # 2^32 x 2^32 wraps to 0 in int64 arithmetic
    (checkpoint_blob((b"a", (2 ** 32, 2 ** 32), [])), "truncated"),
    (checkpoint_blob((b"a", (1,), [1.0]), (b"a", (1,), [2.0])), "duplicate name 'a'"),
    (checkpoint_blob((b"a", (0, 2 ** 63), [])), "dims"),
], ids=["non-utf8-name", "dims-product-over-int64", "duplicate-name", "dims-numpy-cannot-hold"])
def test_checkpoint_rejects_malformed_entries(tmp_path, blob, match):
    path = tmp_path / "bad.a3wt"
    path.write_bytes(blob)
    with pytest.raises(T.CheckpointError, match=match):
        T.load_checkpoint(path)


@st.composite
def damaged_checkpoints(draw):
    """Bytes after the magic: a well-formed body, then perhaps one byte
    changed and the tail cut off."""
    names = draw(st.lists(st.binary(max_size=4), max_size=3))
    entries = []
    for name in names:
        dims = draw(st.lists(st.integers(0, 3), max_size=3))
        entries.append((name, dims, np.ones(math.prod(dims))))
    body = bytearray(checkpoint_blob(*entries)[4:])
    if body and draw(st.booleans()):
        body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    return bytes(body[:draw(st.integers(0, len(body)))])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), damaged_checkpoints()))
def test_checkpoint_bytes_parse_or_raise_checkpoint_error(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.a3wt"
    path.write_bytes(b"A3WT" + body)
    try:
        arrays = T.load_checkpoint(path)
    except T.CheckpointError:
        return
    assert all(a.dtype == np.float64 for a in arrays.values())
