"""Verification suites run by the CLI: gradient fidelity against finite
differences, float32 step gradients against float64 ones, quantizer
exactness against exhaustive scans, statistics replay, and metric counting.
Each suite returns OracleReports; any failure makes the command exit
nonzero."""
from __future__ import annotations

import dataclasses

import numpy as np

from . import evalsuite, oracle, scp, trainer
from . import tensor as T
from .dataset import SYNTH_CLASSES, SceneSpec, generate_scene
from .rng import Stream

# SSR threshold of the gradient suite's step: it flags 9 of the 17 labeled
# rows, so the distillation term is part of the checked gradient
GRAD_T = 0.3
# the gradient suite's central-difference step and its bound on each
# parameter tensor's relative error
GRAD_H = 1e-5
GRAD_REL_TOL = 1e-4
# training steps before a checked step, so codes are initialized and
# variances tracked
WARM_STEPS = 2
# query rows of the quantizer suite, steps of the statistics replay, and
# random prediction/label draws of the metrics suite
QUANT_CASES = 10_000
STATS_STEPS = 50
METRICS_CASES = 5
# Bound on the relative 2-norm error of each parameter tensor's float32 step
# gradient against the float64 gradient of the same state and selection,
# fixed from float32's unit roundoff u = 2**-24 ~ 6e-8 before any
# measurement: a product of inner dimension n errs by at most n*u relative
# to |x|.|y| (Higham, "Accuracy and Stability of Numerical Algorithms",
# sec. 3.5); here n <= 256 (layer widths <= 128, weight gradients in
# 256-row blocks summed in float64), so <= 1.5e-5 per product, and a
# gradient of the prior passes about 20 of them (10 layers, forward and
# back): <= 3e-4, times about 3 for the rounded inputs and the elementwise
# steps.
PRECISION_REL_TOL = 1e-3


def tiny_config(**overrides) -> trainer.TrainConfig:
    """Small full-pipeline config for gradient checks: 4 classes, 4 codes,
    8 latent channels, one 64-point scene."""
    base = dict(
        epochs=1, batch_size=1, seed=5, mode="full", scenes=1,
        points_per_scene=64, class_count=4, val_fraction=0.5,
        seg_hidden=(6, 5), encoder_widths=(8, 8), k=4, latent_dim=8,
        voxel_size=0.35, knn_k=5, dilation_radius=0.3, t=2.0,
        augment_preset="heavy", noise_points=4, eval_every=0,
    )
    base.update(overrides)
    return trainer.TrainConfig(**base)


def _shifted_rows(sel: trainer.StepSelection) -> int:
    return sum(int(m.ssr.sum()) for m in sel.masks or [])


def float64_batch(pb: trainer.PreparedBatch) -> trainer.PreparedBatch:
    """`pb` with every cloud's features cast to float64."""
    def cast(clouds):
        return None if clouds is None else [
            dataclasses.replace(pc, feats=pc.feats.astype(np.float64)) for pc in clouds]
    return dataclasses.replace(pb, originals=cast(pb.originals), augmented=cast(pb.augmented))


def tiny_step(cfg: trainer.TrainConfig):
    """State, prepared batch, pinned selection and the selecting pass's
    seg losses (with the live prior latents for `trainer.vq_objective`) for
    one tiny step.

    WARM_STEPS warm-up steps first. The batch's features are cast to
    float64, so the step's graph (the same code that trains in float32)
    runs in float64, where central differences at GRAD_H resolve it. A step
    whose selection shifts no row, or whose distillation loss is 0, cannot
    check those gradients and raises ValueError.
    """
    spec = SceneSpec(seed=cfg.seed, num_points=cfg.points_per_scene,
                     enabled_classes=SYNTH_CLASSES[:cfg.class_count],
                     num_cars=1, num_buildings=1, num_trees=0, num_poles=0,
                     num_signs=0, ground_extent=4.0)
    cloud = generate_scene(spec)
    state = trainer.init_state(cfg)
    for step in range(WARM_STEPS):
        trainer.train_step(state, [cloud], cfg, 0, step)
    pb = float64_batch(trainer.prepare_batch(state, [cloud], 0, WARM_STEPS))
    bundle, sel = trainer.step_losses(state, pb)
    shifted = _shifted_rows(sel)
    if shifted == 0 or (bundle.distill is not None and bundle.distill.item() == 0.0):
        raise ValueError(f"the tiny step at t={cfg.t} shifts {shifted} row(s) with zero "
                         "distillation; its gradients would not check the shift region")
    return state, pb, sel, bundle


def _analytic_grads(loss: T.Tensor, opt: T.Optimizer) -> dict[str, np.ndarray]:
    """Gradients of `loss` toward the parameters of `opt` (zeros where none
    reaches); the parameters' .grad are left cleared."""
    opt.zero_grad()
    T.backward(loss)
    grads = {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for n, p in opt.params.items()}
    opt.zero_grad()
    return grads


def suite_grad() -> list[oracle.OracleReport]:
    cfg = tiny_config(t=GRAD_T)
    state, pb, sel, _ = tiny_step(cfg)
    seg_grads = _analytic_grads(trainer.step_losses(state, pb, sel)[0].total, state.seg_opt)
    vq_grads = _analytic_grads(trainer.vq_objective(state, sel).total, state.ae_opt)

    def total_loss():
        bundle, _ = trainer.step_losses(state, pb, sel)
        return bundle.total.item()

    def vq_loss():
        return trainer.vq_objective(state, sel).total.item()

    seg_arrays = {n: p.data for n, p in state.model.params.items()}
    fd_seg, kinks_seg = oracle.fd_gradient(total_loss, seg_arrays, h=GRAD_H)
    err_seg, _ = oracle.gradient_errors(seg_grads, fd_seg, GRAD_REL_TOL)

    ae_arrays = {n: p.data for n, p in state.ae_opt.params.items()}
    fd_vq, kinks_vq = oracle.fd_gradient(vq_loss, ae_arrays, h=GRAD_H)
    err_vq, _ = oracle.gradient_errors(vq_grads, fd_vq, GRAD_REL_TOL)

    return [
        oracle.report("grad.total_vs_fd", sum(a.size for a in seg_arrays.values()),
                      0.0, err_seg, GRAD_REL_TOL, kink_entries=kinks_seg,
                      ssr_rows=_shifted_rows(sel)),
        oracle.report("grad.vq_vs_fd", sum(a.size for a in ae_arrays.values()),
                      0.0, err_vq, GRAD_REL_TOL, kink_entries=kinks_vq),
    ]


def float64_selection(sel: trainer.StepSelection) -> trainer.StepSelection:
    """`sel` with its prior rows and selection-time latents cast to float64;
    every discrete choice, and the float64 codes of its snapshot, stay
    pinned."""
    if sel.rows is None:
        return sel
    return dataclasses.replace(sel, rows=T.Tensor(sel.rows.data.astype(np.float64)),
                               z_e0=sel.z_e0.astype(np.float64))


def suite_precision() -> list[oracle.OracleReport]:
    """The float32 step's seg and prior gradients against the float64
    gradients of the same warm default-geometry state and the same pinned
    selection, per parameter tensor, as relative 2-norm errors."""
    cfg = trainer.TrainConfig(scenes=5, t=0.45)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    state = trainer.init_state(cfg)
    for epoch in range(WARM_STEPS):
        trainer.train_step(state, batch, cfg, epoch, 0)
    pb = trainer.prepare_batch(state, batch, WARM_STEPS, 0)
    _, sel = trainer.step_losses(state, pb)
    pb64, sel64 = float64_batch(pb), float64_selection(sel)
    checks = (
        ("precision.seg_float32_vs_float64", state.seg_opt,
         lambda b, s: trainer.step_losses(state, b, s)[0].total),
        ("precision.vq_float32_vs_float64", state.ae_opt,
         lambda b, s: trainer.vq_objective(state, s).total))
    reports = []
    for check, opt, loss in checks:
        g32 = _analytic_grads(loss(pb, sel), opt)
        g64 = _analytic_grads(loss(pb64, sel64), opt)
        errs = {n: float(np.linalg.norm(g32[n] - g64[n]) / np.linalg.norm(g64[n])) for n in g64}
        worst = max(errs, key=errs.get)
        reports.append(oracle.report(check, len(errs), 0.0, errs[worst], PRECISION_REL_TOL,
                                     worst_tensor=worst))
    return reports


def suite_quant() -> list[oracle.OracleReport]:
    c, k, d = 8, 32, 64
    stream = Stream(17, "quant-verify")
    cb = scp.CodebookState(c, k, d)
    cb.codes.data[...] = stream.normal(c * k * d).reshape(c * k, d)
    cb.initialized[...] = True
    # duplicated codes create exact ties
    cb.codes.data[5] = cb.codes.data[2]
    queries = stream.normal(QUANT_CASES * d).reshape(QUANT_CASES, d)
    classes = stream.integers(QUANT_CASES, c)
    flat = scp.quantize(cb.codes3(), queries, classes)
    # taken directly: the search's expanded form loses digits to cancellation
    diff = queries - cb.codes.data[flat]
    distance = np.sqrt((diff * diff).sum(axis=1))
    code_classes = np.repeat(np.arange(c), k)
    idx, dist = oracle.brute_nn(cb.codes.data, queries, classes, code_classes)
    mismatches = int((flat != idx).sum())
    derr = float(np.max(np.abs(distance - dist)))
    return [
        oracle.report("quant.index_vs_brute", QUANT_CASES, mismatches, 0.0, 0.0),
        oracle.report("quant.distance_vs_brute", QUANT_CASES, derr, 0.0, 1e-9),
    ]


def suite_stats() -> list[oracle.OracleReport]:
    c, k, d = 3, 4, 6
    stream = Stream(23, "stats-verify")
    cb = scp.CodebookState(c, k, d)
    cb.initialized[...] = True
    trace = []
    for _ in range(STATS_STEPS):
        n = 40
        classes = stream.integers(n, c)
        z = stream.normal(n * d).reshape(n, d) * 1.4
        flat = scp.quantize(cb.codes3(), z, classes)
        scp.update_code_stats(cb, flat, z)
        trace.append((flat, z))
    replayed = oracle.replay_stats(trace, scp.GAMMA, (c * k, d))
    err = float(np.max(np.abs(cb.variances.reshape(c * k, d) - replayed)))
    return [oracle.report("stats.ema_replay", STATS_STEPS, err, 0.0, 1e-12)]


def suite_metrics() -> list[oracle.OracleReport]:
    stream = Stream(31, "metrics-verify")
    worst = 0.0
    for _ in range(METRICS_CASES):
        n, c = 500, 6
        labels = stream.integers(n, c + 1)
        labels = np.where(labels == c, 255, labels)
        preds = stream.integers(n, c)
        mat = evalsuite.count_matrix(preds, labels, c)
        per_class, miou, _, _ = evalsuite.iou(mat)
        conf = evalsuite.confusion(mat)
        ref_pc, ref_miou, ref_conf = oracle.counting_iou(preds, labels, c)
        for cls, v in ref_pc.items():
            worst = max(worst, abs(per_class[cls] - v))
        worst = max(worst, abs(miou - ref_miou), float(np.max(np.abs(conf - ref_conf))))
    return [oracle.report("metrics.iou_confusion_vs_counting", METRICS_CASES, worst, 0.0,
                          1e-12)]


# each suite by its `--suite` name, in the order `--suite all` runs them
SUITES = {"grad": suite_grad, "precision": suite_precision, "quant": suite_quant,
          "stats": suite_stats, "metrics": suite_metrics}


def run_suites(names) -> list[oracle.OracleReport]:
    reports = []
    for name in names:
        reports.extend(SUITES[name]())
    return reports
