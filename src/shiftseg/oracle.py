"""Independent references that `shiftseg verify` checks the production paths
against: exhaustive nearest codes, kink-aware central finite differences,
sequential statistics replay and counting metrics, with the report type the
suites write. Deliberately slow and deliberately separate from the
production paths: these share domain types only. The tests' own slow
references (brute-force kNN, dilation and voxel cells, an extended-precision
graph interpreter, a closed-form 3x3 eigenvalue solver) live in
tests/reference.py."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OracleReport:
    check: str
    cases: int
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)  # check-specific counts

    def to_json(self) -> dict:
        return {"check": self.check, "cases": self.cases,
                "max_abs_err": self.max_abs_err, "max_rel_err": self.max_rel_err,
                "tolerance": self.tolerance, "passed": bool(self.passed), **self.detail}


def report(check: str, cases: int, abs_err: float, rel_err: float,
           tolerance: float, **detail) -> OracleReport:
    return OracleReport(check, cases, float(abs_err), float(rel_err),
                        float(tolerance), bool(max(abs_err, rel_err) <= tolerance), detail)


# ---------------------------------------------------------------------------
# Exhaustive nearest neighbor (same tie rule as production: lowest index)


def brute_nn(codes: np.ndarray, queries: np.ndarray,
             classes: np.ndarray | None = None,
             code_classes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per query: scan every candidate code (optionally restricted to the
    query's class) accumulating squared distances with compensated summation.
    Returns (index, distance)."""
    n = queries.shape[0]
    idx = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    for q in range(n):
        best_i = -1
        best_d = math.inf
        for c in range(codes.shape[0]):
            if classes is not None and code_classes[c] != classes[q]:
                continue
            d = math.fsum((float(a) - float(b)) ** 2
                          for a, b in zip(queries[q], codes[c]))
            if d < best_d:
                best_d = d
                best_i = c
        idx[q] = best_i
        dist[q] = math.sqrt(best_d)
    return idx, dist


# ---------------------------------------------------------------------------
# Central finite differences


# A kink (a leaky-relu input changing sign) within +-h makes an entry's
# forward and backward differences disagree, and the central difference errs
# by half their disagreement. A smooth loss bends them apart too, by about
# h * f'', so a disagreeing entry is only a suspect: it straddled a kink when
# its central differences at h and h/10 disagree as well. KINK_RTOL is the
# relative disagreement still taken as agreement; KINK_ROUNDING is the
# rounding noise of one loss evaluation, relative to the loss.
KINK_RTOL = 1e-6
KINK_ROUNDING = 64 * np.finfo(np.float64).eps
KINK_STEPS = (10.0, 100.0, 1000.0)  # divisors of h tried on a straddled kink


def fd_gradient(loss_fn, params: dict[str, np.ndarray],
                h: float = 1e-5) -> tuple[dict[str, np.ndarray], int]:
    """Kink-aware central difference per scalar entry of each parameter
    array, in name order. `loss_fn` is re-evaluated with the entry perturbed
    in place.

    Entries that straddle a kink are re-differenced with steps h/10, h/100,
    h/1000 until two successive central differences agree, and take the last
    one; every other entry keeps step h. Returns (gradients, number of
    entries that straddled a kink)."""
    mid = loss_fn()
    if not math.isfinite(mid):
        raise FloatingPointError("non-finite loss at the unperturbed parameters")
    noise = KINK_ROUNDING * abs(mid)

    def disagree(a: float, b: float, step: float) -> bool:
        return abs(a - b) > KINK_RTOL * max(abs(a), abs(b)) + 2.0 * noise / step

    grads = {}
    kinks = 0
    for name in sorted(params):
        arr = params[name]
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]

            def differences(step: float) -> tuple[float, float, float]:
                """(central, forward, backward) differences at `step`."""
                flat[i] = keep + step
                up = loss_fn()
                flat[i] = keep - step
                down = loss_fn()
                flat[i] = keep
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise FloatingPointError(
                        f"non-finite loss while differencing parameter {name!r} entry {i}")
                return (up - down) / (2.0 * step), (up - mid) / step, (mid - down) / step

            grad, fwd, bwd = differences(h)
            if disagree(fwd, bwd, h):
                finer = differences(h / KINK_STEPS[0])[0]
                if disagree(grad, finer, h / KINK_STEPS[0]):
                    kinks += 1
                    for div in KINK_STEPS[1:]:
                        coarse, finer = finer, differences(h / div)[0]
                        if not disagree(coarse, finer, h / div):
                            break
                    grad = finer
            gflat[i] = grad
        grads[name] = g
    return grads, kinks


def gradient_errors(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray],
                    rel_tol: float = 1e-4):
    """Worst relative error over all entries, with an absolute floor of 1e-8
    below which disagreements don't count."""
    worst = 0.0
    worst_name = None
    for name in numeric:
        a = analytic.get(name)
        a = np.zeros_like(numeric[name]) if a is None else a
        diff = np.abs(a - numeric[name])
        scale = np.maximum(np.maximum(np.abs(a), np.abs(numeric[name])), 1e-8 / rel_tol)
        rel = (diff / scale).max() if diff.size else 0.0
        if rel > worst:
            worst = float(rel)
            worst_name = name
    return worst, worst_name


# ---------------------------------------------------------------------------
# Sequential statistics replay (compensated accumulation)


def replay_stats(sequence, gamma: float, shape) -> np.ndarray:
    """From-scratch replay of the per-code EMA variance updates.

    `sequence` is an iterable of (flat_assignments, z_e) batches; `shape` is
    (num_codes, latent_dim). Every variance starts at 1 and is floored at
    1e-6 after each batch; codes with fewer than two rows in a batch keep
    their variance. Population variance, computed with fsum means.
    """
    var = np.full(shape, 1.0)
    for flats, z in sequence:
        for code in np.unique(flats):
            rows = z[flats == code]
            if rows.shape[0] < 2:
                continue
            for d in range(shape[1]):
                col = [float(v) for v in rows[:, d]]
                mean = math.fsum(col) / len(col)
                v = math.fsum((x - mean) ** 2 for x in col) / len(col)
                var[code, d] = gamma * var[code, d] + (1.0 - gamma) * v
        np.maximum(var, 1e-6, out=var)
    return var


# ---------------------------------------------------------------------------
# Counting-based segmentation metrics


def counting_iou(preds, labels, class_count: int):
    """Dict-counting IoU and row-normalized confusion, ignoring label 255."""
    tp = {c: 0 for c in range(class_count)}
    fp = {c: 0 for c in range(class_count)}
    fn = {c: 0 for c in range(class_count)}
    conf = np.zeros((class_count, class_count))
    for p, y in zip(preds, labels):
        if y == 255:
            continue
        conf[y][p] += 1
        if p == y:
            tp[y] += 1
        else:
            fp[p] += 1
            fn[y] += 1
    per_class = {}
    for c in range(class_count):
        union = tp[c] + fp[c] + fn[c]
        if union:
            per_class[c] = tp[c] / union
    miou = sum(per_class.values()) / len(per_class) if per_class else 0.0
    rows = conf.sum(axis=1, keepdims=True)
    conf = np.divide(conf, rows, out=np.zeros_like(conf), where=rows > 0)
    return per_class, miou, conf
