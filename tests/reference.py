"""Slow, independent references that only the tests use.

- Tape ops that the training pipeline does not record, built on the tape's
  own `_record` as its ops are: the elementwise, reduction and per-layer
  ops from which the fused nodes' reference chains are assembled
  (`cross_entropy_chain` for `T.cross_entropy`, the per-layer chain for
  `T.mlp`, subtract-square-mean for `T.mse`), and which the gradient tests
  compose into small losses; and `scp.vq_losses` over float64 pinned code
  values (`vq_losses_float64_pins`).
- The prior's in-class code search and per-code statistics over one float64
  copy of every latent row (`quantize_float64_copy`,
  `update_code_stats_float64_copy`).
- The prior's rows chosen filter-then-group: ignore rows dropped by a row
  mask before the class grouping, and each grouped row mapped back through
  the kept rows (`encoder_input_filter_then_group`, and
  `localize_filter_then_group`, which dilates in input order).
- Brute-force geometry: O(N^2) kNN and dilation, voxel cells by
  dictionary grouping, and a box's surface filled face by face
  (`box_surface_per_face`).
- Extended precision (mpmath): a straight-line graph interpreter and a
  closed-form symmetric 3x3 eigenvalue solver.
"""
from __future__ import annotations

import math

import numpy as np

import shiftseg.tensor as T
from shiftseg import _kernels, scp, ssr
from shiftseg.pointcloud import IGNORE_LABEL

# ---------------------------------------------------------------------------
# Tape ops


def sub(a, b) -> T.Tensor:
    a, b, ad, bd = T._operands("sub", a, b)

    def bwd(g):
        return (T._unbroadcast(g, a) if a.requires_grad else None,
                T._unbroadcast(-g, b) if b.requires_grad else None)

    return T._record(ad - bd, (a, b), bwd, "sub")


def add_row(a, b) -> T.Tensor:
    """a plus the row b broadcast over a's rows: the bias add of the
    per-layer chain that `T.mlp` fuses, whose bias gradient is the row sum."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    if b.data.shape != a.data.shape[-1:]:
        raise T.ShapeError(f"add-row: {b.data.shape} is not a row of {a.data.shape}")
    dtype = T._compute_dtype(a, b)
    ad, bd = a.data.astype(dtype, copy=False), b.data.astype(dtype, copy=False)

    def bwd(g):
        return (T._unbroadcast(g, a) if a.requires_grad else None,
                T._unbroadcast(g, b) if b.requires_grad else None)

    return T._record(ad + bd, (a, b), bwd, "add")


def mul(a, b) -> T.Tensor:
    a, b, ad, bd = T._operands("mul", a, b)

    def bwd(g):
        return (T._unbroadcast(g * bd, a) if a.requires_grad else None,
                T._unbroadcast(g * ad, b) if b.requires_grad else None)

    return T._record(ad * bd, (a, b), bwd, "mul")


def matmul(a, b) -> T.Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise T.ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    dtype = T._compute_dtype(a, b)
    ad, bd = a.data.astype(dtype, copy=False), b.data.astype(dtype, copy=False)

    def bwd(g):
        return ((g @ bd.T).astype(a.data.dtype, copy=False) if a.requires_grad else None,
                T._weight_grad(ad, g, b.data.dtype) if b.requires_grad else None)

    return T._record(ad @ bd, (a, b), bwd, "matmul")


def leaky_relu(x) -> T.Tensor:
    x = T.as_tensor(x)
    xd = x.data

    def bwd(g):
        return (np.where(xd > 0, g, T.LEAKY_SLOPE * g),)

    return T._record(np.where(xd > 0, xd, T.LEAKY_SLOPE * xd), (x,), bwd, "leaky-relu")


def log(x) -> T.Tensor:
    x = T.as_tensor(x)
    xd = x.data

    def bwd(g):
        return (g / xd,)

    return T._record(np.log(xd), (x,), bwd, "log")


def exp(x) -> T.Tensor:
    x = T.as_tensor(x)
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return T._record(out, (x,), bwd, "exp")


def square(x) -> T.Tensor:
    x = T.as_tensor(x)
    xd = x.data

    def bwd(g):
        return (2.0 * g * xd,)

    return T._record(xd * xd, (x,), bwd, "square")


def tsum(x, axis: int | None = None) -> T.Tensor:
    x = T.as_tensor(x)
    shape = x.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return T._record(x.data.sum(axis=axis), (x,), bwd, "sum")


def tmean(x, axis: int | None = None) -> T.Tensor:
    x = T.as_tensor(x)
    shape = x.data.shape
    count = x.data.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    # accumulated in float64, returned in x's dtype
    mean = x.data.mean(axis=axis, dtype=np.float64).astype(x.data.dtype)
    return T._record(mean, (x,), bwd, "mean")


def cross_entropy_chain(logits, labels, rows) -> T.Tensor:
    """The 9-node chain that `T.cross_entropy` fuses: select the rows, shift
    by the constant row max, log-sum-exp minus the one-hot true logit, mean."""
    sel = T.gather_rows(logits, np.flatnonzero(rows))
    y = np.asarray(labels, dtype=np.int64)
    row_max = np.broadcast_to(sel.data.max(axis=1, keepdims=True), sel.data.shape).copy()
    shifted = sub(sel, T.Tensor(row_max))
    lse = log(tsum(exp(shifted), axis=1))
    onehot = np.zeros(sel.data.shape, dtype=sel.data.dtype)
    onehot[np.arange(y.shape[0]), y] = 1.0
    true_logit = tsum(mul(shifted, T.Tensor(onehot)), axis=1)
    return tmean(sub(lse, true_logit))


def vq_losses_float64_pins(ae, cb, z_e, flat, z_e0, z_q0, target_probs):
    """`scp.vq_losses` with the assigned code values `z_q0` pinned in
    float64: the codebook term gathers the codes in float64, the
    straight-through residual z_q0 - z_e0 stays a float64 array, and each op
    casts them to the latents' dtype as it computes. Returns the VqLosses
    and the codebook term, which VqLosses holds in its total only."""
    z_q_rows = T.gather_rows(cb.codes, flat)
    codebook = T.mse(z_e0, z_q_rows)
    commitment = T.mse(z_e, z_q0)
    decoded = ae.decode(T.add(z_e, T.Tensor(z_q0 - z_e0)))
    recon = T.mse(decoded, target_probs)
    total = T.add(T.add(recon, codebook), T.scale(commitment, scp.BETA))
    return scp.VqLosses(recon, commitment, total), codebook


# ---------------------------------------------------------------------------
# The prior's code search and statistics over a float64 copy of the latents


def quantize_float64_copy(codes3: np.ndarray, z_e: np.ndarray,
                          classes: np.ndarray) -> np.ndarray:
    """Flat nearest-in-class code per row, searched over one float64 copy of
    all the rows: per class, the expanded-form squared distance clamped at
    0, lowest index on exact ties."""
    z_e = np.asarray(z_e, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    idx = np.full(classes.shape[0], -1, dtype=np.int64)
    for c in np.unique(classes):
        rows = np.flatnonzero(classes == c)
        table, z = codes3[c], z_e[rows]
        d2 = ((z * z).sum(axis=1)[:, None]
              - 2.0 * (z @ table.T)
              + (table * table).sum(axis=1)[None, :])
        idx[rows] = np.maximum(d2, 0.0).argmin(axis=1)
    return classes * codes3.shape[1] + idx


def update_code_stats_float64_copy(cb: scp.CodebookState, flat: np.ndarray,
                                   z_e: np.ndarray) -> None:
    """`scp.update_code_stats` with each code's rows sliced from one float64
    copy of all the rows."""
    z64 = np.asarray(z_e, dtype=np.float64)
    order = np.argsort(flat, kind="stable")
    flats = flat[order]
    uniq, starts = np.unique(flats, return_index=True)
    bounds = np.append(starts, flats.shape[0])
    for u, s, e in zip(uniq, bounds[:-1], bounds[1:]):
        c, j = divmod(int(u), cb.codes_per_class)
        cb.usage[c, j] += e - s
        if e - s >= 2:
            batch_var = z64[order[s:e]].var(axis=0)
            cb.variances[c, j] = scp.GAMMA * cb.variances[c, j] + (1.0 - scp.GAMMA) * batch_var
    np.maximum(cb.variances, scp.VARIANCE_FLOOR, out=cb.variances)


# ---------------------------------------------------------------------------
# The prior's rows, filter then group


def encoder_input_filter_then_group(probs: np.ndarray, coords: np.ndarray,
                                    labels: np.ndarray):
    """(rows, index, classes) of `scp.build_encoder_input`, as arrays: the
    labelled rows selected by mask, then sorted stably by class; `index`
    maps each grouped row through the kept rows to its input row."""
    labels = np.asarray(labels, dtype=np.int64)
    valid = labels != IGNORE_LABEL
    order = np.argsort(labels[valid], kind="stable")
    probs_g = np.asarray(probs)[valid][order]
    coords_g = np.asarray(coords, dtype=np.float64)[valid][order] * scp.COORD_SCALE
    rows = np.concatenate([probs_g, coords_g.astype(probs_g.dtype)], axis=1)
    return rows, np.flatnonzero(valid)[order], labels[valid][order]


def localize_filter_then_group(snapshot: ssr.PriorSnapshot, probs: np.ndarray,
                               coords: np.ndarray, labels: np.ndarray,
                               dilation_radius: float):
    """(masks, index, z_e values) of `ssr.localize`, with the scores
    scattered back to input rows and the dilation run over the labelled
    rows in input order."""
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    valid = labels != IGNORE_LABEL
    rows, index, classes = encoder_input_filter_then_group(probs, coords, labels)
    z_e = snapshot.embed(rows).data
    flagged = np.zeros(labels.shape[0], dtype=bool)
    flagged[index] = ssr.shift_score(snapshot, z_e, classes) > snapshot.threshold
    flagged[valid] = _kernels.dilate(coords[valid], flagged[valid], dilation_radius)
    return ssr.ShiftMasks(valid & ~flagged, valid & flagged), index, z_e


# ---------------------------------------------------------------------------
# Brute-force geometry


def brute_knn(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """O(N^2) exact k nearest neighbors, self excluded, (distance, index) order."""
    n = points.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d = math.fsum((float(a) - float(b)) ** 2
                          for a, b in zip(points[i], points[j]))
            cand.append((d, j))
        cand.sort()
        idx[i] = [c[1] for c in cand[:k]]
        dist[i] = [math.sqrt(c[0]) for c in cand[:k]]
    return idx, dist


def brute_dilate(points: np.ndarray, mask: np.ndarray, radius: float) -> np.ndarray:
    """O(N^2) pairwise-scan dilation."""
    n = points.shape[0]
    out = np.array(mask, dtype=bool, copy=True)
    marked = np.flatnonzero(mask)
    for i in range(n):
        if out[i]:
            continue
        for m in marked:
            d = math.fsum((float(a) - float(b)) ** 2
                          for a, b in zip(points[i], points[m]))
            if d <= radius * radius:
                out[i] = True
                break
    return out


def box_surface_per_face(stream, n: int, center, size) -> np.ndarray:
    """`dataset._box_surface` with each face's rows written by its own
    masked assignment: the same draws and the same per-point arithmetic."""
    cx, cy, cz = center
    sx, sy, sz = size
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy])
    cdf = np.cumsum(areas / areas.sum())
    u = stream.uniform(3 * n).reshape(n, 3)
    face = np.searchsorted(cdf, u[:, 0], side="right")
    a = u[:, 1] - 0.5
    b = u[:, 2]
    pts = np.empty((n, 3))
    for f in range(5):
        m = face == f
        if f in (0, 1):  # x = +-sx/2 faces
            pts[m, 0] = cx + (sx / 2 if f == 0 else -sx / 2)
            pts[m, 1] = cy + a[m] * sy
            pts[m, 2] = cz + b[m] * sz
        elif f in (2, 3):  # y = +-sy/2 faces
            pts[m, 0] = cx + a[m] * sx
            pts[m, 1] = cy + (sy / 2 if f == 2 else -sy / 2)
            pts[m, 2] = cz + b[m] * sz
        else:  # top
            pts[m, 0] = cx + a[m] * sx
            pts[m, 1] = cy + (b[m] - 0.5) * sy
            pts[m, 2] = cz + sz
    return pts


def brute_voxel_cells(points: np.ndarray, voxel_size: float) -> dict:
    """Floor-key grouping by dictionary insertion."""
    cells: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        key = tuple(int(math.floor(float(v) / voxel_size)) for v in p)
        cells.setdefault(key, []).append(i)
    return cells


# ---------------------------------------------------------------------------
# Extended precision (mpmath)


def interpret_program(program, inputs: dict[str, np.ndarray], dps: int = 50):
    """Re-evaluate a straight-line tensor program with mpmath arithmetic.

    `program` is a list of (out_name, op, arg_names, kwargs) over the ops
    matmul, add (a one-row second operand broadcasts), leaky-relu, softmax
    (per row) and mean (of every entry). Returns {name: float64 ndarray}.
    """
    from mpmath import mp, mpf, exp as mexp

    mp.dps = dps

    def lift(a):
        return [[mpf(float(v)) for v in row] for row in np.atleast_2d(a)]

    env = {name: lift(a) for name, a in inputs.items()}

    for out, op, args, kwargs in program:
        vals = [env[a] for a in args]
        if op == "matmul":
            a, b = vals
            res = [[sum(a[i][t] * b[t][j] for t in range(len(b)))
                    for j in range(len(b[0]))] for i in range(len(a))]
        elif op == "add":
            a, b = vals
            if len(b) == 1 and len(a) > 1:  # broadcast bias row
                b = [b[0]] * len(a)
            res = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        elif op == "leaky-relu":
            s = mpf(float(kwargs["slope"]))
            res = [[x if x > 0 else s * x for x in row] for row in vals[0]]
        elif op == "softmax":
            res = []
            for row in vals[0]:
                m = max(row)
                e = [mexp(x - m) for x in row]
                tot = sum(e)
                res.append([x / tot for x in e])
        elif op == "mean":
            count = sum(len(row) for row in vals[0])
            res = [[sum(sum(row) for row in vals[0]) / count]]
        else:
            raise ValueError(f"interpreter does not support op {op!r}")
        env[out] = res
    return {name: np.array([[float(v) for v in row] for row in mat])
            for name, mat in env.items()}


def eigvals_sym3_reference(m: np.ndarray, dps: int = 50) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix by the trigonometric closed form
    in mpmath arithmetic, returned ascending."""
    from mpmath import mp, mpf, cos, acos, sqrt as msqrt, pi

    mp.dps = dps
    a = [[mpf(float(m[i][j])) for j in range(3)] for i in range(3)]
    p1 = a[0][1] ** 2 + a[0][2] ** 2 + a[1][2] ** 2
    q = (a[0][0] + a[1][1] + a[2][2]) / 3
    if p1 == 0:
        vals = sorted([a[0][0], a[1][1], a[2][2]])
        return np.array([float(v) for v in vals])
    p2 = (a[0][0] - q) ** 2 + (a[1][1] - q) ** 2 + (a[2][2] - q) ** 2 + 2 * p1
    p = msqrt(p2 / 6)
    b = [[(a[i][j] - (q if i == j else 0)) / p for j in range(3)] for i in range(3)]
    detb = (b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
            - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
            + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0]))
    r = detb / 2
    r = max(min(r, mpf(1)), mpf(-1))
    phi = acos(r) / 3
    e1 = q + 2 * p * cos(phi)
    e3 = q + 2 * p * cos(phi + 2 * pi / 3)
    e2 = 3 * q - e1 - e3
    return np.array(sorted([float(e1), float(e2), float(e3)]))
