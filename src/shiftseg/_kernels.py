"""Hot geometry kernels: exact kNN and mask dilation on a k-d tree.

Both kernels find candidates with `scipy.spatial.cKDTree` and then decide
with their own arithmetic: every candidate's squared distance is recomputed
as dx*dx + dy*dy + dz*dz, so every caller sees the same distances and the
same tie rule (lower point index first) whatever the tree computed.

kNN queries k+1+PAD candidates per query row (every point, or the rows a
caller asks for, such as voxel representatives). A row is certified when
its k-th recomputed d² lies below the last candidate's tree distance² by the
relative margin MARGIN: the tree's rounding is far below that margin, so no
point outside the candidates can come closer or tie. A row that cannot be
certified (a tie at the boundary, as on lattices or duplicated points) is
recomputed exactly by a dense scan over all points. The tree nearly always
returns a row's candidates in their (d², index) order already; only the
rows where it does not are sorted. Every row is thus the exact top k by
(d², index), so knn(points, k2)[rows, :k1] equals knn(points, k1, rows) bit
for bit for k1 <= k2.

Dilation pairs each slice of the unmarked points with the marked points by
one `sparse_distance_matrix` call between their two trees at
radius·(1 + MARGIN); a slice holds at most MAX_PAIRS pairs. The "ndarray"
output gives the pairs as index arrays, `i` into the slice and `j` into the
marked points, and keeps zero distances (coincident points), which a sparse
matrix cannot tell from absent pairs. A pair marks its unmarked point when
its recomputed d² is at most radius².

`brute_knn` and `brute_dilate` in tests/reference.py are the slow references
the tests compare against.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# extra kNN candidates beyond k+1 (self), so that boundary ties rarely fall
# back to the dense scan
PAD = 3
# relative slack between the tree's distances and the recomputed ones
MARGIN = 1e-9
# most (unmarked, marked) candidate pairs one dilation query may return
MAX_PAIRS = 1 << 20


def _sq_dist(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between points[a] and points[b], index arrays
    broadcast against each other."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    dx = x[a] - x[b]
    dy = y[a] - y[b]
    dz = z[a] - z[b]
    return dx * dx + dy * dy + dz * dz


def _dense_knn(points: np.ndarray, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN of points[rows] by scanning every point, in chunks of rows."""
    n = points.shape[0]
    idx_out = np.empty((rows.size, k), np.int64)
    d2_out = np.empty((rows.size, k), np.float64)
    chunk = max(1, min(rows.size, 2_000_000 // n))
    every = np.arange(n)[None, :]
    for s in range(0, rows.size, chunk):
        e = min(rows.size, s + chunk)
        d2 = _sq_dist(points, rows[s:e, None], every)
        d2[np.arange(e - s), rows[s:e]] = np.inf
        # stable sort on equal distances keeps the lower point index first
        near = np.argsort(d2, axis=1, kind="stable")[:, :k]
        idx_out[s:e] = near
        d2_out[s:e] = np.take_along_axis(d2, near, axis=1)
    return idx_out, d2_out


def _ordered(cand: np.ndarray, d2: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per query row: the candidates are self first (d² = inf), then strictly
    ascending by (d², index) with a finite last d², so the row's lexsort
    order is 1, 2, ..., m-1, 0."""
    a, b = d2[:, 1:-1], d2[:, 2:]
    ascending = (a < b) | ((a == b) & (cand[:, 1:-1] < cand[:, 2:]))
    return (cand[:, 0] == rows) & (d2[:, -1] < np.inf) & ascending.all(axis=1)


# ---------------------------------------------------------------------------
# Exact kNN: Euclidean, self excluded, ties broken by lower point index.

def knn(points: np.ndarray, k: int,
        rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of the query rows points[rows] (every point
    when rows is None) among all points. Returns (indices, distances), both
    (len(rows), k). Query rows are independent through the tree query, the
    recomputation, the certification and the dense fallback, so the result
    equals knn(points, k)[rows] bit for bit."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 0 < k < n:
        raise ValueError(f"knn requires 0 < k < N, got k={k}, N={n}")
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    m = min(n, k + 1 + PAD)
    tree_dist, cand = cKDTree(points).query(points[rows], k=m)
    cand_d2 = _sq_dist(points, rows[:, None], cand)
    cand_d2[cand == rows[:, None]] = np.inf  # self goes last
    # a row whose tree order is already its (d², index) order, self first,
    # is its candidates 1..k; only the other rows are sorted
    idx, d2 = cand[:, 1:k + 1].copy(), cand_d2[:, 1:k + 1].copy()
    unsorted = np.flatnonzero(~_ordered(cand, cand_d2, rows))
    if unsorted.size:
        order = np.lexsort((cand[unsorted], cand_d2[unsorted]), axis=1)[:, :k]
        idx[unsorted] = np.take_along_axis(cand[unsorted], order, axis=1)
        d2[unsorted] = np.take_along_axis(cand_d2[unsorted], order, axis=1)
    if m < n:
        last = tree_dist[:, -1]
        unsure = np.flatnonzero(~(d2[:, -1] < last * last * (1.0 - MARGIN)))
        if unsure.size:
            idx[unsure], d2[unsure] = _dense_knn(points, rows[unsure], k)
    return idx, np.sqrt(d2)


# ---------------------------------------------------------------------------
# Mask dilation: mark every point within `radius` of a marked point.

def dilate(points: np.ndarray, mask: np.ndarray, radius: float) -> np.ndarray:
    """Grow `mask` to cover all points within `radius` of any marked point;
    radius 0 is the identity."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (points.shape[0],):
        raise ValueError(f"mask shape {mask.shape} does not match cloud size {points.shape[0]}")
    out = mask.copy()
    if radius == 0.0 or not mask.any() or mask.all():
        return out
    marked = np.flatnonzero(mask)
    rest = np.flatnonzero(~mask)
    tree = cKDTree(points[marked])
    reach = float(radius) * (1.0 + MARGIN)
    r2 = float(radius) * float(radius)
    # a slice of `rest` can pair with every marked point, so this many rows
    # bound the pairs of one query by MAX_PAIRS whatever the radius
    rows = max(1, MAX_PAIRS // marked.size)
    for s in range(0, rest.size, rows):
        part = rest[s:s + rows]
        pairs = cKDTree(points[part]).sparse_distance_matrix(tree, reach, output_type="ndarray")
        query, near = part[pairs["i"]], marked[pairs["j"]]
        keep = _sq_dist(points, query, near) <= r2
        out[query[keep]] = True
    return out
