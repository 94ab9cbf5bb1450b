"""Hot geometry kernels: exact kNN and mask dilation.

One numpy implementation of each, computed on chunked dense distance blocks
with the arithmetic dx*dx + dy*dy + dz*dz, so every caller sees the same
distances and the same tie rule. `oracle.brute_knn` and `oracle.brute_dilate`
are the slow references the tests compare against.
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Exact kNN: Euclidean, self excluded, ties broken by lower point index.

def knn(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors. Returns (indices, distances), both (N, k)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 0 < k < n:
        raise ValueError(f"knn requires 0 < k < N, got k={k}, N={n}")
    idx_out = np.empty((n, k), np.int64)
    d2_out = np.empty((n, k), np.float64)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        dx = x[s:e, None] - x[None, :]
        dy = y[s:e, None] - y[None, :]
        dz = z[s:e, None] - z[None, :]
        d2 = dx * dx + dy * dy + dz * dz
        d2[np.arange(s, e) - s, np.arange(s, e)] = np.inf
        # stable sort on equal distances keeps the lower point index first
        near = np.argsort(d2, axis=1, kind="stable")[:, :k]
        idx_out[s:e] = near
        d2_out[s:e] = np.take_along_axis(d2, near, axis=1)
    return idx_out, np.sqrt(d2_out)


# ---------------------------------------------------------------------------
# Mask dilation: mark every point within `radius` of a marked point.

def dilate(points: np.ndarray, mask: np.ndarray, radius: float) -> np.ndarray:
    """Grow `mask` to cover all points within `radius` of any marked point;
    radius 0 is the identity."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (points.shape[0],):
        raise ValueError(f"mask shape {mask.shape} does not match cloud size {points.shape[0]}")
    if radius < 0:
        raise ValueError("dilation radius must be nonnegative")
    out = mask.copy()
    if radius == 0.0 or not mask.any() or mask.all():
        return out
    mpts = points[mask]
    r2 = float(radius) * float(radius)
    n = points.shape[0]
    chunk = max(1, min(n, 4_000_000 // mpts.shape[0]))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        dx = points[s:e, 0:1] - mpts[None, :, 0]
        dy = points[s:e, 1:2] - mpts[None, :, 1]
        dz = points[s:e, 2:3] - mpts[None, :, 2]
        d2 = dx * dx + dy * dy + dz * dz
        out[s:e] |= (d2 <= r2).any(axis=1)
    return out
