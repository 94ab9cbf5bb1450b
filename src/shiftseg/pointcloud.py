"""Point-cloud geometry substrate: containers, voxelization, exact kNN,
local PCA statistics, and azimuthal sector split.

Summation order. `local_curvature` and `segnet.featurize` read each
neighbourhood as one `neighborhoods` block, coordinate by neighbour by
query point, and sum over neighbours one whole row of M query points at a
time: row 0 (the query point itself), plus row 1, plus row 2, and so on.
That is the order numpy sums an (M, k+1, 3) gather over its neighbour axis,
so each mean and covariance entry keeps the bits of that formula. A
reduction that numpy takes pairwise instead (the row mean of an (M, k+1)
array) is taken over such a contiguous array, and a squared norm is summed
as (x*x + y*y) + z*z."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

IGNORE_LABEL = 255


@dataclass
class PointCloud:
    """N labeled 3-D points. Label 255 means ignore."""

    positions: np.ndarray  # (N, 3) float64
    labels: np.ndarray  # (N,) uint16
    cloud_id: str
    parent_id: str | None = None

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint16)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.labels.shape != (self.positions.shape[0],):
            raise ValueError(
                f"labels length {self.labels.shape} does not match N={self.positions.shape[0]}")
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass
class VoxelGrid:
    """Partition of point indices into cubic cells of side voxel_size.

    Cell key = floor(position / voxel_size), componentwise. One representative
    per occupied cell: the lowest member index. The cell label is the majority
    label of its members, ties broken by the smallest class id.
    """

    rep_index: np.ndarray  # (M,) int64 lowest point index per cell
    rep_label: np.ndarray  # (M,) uint16 majority label per cell
    point_cell: np.ndarray  # (N,) int64 cell row per point
    voxel_size: float


@dataclass
class NeighborIndex:
    """Exact k nearest neighbors per query row; self excluded, distances
    ascending, ties broken by the lower point index. Row i belongs to point i,
    or to point rows[i] when `knn` was given query rows."""

    k: int
    indices: np.ndarray  # (Q, k) int64
    distances: np.ndarray  # (Q, k) float64

    def prefix(self, k: int, rows: np.ndarray | None = None) -> "NeighborIndex":
        """The first k neighbors of the query rows `rows` (every row when
        None): bit for bit what a query at k of those rows returns, since
        exact rows are ordered by (distance, index)."""
        if not 0 < k <= self.k:
            raise ValueError(f"prefix needs 0 < k <= {self.k}, got k={k}")
        take = slice(None) if rows is None else rows
        return NeighborIndex(k, self.indices[take, :k], self.distances[take, :k])


def voxel_keys(cloud: PointCloud, voxel_size: float) -> np.ndarray:
    """Each point's int64 cell key, floor(position / voxel_size); refuses a
    key beyond int64, which a cast would wrap into a shared cell."""
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    floored = np.floor(cloud.positions / voxel_size)
    if not ((floored >= -2.0 ** 63) & (floored < 2.0 ** 63)).all():
        raise ValueError(f"cloud {cloud.cloud_id!r} has a coordinate beyond 2^63 voxels "
                         f"of {voxel_size}; its cell key does not fit int64")
    return floored.astype(np.int64)


def voxelize(cloud: PointCloud, voxel_size: float) -> VoxelGrid:
    """Group points by cell key (`voxel_keys`) with one stable lexicographic
    sort of the integer keys, so each cell's members follow in index order
    and its first member is its representative. Cells come in ascending key
    order."""
    n = len(cloud)
    keys = voxel_keys(cloud, voxel_size)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    starts_cell = np.ones(n, dtype=bool)
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts_cell[1:])
    first = np.flatnonzero(starts_cell)
    m = first.size
    point_cell = np.empty(n, dtype=np.int64)
    point_cell[order] = np.cumsum(starts_cell) - 1

    # majority label per cell, smallest class id on ties: count (cell, label)
    # pairs, then pick per cell by (count desc, label asc)
    labels = cloud.labels.astype(np.int64)
    pair = point_cell * 65536 + labels
    pair_uniq, pair_count = np.unique(pair, return_counts=True)
    cell_of_pair = pair_uniq // 65536
    label_of_pair = pair_uniq % 65536
    # sort so the winning pair of each cell comes first
    by_count = np.lexsort((label_of_pair, -pair_count, cell_of_pair))
    winner = np.searchsorted(cell_of_pair[by_count], np.arange(m))
    rep_label = label_of_pair[by_count][winner].astype(np.uint16)

    return VoxelGrid(order[first], rep_label, point_cell, voxel_size)


def knn(cloud: PointCloud, k: int, rows: np.ndarray | None = None) -> NeighborIndex:
    """Neighbors of every point, or of the points `rows` only, among all
    points of the cloud; `_kernels.knn` refuses k outside (0, N)."""
    idx, dist = _kernels.knn(cloud.positions, k, rows)
    return NeighborIndex(k, idx, dist)


# in voxels: a k-th neighbour nearer than this counts as this near, so
# coincident points get a bounded density (2,500 at a voxel of 0.4)
DUPLICATE_SPACING = 1e-3


def local_density(nn: NeighborIndex, voxel_size: float) -> np.ndarray:
    """Inverse distance to the k-th nearest neighbor per query row of `nn`,
    the distance taken as at least DUPLICATE_SPACING * voxel_size."""
    return 1.0 / np.maximum(nn.distances[:, -1], DUPLICATE_SPACING * voxel_size)


def neighborhoods(positions: np.ndarray, centers: np.ndarray,
                  nbr_indices: np.ndarray) -> np.ndarray:
    """(3, k+1, M) block: entry [c, 0, m] is coordinate c of point
    centers[m], entry [c, j, m] that of its j-th neighbour nbr_indices[m,
    j-1]. Each (coordinate, neighbour) row is contiguous over the M centres,
    so a sum over axis 1 adds one row of M values per neighbour, in
    neighbour order."""
    rows = np.concatenate([centers[None, :], nbr_indices.T])  # (k+1, M)
    return np.take(np.ascontiguousarray(positions.T), rows, axis=1)


def neighbor_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the neighbour axis (axis -2) of a `neighborhoods` block or of
    a (k+1, M) array of per-neighbour values: one add of M values per
    neighbour, in neighbour order, whatever M is. (numpy's own reduction
    turns pairwise when M is 1.)"""
    total = rows[..., 0, :].copy()
    for j in range(1, rows.shape[-2]):
        total += rows[..., j, :]
    return total


def centered(block: np.ndarray) -> np.ndarray:
    """A `neighborhoods` block minus each neighbourhood's mean."""
    return block - (neighbor_sum(block) / block.shape[1])[:, None, :]


def local_curvature(cloud: PointCloud, nn: NeighborIndex) -> np.ndarray:
    """Surface-variation curvature from neighborhood PCA.

    `nn` must hold every point's neighbors (built without query rows), at
    any k >= 1. For each point, eigen-decompose the covariance of {i} union
    N_k(i) and return lam3 / (lam1 + lam2 + lam3) with eigenvalues clamped
    at zero; coincident neighborhoods give 0. Always in [0, 1/3]. Each
    covariance entry sums its k+1 products in neighbour order (module
    docstring)."""
    n = len(cloud)
    dev = centered(neighborhoods(cloud.positions, np.arange(n, dtype=np.int64), nn.indices))
    cov = np.empty((n, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            cov[:, i, j] = cov[:, j, i] = neighbor_sum(dev[i] * dev[j])
    cov /= dev.shape[1]
    eig = np.linalg.eigvalsh(cov)  # ascending
    eig = np.maximum(eig, 0.0)
    total = eig.sum(axis=1)
    return np.where(total > 0, eig[:, 0] / np.where(total > 0, total, 1.0), 0.0)


def sector_split(cloud: PointCloud, num_sectors: int) -> np.ndarray:
    """Azimuthal sector id per point: floor(S * (atan2(y,x)+pi) / 2pi).

    The top edge wraps to sector 0 rather than clamping, so the +pi and -pi
    representations of the negative-x ray land in the same sector.
    """
    ang = np.arctan2(cloud.positions[:, 1], cloud.positions[:, 0]) + np.pi
    sec = np.floor(num_sectors * ang / (2.0 * np.pi)).astype(np.int64)
    return sec % num_sectors
