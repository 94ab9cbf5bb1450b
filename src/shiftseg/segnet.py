"""Per-voxel segmentation network: local-statistics features, an MLP over
voxel representatives, masked cross-entropy, and prediction."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .pointcloud import (IGNORE_LABEL, NeighborIndex, PointCloud, VoxelGrid, centered,
                         local_density, neighbor_sum, neighborhoods)
from .rng import Stream

FEATURE_DIM = 8
# fixed input normalization so learning rates transfer across scene scales:
# xyz, mean neighbor offset, covariance trace, local density
_INPUT_SCALE = np.array([0.125, 0.125, 0.25, 4.0, 4.0, 4.0, 4.0, 0.25])


def featurize(cloud: PointCloud, grid: VoxelGrid, nn: NeighborIndex) -> np.ndarray:
    """One row per voxel representative: raw xyz, mean neighbor offset,
    neighborhood covariance trace, and local density (bounded at the grid's
    voxel size, `pointcloud.local_density`). `nn` holds the
    representatives' neighbors, row i those of grid.rep_index[i]
    (`pointcloud.knn` with rows=grid.rep_index).

    The means sum the neighbours in order, one row of representatives at a
    time (`pointcloud` docstring); each point's squared offset is
    (x*x + y*y) + z*z, and the trace averages those over a contiguous
    (M, k+1) array, so the features keep the bits of the (M, k+1, 3)
    formula."""
    hood = neighborhoods(cloud.positions, grid.rep_index, nn.indices)  # (3, k+1, M)
    rep_pos = hood[:, 0]
    mean_off = neighbor_sum(hood[:, 1:]) / nn.k - rep_pos
    dev = centered(hood)
    sq = dev[0] * dev[0]
    sq += dev[1] * dev[1]
    sq += dev[2] * dev[2]
    trace = np.ascontiguousarray(sq.T).mean(axis=1)
    dens = local_density(cloud, nn, grid.voxel_size)
    return np.ascontiguousarray(np.concatenate([rep_pos, mean_off, trace[None], dens[None]]).T)


class SegModel:
    """MLP over per-representative features with leaky-relu hidden layers."""

    def __init__(self, hidden: tuple[int, ...], class_count: int, seed: int):
        self.params = T.mlp_params("seg", [FEATURE_DIM, *hidden, class_count],
                                   Stream(seed, "seg-init"))

    def forward(self, feats) -> T.Tensor:
        """Unnormalized logits, one row per feature row, in the features'
        dtype (float32 from `evalsuite.prepare_cloud`)."""
        feats = T.float_array(feats)
        if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
            raise T.ShapeError(f"forward: features must be (N, {FEATURE_DIM}), got {feats.shape}")
        # the scales are powers of two, exact in either dtype
        return T.mlp(feats * _INPUT_SCALE.astype(feats.dtype), self.params, "seg")


def ce_loss(logits: T.Tensor, labels: np.ndarray, mask: np.ndarray | None = None) -> T.Tensor:
    """Mean cross-entropy over rows with label != 255 (and mask true).

    One `T.cross_entropy` node. No qualifying rows gives an exact constant 0
    with no gradient, so heavily augmented batches with an empty consistency
    mask still train. The loss takes the logits' dtype; its mean over rows
    accumulates in float64.
    """
    labels = np.asarray(labels)
    valid = labels != IGNORE_LABEL
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != valid.shape:
            raise T.ShapeError(f"ce_loss: mask shape {mask.shape} != labels {valid.shape}")
        valid = valid & mask
    if not valid.any():
        return T.Tensor(np.zeros((), dtype=logits.data.dtype))
    return T.cross_entropy(logits, labels[valid], valid)


def predict(model: SegModel, feats) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class per row (lowest id on exact ties) and softmax probabilities."""
    logits = model.forward(feats)
    probs = T.softmax(T.stop_gradient(logits)).data
    return np.argmax(probs, axis=1).astype(np.int64), probs
