"""Measurement and the one path from a cloud to its network features.

`prepare_cloud` (voxelize -> kNN -> featurize) serves training and every
evaluation. An evaluation level is an augmentation preset's jitter and drop
alone, its subsidiary transforms off. `evaluate_level` is a level's one pass:
each draw, keyed on EVAL_DRAW_SEED whatever the run's seed, is prepared,
predicted and localized once. `ssr_curve`, the level sweep of `eval` and of
the final report, runs it per level beside one clean pass per cloud, which
also serves the `none` level and the final report's clean scores. Also
here: per-class IoU and mIoU and confusion matrices."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import segnet
from .augment import AugmentConfig, augment_pair
from .pointcloud import (IGNORE_LABEL, NeighborIndex, PointCloud, knn, local_curvature,
                         local_density, voxelize)
from .ssr import PriorSnapshot, localize, ssr_ratio

EVAL_DRAW_SEED = 1000  # every evaluation's draw key, whatever the run's seed
EVAL_KNN_K = 32  # neighborhood size for the high-distortion statistics
# the high-distortion subregion: density at or below this percentile, or
# curvature at or above that one
DENSITY_QUANTILE = 10.0
CURVATURE_QUANTILE = 90.0


@dataclass
class PreparedCloud:
    """A cloud as the network sees it: one feature row per voxel representative."""

    feats: np.ndarray  # (M, 8) float32
    rep_labels: np.ndarray  # (M,) int64 incl. 255
    rep_coords: np.ndarray  # (M, 3)
    point_cell: np.ndarray  # (N,) representative row per point

    def __len__(self) -> int:  # shiftbench/bench_trace.py's coverage check reads it
        return len(self.point_cell)


def _neighbor_count(cloud: PointCloud, k: int) -> int:
    """min(k, N-1); a cloud of fewer than 2 points has no neighborhoods and
    is refused."""
    n = len(cloud)
    if n < 2:
        raise ValueError(f"cloud {cloud.cloud_id!r} has {n} point(s); "
                         "preparing its features needs at least 2")
    return min(k, n - 1)


def prepare_cloud(cloud: PointCloud, voxel_size: float, knn_k: int,
                  nn: NeighborIndex | None = None) -> PreparedCloud:
    """Voxelize, find the min(knn_k, N-1) nearest neighbors of each voxel
    representative among all points, and featurize the representatives.
    kNN is queried at the representatives only, since the features read no
    other row; given `nn`, every point's neighbors at a k at least as large,
    the representatives' rows are read from its first columns instead.

    The geometry runs in float64; the features are cast to float32 once, at
    the end, so the network and every loss computes in float32."""
    k = _neighbor_count(cloud, knn_k)
    grid = voxelize(cloud, voxel_size)
    rep_nn = knn(cloud, k, grid.rep_index) if nn is None else nn.prefix(k, grid.rep_index)
    feats = segnet.featurize(cloud, grid, rep_nn)
    return PreparedCloud(feats.astype(np.float32), grid.rep_label.astype(np.int64),
                         cloud.positions[grid.rep_index], grid.point_cell)


def count_matrix(preds: np.ndarray, labels: np.ndarray, class_count: int) -> np.ndarray:
    """(C, C) integer counts: entry (a, b) is the number of true-a points
    predicted b; label 255 is ignored. `iou` and `confusion` read it."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    keep = labels != IGNORE_LABEL
    return np.bincount(labels[keep] * class_count + preds[keep],
                       minlength=class_count * class_count).reshape(class_count, class_count)


def iou(mat: np.ndarray):
    """Per-class IoU = TP / (TP + FP + FN) of the count matrix `mat`.

    Returns (per_class, miou, miou_all, true_counts). Classes with an empty
    union get NaN and are excluded from miou; miou_all scores them 0.
    """
    class_count = mat.shape[0]
    tp = np.diagonal(mat)
    counts = mat.sum(axis=1)  # TP + FN
    union = counts + mat.sum(axis=0) - tp
    per_class = np.full(class_count, np.nan)
    np.divide(tp, union, out=per_class, where=union > 0)
    present = ~np.isnan(per_class)
    miou = float(per_class[present].mean()) if present.any() else 0.0
    miou_all = float(np.where(present, per_class, 0.0).mean()) if class_count else 0.0
    return per_class, miou, miou_all, counts


def confusion(mat: np.ndarray) -> np.ndarray:
    """Row-normalized confusion matrix of the count matrix `mat`: entry (a,
    b) is the fraction of true-a points predicted b. Rows without true
    points stay zero."""
    mat = mat.astype(np.float64)
    rows = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, rows, out=np.zeros_like(mat), where=rows > 0)


def _scores(mat: np.ndarray) -> dict:
    per_class, miou, miou_all, counts = iou(mat)
    return {"per_class_iou": [None if np.isnan(v) else float(v) for v in per_class],
            "miou": miou, "miou_all": miou_all, "true_counts": counts.tolist()}


def point_predictions(model: segnet.SegModel, pc: PreparedCloud) -> np.ndarray:
    """Per-point class ids: each point inherits its voxel representative's
    prediction (the network runs on representatives only)."""
    rep_pred, _ = segnet.predict(model, pc.feats)
    return rep_pred[pc.point_cell]


def evaluate_clouds(preds: list[np.ndarray], clouds, class_count: int) -> dict:
    """Point-level IoU/confusion of per-cloud predictions, pooled across clouds."""
    mat = count_matrix(np.concatenate(preds),
                       np.concatenate([c.labels.astype(np.int64) for c in clouds]), class_count)
    return {**_scores(mat), "confusion": confusion(mat).tolist()}


def _predict(model: segnet.SegModel, snapshot: PriorSnapshot | None, cloud: PointCloud, cfg,
             nn: NeighborIndex | None = None) -> tuple:
    """`cloud` prepared (through `nn` if given) and predicted once: its point
    class ids, its labels and, with a prior, its localized masks (else None)."""
    pc = prepare_cloud(cloud, cfg.voxel_size, cfg.knn_k, nn)
    rep_pred, probs = segnet.predict(model, pc.feats)
    masks = None if snapshot is None else localize(snapshot, probs, pc.rep_coords,
                                                   pc.rep_labels, cfg.dilation_radius).masks
    return rep_pred[pc.point_cell], cloud.labels.astype(np.int64), masks


def _level_report(level: str, draws: list[tuple], class_count: int) -> dict:
    """IoU scores of the draws' pooled `_predict` results and `ssr.ssr_ratio`
    of all their masks, rows pooled as in a training step (else None)."""
    preds, labels, masks = zip(*draws)
    return {"level": level,
            **_scores(count_matrix(np.concatenate(preds), np.concatenate(labels), class_count)),
            "ssr_ratio": None if masks[0] is None else ssr_ratio(masks)}


def evaluate_level(model: segnet.SegModel, snapshot: PriorSnapshot | None, clouds,
                   level: str, trials: int, cfg) -> dict:
    """The evaluation pass of one level: `trials` draws per cloud, keyed
    (EVAL_DRAW_SEED, "eval", level, cloud index, trial) so every model is
    scored on the same draws, each prepared, predicted and (with a prior
    snapshot) localized once."""
    aug_cfg = AugmentConfig(level, subsidiary=False)
    draws = (augment_pair(cloud, aug_cfg, (EVAL_DRAW_SEED, "eval", level, ci, t))[0]
             for ci, cloud in enumerate(clouds) for t in range(trials))
    return _level_report(level, [_predict(model, snapshot, aug, cfg) for aug in draws],
                         cfg.class_count)


def ssr_curve(model: segnet.SegModel, snapshot: PriorSnapshot | None, clouds, levels,
              trials: int, cfg) -> tuple[dict[str, dict], list[np.ndarray]]:
    """`evaluate_level`'s report for each level but `none`, with the clean
    clouds' high-distortion mask fraction and mIoU averaged over them; and
    the clean clouds' point predictions (the old name stays while shiftbench/
    traces it). A clean cloud's one kNN, at min(max(knn_k, EVAL_KNN_K), N-1),
    serves its features, density and curvature, and its one pass, localized
    if `none` is a level, is each of that level's `trials` identity draws."""
    clean, hds = [], []
    for cloud in clouds:
        nn = knn(cloud, _neighbor_count(cloud, max(cfg.knn_k, EVAL_KNN_K)))
        clean.append(_predict(model, snapshot if "none" in levels else None, cloud, cfg, nn))
        hds.append(high_distortion_eval(*clean[-1][:2], cloud, nn, cfg.class_count,
                                        cfg.voxel_size))
    hd = {f"high_distortion_{key}": float(np.mean([h[key] for h in hds]))
          for key in ("mask_fraction", "miou")}
    none = [draw for draw in clean for _ in range(trials)]
    return {level: {**(_level_report(level, none, cfg.class_count) if level == "none" else
                       evaluate_level(model, snapshot, clouds, level, trials, cfg)), **hd}
            for level in levels}, [pred for pred, _, _ in clean]


def high_distortion_eval(preds: np.ndarray, labels: np.ndarray, cloud: PointCloud,
                         nn: NeighborIndex, class_count: int, voxel_size: float):
    """mIoU inside the hard subregion, points with density at or below the
    10th percentile or curvature at or above the 90th (by convention), and
    the fraction of points that region realizes. Density and curvature
    read the first min(EVAL_KNN_K, N-1) columns of `nn`, every point's
    neighbors (`pointcloud.knn` without query rows)."""
    nn = nn.prefix(min(EVAL_KNN_K, len(cloud) - 1))
    dens = local_density(nn, voxel_size)
    curv = local_curvature(cloud, nn)
    mask = ((dens <= np.percentile(dens, DENSITY_QUANTILE))
            | (curv >= np.percentile(curv, CURVATURE_QUANTILE)))
    _, miou, _, _ = iou(count_matrix(np.asarray(preds)[mask], np.asarray(labels)[mask],
                                     class_count))
    return {"miou": miou, "mask_fraction": float(mask.mean())}
