"""Measurement: per-class IoU and mIoU, confusion matrices, shift-ratio
curves across augmentation presets, high-distortion subregion metrics, and
teacher agreement."""
from __future__ import annotations

import numpy as np

from . import segnet
from .augment import AugmentConfig, PRESET_NAMES, augment_pair
from .pointcloud import IGNORE_LABEL, PointCloud, knn, local_curvature, local_density, voxelize
from .ssr import PriorSnapshot, localize, ssr_ratio

EVAL_KNN_K = 32  # neighborhood size for the high-distortion statistics


def iou(preds: np.ndarray, labels: np.ndarray, class_count: int):
    """Per-class IoU = TP / (TP + FP + FN), ignoring label 255.

    Returns (per_class, miou, miou_all, true_counts). Classes with an empty
    union get NaN and are excluded from miou; miou_all scores them 0.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    keep = labels != IGNORE_LABEL
    preds, labels = preds[keep], labels[keep]
    per_class = np.full(class_count, np.nan)
    counts = np.zeros(class_count, dtype=np.int64)
    for c in range(class_count):
        tp = int(((preds == c) & (labels == c)).sum())
        fp = int(((preds == c) & (labels != c)).sum())
        fn = int(((preds != c) & (labels == c)).sum())
        counts[c] = tp + fn
        union = tp + fp + fn
        if union > 0:
            per_class[c] = tp / union
    present = ~np.isnan(per_class)
    miou = float(per_class[present].mean()) if present.any() else 0.0
    miou_all = float(np.where(present, per_class, 0.0).mean()) if class_count else 0.0
    return per_class, miou, miou_all, counts


def confusion(preds: np.ndarray, labels: np.ndarray, class_count: int) -> np.ndarray:
    """Row-normalized confusion matrix: entry (a, b) is the fraction of
    true-a points predicted b. Rows without true points stay zero."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    keep = labels != IGNORE_LABEL
    preds, labels = preds[keep], labels[keep]
    mat = np.bincount(labels * class_count + preds,
                      minlength=class_count * class_count).reshape(class_count, class_count)
    mat = mat.astype(np.float64)
    rows = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, rows, out=np.zeros_like(mat), where=rows > 0)


def point_predictions(model: segnet.SegModel, cloud: PointCloud, voxel_size: float,
                      knn_k: int) -> np.ndarray:
    """Per-point class ids: each point inherits its voxel representative's
    prediction (the network runs on representatives only)."""
    grid = voxelize(cloud, voxel_size)
    k_eff = min(knn_k, len(cloud) - 1)
    nn = knn(cloud, k_eff)
    feats = segnet.featurize(cloud, grid, nn)
    rep_pred, _ = segnet.predict(model, feats)
    return rep_pred[grid.point_cell]


def evaluate_clouds(model: segnet.SegModel, clouds, class_count: int,
                    voxel_size: float, knn_k: int):
    """Pooled point-level IoU/confusion across clouds."""
    preds = []
    labels = []
    for cloud in clouds:
        preds.append(point_predictions(model, cloud, voxel_size, knn_k))
        labels.append(cloud.labels.astype(np.int64))
    pred = np.concatenate(preds)
    lab = np.concatenate(labels)
    per_class, miou, miou_all, counts = iou(pred, lab, class_count)
    return {
        "per_class_iou": [None if np.isnan(v) else float(v) for v in per_class],
        "miou": miou,
        "miou_all": miou_all,
        "true_counts": counts.tolist(),
        "confusion": confusion(pred, lab, class_count).tolist(),
    }


def level_augment_config(level: str, overrides: dict | None = None) -> AugmentConfig:
    """Augmentation for one named level of the evaluation sweeps.

    A level is defined by its primary magnitudes (jitter std, drop ratio)
    alone, so the sweep isolates them: subsidiary transforms stay off unless
    explicitly overridden."""
    if level not in PRESET_NAMES:
        raise ValueError(f"unknown augmentation level {level!r}")
    if level == "none":
        return AugmentConfig.for_preset("none")
    base = dict(rotation=False, scale_range=(1.0, 1.0), flip_prob=0.0,
                noise_points=0, scanmix=False)
    base.update(overrides or {})
    return AugmentConfig.for_preset(level, **base)


def ssr_curve(model: segnet.SegModel, snapshot: PriorSnapshot, clouds,
              levels, trials: int, seed: int, voxel_size: float, knn_k: int,
              dilation_radius: float, augment_overrides: dict | None = None):
    """Mean shift-region ratio per augmentation level over `trials` draws per
    validation cloud. Returns ({level: mean}, csv_rows[level, seed, ratio])."""
    means = {}
    rows = []
    for level in levels:
        cfg = level_augment_config(level, augment_overrides)
        ratios = []
        for ci, cloud in enumerate(clouds):
            partner = clouds[(ci + 1) % len(clouds)] if cfg.scanmix else None
            for trial in range(trials):
                aug, _ = augment_pair(cloud, cfg, (seed, "curve", level, ci, trial),
                                      partner=partner)
                grid = voxelize(aug, voxel_size)
                k_eff = min(knn_k, len(aug) - 1)
                nn = knn(aug, k_eff)
                feats = segnet.featurize(aug, grid, nn)
                _, probs = segnet.predict(model, feats)
                res = localize(snapshot, probs, aug.positions[grid.rep_index],
                               grid.rep_label, dilation_radius)
                ratios.append(ssr_ratio(res.masks))
        mean = float(np.mean(ratios)) if ratios else 0.0
        means[level] = mean
        rows.append((level, seed, mean))
    return means, rows


def high_distortion_eval(preds: np.ndarray, labels: np.ndarray, cloud: PointCloud,
                         nn=None, class_count: int | None = None,
                         density_quantile: float = 10.0,
                         curvature_quantile: float = 90.0):
    """Metrics inside the hard subregion: points with density at or below the
    10th percentile or curvature at or above the 90th (by convention; the
    realized mask fraction is reported alongside)."""
    if nn is None:
        nn = knn(cloud, min(EVAL_KNN_K, len(cloud) - 1))
    if class_count is None:
        class_count = int(labels[labels != IGNORE_LABEL].max()) + 1
    dens = local_density(cloud, nn)
    curv = local_curvature(cloud, nn)
    tau_d = float(np.percentile(dens, density_quantile))
    tau_c = float(np.percentile(curv, curvature_quantile))
    mask = (dens <= tau_d) | (curv >= tau_c)
    per_class, miou, miou_all, _ = iou(np.asarray(preds)[mask], np.asarray(labels)[mask],
                                       class_count)
    return {
        "per_class_iou": [None if np.isnan(v) else float(v) for v in per_class],
        "miou": miou,
        "miou_all": miou_all,
        "mask_fraction": float(mask.mean()),
        "tau_density": tau_d,
        "tau_curvature": tau_c,
    }


def ssr_agreement(student_preds: np.ndarray, teacher_preds: np.ndarray,
                  mask: np.ndarray) -> float | None:
    """Fraction of masked points where student and teacher argmax agree;
    an empty mask reports as absent (None), never as 1."""
    student_preds = np.asarray(student_preds)
    teacher_preds = np.asarray(teacher_preds)
    mask = np.asarray(mask, dtype=bool)
    if student_preds.shape != teacher_preds.shape or mask.shape != student_preds.shape:
        raise ValueError("predictions and mask must be aligned")
    if not mask.any():
        return None
    return float((student_preds[mask] == teacher_preds[mask]).mean())
