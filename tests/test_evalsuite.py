"""The one path from a cloud to its features, on degenerate clouds, and IoU
against the counting oracle."""
import numpy as np
import pytest

from shiftseg import evalsuite, oracle, segnet
from shiftseg.pointcloud import IGNORE_LABEL, PointCloud
from shiftseg.rng import Stream


def cloud_of(n):
    positions = np.arange(3 * n, dtype=np.float64).reshape(n, 3) * 0.1
    return PointCloud(positions, np.zeros(n), f"tiny-{n}")


def test_two_points_give_finite_features():
    pc = evalsuite.prepare_cloud(cloud_of(2), voxel_size=0.4, knn_k=16)
    cells = len(pc.rep_labels)
    assert pc.feats.shape == (cells, segnet.FEATURE_DIM)
    assert np.isfinite(pc.feats).all()
    assert len(pc) == 2 and pc.point_cell.shape == (2,)


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_points_are_refused_by_name(n):
    with pytest.raises(ValueError, match=f"cloud 'tiny-{n}' has {n} point"):
        evalsuite.prepare_cloud(cloud_of(n), voxel_size=0.4, knn_k=16)


def test_point_predictions_cover_every_point():
    cloud = cloud_of(40)
    pc = evalsuite.prepare_cloud(cloud, voxel_size=0.4, knn_k=16)
    model = segnet.SegModel(hidden=(4,), class_count=3, seed=1)
    preds = evalsuite.point_predictions(model, pc)
    assert len(preds) == len(pc) == len(cloud)


@pytest.mark.parametrize("n, c, absent", [(300, 6, 2), (50, 1, None), (40, 5, 0), (0, 3, None)])
def test_iou_equals_the_counting_oracle_bit_for_bit(n, c, absent):
    stream = Stream(n, c, "iou")
    labels = stream.integers(n, c + 1)
    labels = np.where(labels == c, IGNORE_LABEL, labels)
    preds = stream.integers(n, c)
    if absent is not None:  # a class neither true nor predicted: NaN
        labels = np.where(labels == absent, IGNORE_LABEL, labels)
        preds = np.where(preds == absent, (absent + 1) % c, preds)
    per_class, _, _, counts = evalsuite.iou(evalsuite.count_matrix(preds, labels, c))
    ref, _, _ = oracle.counting_iou(preds, labels, c)
    assert sorted(ref) == np.flatnonzero(~np.isnan(per_class)).tolist()
    assert all(per_class[cls] == v for cls, v in ref.items())
    kept = labels[labels != IGNORE_LABEL]
    assert counts.tolist() == np.bincount(kept, minlength=c).tolist()
