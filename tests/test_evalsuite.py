"""The one path from a cloud to its features, on degenerate clouds."""
import numpy as np
import pytest

from shiftseg import evalsuite, segnet
from shiftseg.pointcloud import PointCloud


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
