"""The one path from a cloud to its features, on degenerate clouds and
through a larger kNN's prefix; the level sweep's `none` level, served by its
clean pass, against the general level pass; and IoU against the counting
oracle."""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftseg import evalsuite, oracle, segnet, trainer, verify
from shiftseg.pointcloud import IGNORE_LABEL, PointCloud, knn
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


@st.composite
def small_clouds(draw, class_count=4):
    """2-300 points on a 0.1 grid, the first `depth` of them copied onto one
    place (up to 40 deep, past every knn_k here and EVAL_KNN_K), labeled
    with mixed classes, a single class, or ignore only."""
    n = draw(st.one_of(st.integers(2, 8), st.integers(9, 300)), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    span = draw(st.sampled_from([1, 4, 40]), label="span")
    positions = rng.integers(0, span + 1, (n, 3)) * 0.1
    positions[:draw(st.integers(0, 40), label="depth")] = positions[0]
    kind = draw(st.sampled_from(["mixed", "one class", "ignore"]), label="labels")
    labels = {"mixed": rng.integers(0, class_count + 1, n),
              "one class": np.full(n, class_count - 1),
              "ignore": np.full(n, IGNORE_LABEL)}[kind]
    return PointCloud(positions, np.where(labels == class_count, IGNORE_LABEL, labels),
                      f"small-{n}")


def coincident(n):
    return PointCloud(np.zeros((n, 3)), np.arange(n) % 2, f"coincident-{n}")


@settings(max_examples=60, deadline=None)
@given(cloud=small_clouds(), knn_k=st.sampled_from([1, 5, 16, 32]))
@example(cloud=cloud_of(3), knn_k=16)  # N - 1 < knn_k
@example(cloud=coincident(50), knn_k=16)
def test_features_through_a_larger_knn_s_prefix_equal_direct_ones(cloud, knn_k):
    # the level sweep's clean pass prepares a cloud through the first knn_k
    # columns of its one kNN at max(knn_k, EVAL_KNN_K); training, the
    # validation report and every draw query at knn_k itself
    nn = knn(cloud, min(max(knn_k, evalsuite.EVAL_KNN_K), len(cloud) - 1))
    through = evalsuite.prepare_cloud(cloud, 0.35, knn_k, nn)
    direct = evalsuite.prepare_cloud(cloud, 0.35, knn_k)
    for name in ("feats", "rep_labels", "rep_coords", "point_cell"):
        a, b = getattr(through, name), getattr(direct, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def full_state():
    """A tiny `full` state after a few steps, so its prior has live codes."""
    return verify.tiny_step(verify.tiny_config(t=verify.GRAD_T))[0]


@pytest.mark.parametrize("with_prior", [False, True])
@settings(max_examples=30, deadline=None)
@given(clouds=st.lists(small_clouds(), min_size=1, max_size=2), trials=st.integers(1, 3))
def test_the_sweep_s_none_level_is_the_level_pass_s_none_report(full_state, with_prior,
                                                               clouds, trials):
    # the sweep serves `none` from its one clean pass, each cloud's draw
    # counted `trials` times; evaluate_level draws, prepares, predicts and
    # localizes all `trials` of them, and both must write the same bytes
    cfg = full_state.cfg
    snapshot = trainer.prior_snapshot(full_state) if with_prior else None
    curve, preds = evalsuite.ssr_curve(full_state.model, snapshot, clouds, ["none"], trials, cfg)
    report = {k: v for k, v in curve["none"].items() if not k.startswith("high_distortion_")}
    reference = evalsuite.evaluate_level(full_state.model, snapshot, clouds, "none", trials, cfg)
    assert json.dumps(report) == json.dumps(reference)
    assert (report["ssr_ratio"] is None) == (snapshot is None)
    assert [len(p) for p in preds] == [len(c) for c in clouds]
