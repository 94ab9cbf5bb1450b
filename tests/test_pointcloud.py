import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as R
from shiftseg import _kernels
from shiftseg.pointcloud import (IGNORE_LABEL, PointCloud, knn, local_curvature,
                                 local_density, sector_split, voxel_keys, voxelize)
from shiftseg.rng import Stream
from shiftseg.segnet import featurize


def make_cloud(seed, n=300, scale=10.0):
    s = Stream(seed, "pc-test")
    pos = s.uniform(3 * n).reshape(n, 3) * scale
    labels = s.integers(n, 5).astype(np.uint16)
    return PointCloud(pos, labels, f"test-{seed}")


def test_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)), np.zeros(3, np.uint16), "x")
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(2, np.uint16), "x")
    bad = np.zeros((3, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        PointCloud(bad, np.zeros(3, np.uint16), "x")


# ---------------------------------------------------------------------------
# voxelize


def cell_keys(cloud, grid, voxel_size):
    """Each cell's key, read at its representative."""
    return voxel_keys(cloud, voxel_size)[grid.rep_index]


def test_voxelize_same_cell():
    cloud = PointCloud(np.array([[0.2, 0.2, 0.2], [0.8, 0.9, 0.1]]),
                       np.array([1, 2], np.uint16), "two")
    grid = voxelize(cloud, 1.0)
    assert grid.rep_index.size == 1
    assert cell_keys(cloud, grid, 1.0).tolist() == [[0, 0, 0]]
    assert grid.point_cell.tolist() == [0, 0]


def test_voxelize_two_cells():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
                       np.array([0, 0], np.uint16), "two")
    grid = voxelize(cloud, 1.0)
    assert grid.rep_index.size == 2


def test_voxelize_matches_bruteforce_grouping():
    cloud = make_cloud(3, n=500)
    grid = voxelize(cloud, 0.9)
    ref = R.brute_voxel_cells(cloud.positions, 0.9)
    keys = [tuple(int(v) for v in key) for key in cell_keys(cloud, grid, 0.9)]
    assert set(keys) == set(ref)
    for c, key in enumerate(keys):
        assert np.flatnonzero(grid.point_cell == c).tolist() == sorted(ref[key])
        assert grid.rep_index[c] == min(ref[key])


def test_voxelize_partition_covers_every_point():
    cloud = make_cloud(4, n=400)
    grid = voxelize(cloud, 1.3)
    assert grid.point_cell.shape == (len(cloud),)
    # every point sits in exactly one cell, and every cell holds a point
    assert np.all(np.bincount(grid.point_cell, minlength=grid.rep_index.size) > 0)
    assert grid.point_cell.max() == grid.rep_index.size - 1


def test_voxel_majority_label_smallest_id_tiebreak():
    pos = np.zeros((4, 3))
    cloud = PointCloud(pos, np.array([3, 3, 1, 1], np.uint16), "tie")
    grid = voxelize(cloud, 1.0)
    assert grid.rep_label[0] == 1
    cloud2 = PointCloud(pos, np.array([3, 3, 3, 1], np.uint16), "maj")
    assert voxelize(cloud2, 1.0).rep_label[0] == 3


# cell keys beyond int64 once wrapped to -2^63, so the first two points shared
# a cell
BEYOND_INT64 = np.array([[1e20, 0.0, 0.0], [-1e20, 0.0, 0.0], [3e20, 5.0, 5.0]])


def test_voxelize_refuses_a_key_beyond_int64():
    cloud = PointCloud(BEYOND_INT64, np.zeros(3, np.uint16), "far")
    with pytest.raises(ValueError, match=r"cloud 'far' has a coordinate beyond 2\^63 voxels"):
        voxelize(cloud, 0.35)
    assert voxelize(PointCloud(BEYOND_INT64 * 1e-3, np.zeros(3, np.uint16), "near"),
                    0.35).rep_index.size == 3


def test_voxelize_empty_and_bad_size():
    empty = PointCloud(np.zeros((0, 3)), np.zeros(0, np.uint16), "empty")
    assert voxelize(empty, 0.5).rep_index.size == 0
    with pytest.raises(ValueError):
        voxelize(empty, 0.0)


# ---------------------------------------------------------------------------
# knn


def test_knn_collinear():
    cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], dtype=float),
                       np.zeros(3, np.uint16), "line")
    nn = knn(cloud, 1)
    assert nn.indices[:, 0].tolist() == [1, 0, 1]


def test_knn_square_symmetry():
    pos = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    nn = knn(PointCloud(pos, np.zeros(4, np.uint16), "sq"), 2)
    for i, nbrs in enumerate(nn.indices):
        # edge-adjacent corners, never the diagonal
        assert (i + 2) % 4 not in nbrs.tolist()


def test_knn_matches_bruteforce():
    cloud = make_cloud(5, n=300)
    nn = knn(cloud, 8)
    ref_idx, ref_dist = R.brute_knn(cloud.positions, 8)
    assert np.array_equal(nn.indices, ref_idx)
    assert np.max(np.abs(nn.distances - ref_dist)) < 1e-9


def test_knn_distances_sorted_and_consistent():
    cloud = make_cloud(6, n=200)
    nn = knn(cloud, 5)
    assert np.all(np.diff(nn.distances, axis=1) >= 0)
    recomputed = np.linalg.norm(
        cloud.positions[:, None, :] - cloud.positions[nn.indices], axis=2)
    assert np.max(np.abs(recomputed - nn.distances)) < 1e-9


def test_knn_rejects_k_ge_n():
    cloud = make_cloud(7, n=10)
    with pytest.raises(ValueError):
        knn(cloud, 10)


def test_knn_permutation_invariance():
    cloud = make_cloud(8, n=150)
    nn = knn(cloud, 4)
    perm = Stream(9).permutation(len(cloud))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(cloud))
    shuffled = PointCloud(cloud.positions[perm], cloud.labels[perm], "shuffled")
    nn2 = knn(shuffled, 4)
    for i in range(len(cloud)):
        orig = set(nn.indices[i].tolist())
        mapped = set(int(perm[j]) for j in nn2.indices[inv[i]])
        assert orig == mapped


# ---------------------------------------------------------------------------
# density and curvature


def test_density_pairs():
    pos = np.array([[0, 0, 0], [2, 0, 0]], dtype=float)
    cloud = PointCloud(pos, np.zeros(2, np.uint16), "pair")
    nn = knn(cloud, 1)
    assert np.allclose(local_density(nn, 0.4), [0.5, 0.5], atol=0)


def test_density_duplicate_cap():
    pos = np.zeros((3, 3))
    pos[2] = [5, 5, 5]
    cloud = PointCloud(pos, np.zeros(3, np.uint16), "dup")
    nn = knn(cloud, 1)
    # a duplicate counts as DUPLICATE_SPACING voxels away, not 0
    dens = local_density(nn, 0.4)
    assert dens[0] == dens[1] == 1.0 / (1e-3 * 0.4) and dens[2] < 1.0


def test_density_matches_bruteforce_knn():
    cloud = make_cloud(10, n=250)
    nn = knn(cloud, 6)
    _, ref_dist = R.brute_knn(cloud.positions, 6)
    assert np.allclose(local_density(nn, 0.4), 1.0 / ref_dist[:, -1], rtol=1e-12)


def test_curvature_line_and_plane():
    t = np.linspace(0, 5, 40)
    line = np.stack([t, 2 * t, -t], axis=1)
    cloud = PointCloud(line, np.zeros(40, np.uint16), "line")
    assert np.max(local_curvature(cloud, knn(cloud, 6))) < 1e-12

    s = Stream(11)
    plane = np.stack([s.uniform(60) * 4, s.uniform(60) * 4, np.zeros(60)], axis=1)
    cloudp = PointCloud(plane, np.zeros(60, np.uint16), "plane")
    assert np.max(local_curvature(cloudp, knn(cloudp, 8))) < 1e-9


def test_curvature_sphere_patch_matches_reference_eigensolver():
    s = Stream(12)
    n = 200
    theta = s.uniform(n) * 0.8
    phi = s.uniform(n) * 0.8
    pts = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                    np.cos(theta)], axis=1)
    cloud = PointCloud(pts, np.zeros(n, np.uint16), "sphere")
    nn = knn(cloud, 12)
    curv = local_curvature(cloud, nn)
    for i in range(0, n, 25):
        hood = np.concatenate([[i], nn.indices[i]])
        centered = pts[hood] - pts[hood].mean(axis=0)
        cov = centered.T @ centered / hood.shape[0]
        eig = R.eigvals_sym3_reference(cov)
        expect = eig[0] / eig.sum() if eig.sum() > 0 else 0.0
        assert abs(curv[i] - expect) < 1e-8


def test_curvature_bounds():
    cloud = make_cloud(13, n=300)
    curv = local_curvature(cloud, knn(cloud, 8))
    assert np.all(curv >= 0.0) and np.all(curv <= 1.0 / 3.0 + 1e-12)


def test_curvature_of_two_and_three_point_neighbourhoods():
    # k = 1: two points span a line; k = 2: three points span a plane
    pair = PointCloud(np.array([[0, 0, 0], [1, 2, 3]], dtype=float), np.zeros(2, np.uint16), "p")
    assert local_curvature(pair, knn(pair, 1)).tolist() == [0.0, 0.0]
    tri = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                     np.zeros(3, np.uint16), "t")
    assert np.max(local_curvature(tri, knn(tri, 2))) < 1e-12
    cloud = make_cloud(22, n=40)
    for k in (1, 2):
        curv = local_curvature(cloud, knn(cloud, k))
        assert np.all(curv >= 0.0) and np.all(curv <= 1.0 / 3.0 + 1e-12)


# ---------------------------------------------------------------------------
# the kernels against the formulas they replaced, byte for byte
#
# These are the (M, k+1, 3) formulas the neighbour-row kernels replaced:
# `np.unique(axis=0)` with `np.minimum.at` for the representatives, and
# neighbourhood gathers summed over their neighbour axis, the trace averaged
# pairwise over each contiguous (M, k+1) row, and the covariance by `einsum`.


def unique_voxelize(cloud, voxel_size):
    n = len(cloud)
    keys = np.floor(cloud.positions / voxel_size).astype(np.int64)
    uniq, point_cell = np.unique(keys, axis=0, return_inverse=True)
    point_cell = point_cell.reshape(-1).astype(np.int64)
    m = uniq.shape[0]
    rep_index = np.full(m, n, dtype=np.int64)
    np.minimum.at(rep_index, point_cell, np.arange(n, dtype=np.int64))
    pair = point_cell * 65536 + cloud.labels.astype(np.int64)
    pair_uniq, pair_count = np.unique(pair, return_counts=True)
    cell_of_pair = pair_uniq // 65536
    label_of_pair = pair_uniq % 65536
    order = np.lexsort((label_of_pair, -pair_count, cell_of_pair))
    first = np.searchsorted(cell_of_pair[order], np.arange(m))
    rep_label = label_of_pair[order][first].astype(np.uint16)
    return uniq, rep_index, rep_label, point_cell


def gather_featurize(cloud, rep_index, nn, voxel_size):
    pos = cloud.positions
    rep_pos = pos[rep_index]
    nbr_pos = pos[nn.indices]  # (M, k, 3)
    mean_off = nbr_pos.mean(axis=1) - rep_pos
    hood = np.concatenate([rep_pos[:, None, :], nbr_pos], axis=1)
    centered = hood - hood.mean(axis=1, keepdims=True)
    trace = (centered ** 2).sum(axis=2).mean(axis=1)
    dens = local_density(nn, voxel_size)
    return np.concatenate([rep_pos, mean_off, trace[:, None], dens[:, None]], axis=1)


def einsum_curvature(cloud, nn):
    n = len(cloud)
    hood = np.concatenate([np.arange(n, dtype=np.int64)[:, None], nn.indices], axis=1)
    pts = cloud.positions[hood]  # (N, k+1, 3)
    centered = pts - pts.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / hood.shape[1]
    eig = np.maximum(np.linalg.eigvalsh(cov), 0.0)
    total = eig.sum(axis=1)
    return np.where(total > 0, eig[:, 0] / np.where(total > 0, total, 1.0), 0.0)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def clouds(draw, min_points=2):
    """Uniform clouds, or lattice clouds full of duplicated points, at
    coordinate magnitudes up to 1e9, offset anywhere in [-1e9, 1e9]; labels
    over 4 classes, or all ignored."""
    n = draw(st.integers(min_points, min_points + 60))
    s = Stream(draw(st.integers(0, 2**31)), "kernel-prop")
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e9]))
    if draw(st.booleans()):
        pos = (s.integers(3 * n, 3) - 1).reshape(n, 3) * scale  # 27 sites
    else:
        pos = (s.uniform(3 * n).reshape(n, 3) * 2.0 - 1.0) * scale
    pos = pos + draw(st.floats(-1e9, 1e9))
    if draw(st.booleans()):
        labels = np.full(n, IGNORE_LABEL, np.uint16)
    else:
        labels = s.integers(n, 4).astype(np.uint16)
    return PointCloud(pos, labels, "prop")


@settings(max_examples=150, deadline=None)
@given(clouds(min_points=0), st.floats(0.05, 3.0))
def test_voxelize_matches_the_unique_formula(cloud, voxel_size):
    grid = voxelize(cloud, voxel_size)
    ref = unique_voxelize(cloud, voxel_size)
    got = (cell_keys(cloud, grid, voxel_size), grid.rep_index, grid.rep_label, grid.point_cell)
    for name, a, want in zip(("cell_keys", "rep_index", "rep_label", "point_cell"), got, ref):
        assert same_bytes(a, want), name


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 40), st.floats(0.05, 3.0))
def test_featurize_matches_the_gather_formula(data, k, voxel_size):
    cloud = data.draw(clouds(min_points=k + 1))
    grid = voxelize(cloud, voxel_size)
    nn = knn(cloud, k, grid.rep_index)
    feats = featurize(cloud, grid, nn)
    assert feats.flags.c_contiguous
    assert same_bytes(feats, gather_featurize(cloud, grid.rep_index, nn, voxel_size))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 40))
def test_curvature_matches_the_einsum_formula(data, k):
    cloud = data.draw(clouds(min_points=k + 1))
    nn = knn(cloud, k)
    assert same_bytes(local_curvature(cloud, nn), einsum_curvature(cloud, nn))


# ---------------------------------------------------------------------------
# dilation


def test_dilate_radius_zero_identity():
    cloud = make_cloud(14, n=100)
    mask = Stream(15).uniform(100) < 0.2
    assert np.array_equal(_kernels.dilate(cloud.positions, mask, 0.0), mask)


def test_dilate_fills_cloud():
    cloud = make_cloud(16, n=80)
    mask = np.zeros(80, bool)
    mask[3] = True
    out = _kernels.dilate(cloud.positions, mask, 1000.0)
    assert out.all()


def test_dilate_matches_bruteforce():
    cloud = make_cloud(17, n=250)
    mask = Stream(18).uniform(250) < 0.1
    for radius in (0.5, 1.7):
        assert np.array_equal(_kernels.dilate(cloud.positions, mask, radius),
                              R.brute_dilate(cloud.positions, mask, radius))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000), st.floats(0.1, 3.0))
def test_dilate_monotone_and_double_superset(seed, radius):
    cloud = make_cloud(19, n=120)
    m1 = Stream(seed, "m1").uniform(120) < 0.1
    m2 = m1 | (Stream(seed, "m2").uniform(120) < 0.1)
    d1 = _kernels.dilate(cloud.positions, m1, radius)
    d2 = _kernels.dilate(cloud.positions, m2, radius)
    assert np.all(d1 <= d2)  # monotone in the input mask
    twice = _kernels.dilate(cloud.positions, d1, radius)
    assert np.all(d1 <= twice)  # dilating again only grows the set


# ---------------------------------------------------------------------------
# sector split


def test_sector_split_quadrants():
    pos = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    sec = sector_split(pos, 4)
    assert sec[0] == 2  # atan2 = 0 maps to mid-range
    assert len(set(sec.tolist())) == 4
    # +pi and -pi describe the same ray and must share a sector
    assert sec[2] == 0


def test_sector_split_matches_direct_binning():
    cloud = make_cloud(20, n=400)
    for s in (2, 5, 8):
        sec = sector_split(cloud.positions, s)
        ang = np.arctan2(cloud.positions[:, 1], cloud.positions[:, 0]) + np.pi
        ref = np.floor(s * ang / (2 * np.pi)).astype(np.int64) % s
        assert np.array_equal(sec, ref)
        assert sec.min() >= 0 and sec.max() < s
