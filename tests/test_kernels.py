"""The numpy kernels against the brute-force oracles: two independent paths
to the same neighbour lists and dilated masks."""
import functools

import numpy as np
import pytest

from shiftseg import _kernels, oracle
from shiftseg.rng import Stream


def random_cloud(seed, n=300, planar=False):
    s = Stream(seed, "kernel-test")
    pts = s.uniform(3 * n).reshape(n, 3) * 12.0
    if planar:
        pts[:, 2] = 0.0
    return pts


@functools.cache
def brute_knn32(planar):
    # (distance, index) order is total, so the k=32 lists hold every smaller k
    return oracle.brute_knn(random_cloud(3, planar=planar), 32)


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("k", [1, 8, 32])
def test_knn_paths_bitwise_identical(planar, k):
    idx, dist = _kernels.knn(random_cloud(3, planar=planar), k)
    ref_idx, ref_dist = brute_knn32(planar)
    assert np.array_equal(idx, ref_idx[:, :k])
    # the oracle sums squares with fsum, the kernel left to right
    assert np.allclose(dist, ref_dist[:, :k], rtol=1e-14, atol=0)


def test_knn_with_duplicate_points():
    pts = random_cloud(5, n=100)
    pts[40] = pts[10]
    pts[41] = pts[10]
    idx, dist = _kernels.knn(pts, 4)
    ref_idx, _ = oracle.brute_knn(pts, 4)
    assert np.array_equal(idx, ref_idx)
    assert dist[10, 0] == 0.0 and idx[10, 0] == 40  # lower index wins the tie
    assert dist[40, 0] == 0.0 and idx[40, 0] == 10


def test_knn_lattice_exact_ties():
    # integer coordinates: every distance is exact, so ties are exact and the
    # lower index must win each one
    g = np.arange(4, dtype=np.float64)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    for k in (1, 6, 26):
        idx, dist = _kernels.knn(pts, k)
        ref_idx, ref_dist = oracle.brute_knn(pts, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)


def test_knn_rejects_bad_k():
    pts = random_cloud(1, n=10)
    with pytest.raises(ValueError):
        _kernels.knn(pts, 10)
    with pytest.raises(ValueError):
        _kernels.knn(pts, 0)


@pytest.mark.parametrize("radius", [0.0, 0.8, 2.5])
def test_dilate_paths_identical(radius):
    pts = random_cloud(7)
    mask = Stream(8).uniform(pts.shape[0]) < 0.05
    out = _kernels.dilate(pts, mask, radius)
    assert np.array_equal(out, oracle.brute_dilate(pts, mask, radius))
    assert np.all(out[mask])  # marked points stay marked


def test_dilate_rejects_bad_mask_and_radius():
    pts = random_cloud(9, n=20)
    with pytest.raises(ValueError, match="mask shape"):
        _kernels.dilate(pts, np.zeros(19, bool), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        _kernels.dilate(pts, np.zeros(20, bool), -0.1)
