"""The k-d-tree kernels against the brute-force oracles: two independent
paths to the same neighbour lists and dilated masks."""
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

import reference as R
from shiftseg import _kernels
from shiftseg.rng import Stream


def random_cloud(seed, n=300, planar=False):
    s = Stream(seed, "kernel-test")
    pts = s.uniform(3 * n).reshape(n, 3) * 12.0
    if planar:
        pts[:, 2] = 0.0
    return pts


def lattice(n, spacing=1.0):
    g = np.arange(n, dtype=np.float64) * spacing
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


@functools.cache
def brute_knn32(planar):
    # (distance, index) order is total, so the k=32 lists hold every smaller k
    return R.brute_knn(random_cloud(3, planar=planar), 32)


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
    ref_idx, _ = R.brute_knn(pts, 4)
    assert np.array_equal(idx, ref_idx)
    assert dist[10, 0] == 0.0 and idx[10, 0] == 40  # lower index wins the tie
    assert dist[40, 0] == 0.0 and idx[40, 0] == 10


def test_knn_lattice_exact_ties():
    # integer coordinates: every distance is exact, so ties are exact and the
    # lower index must win each one
    pts = lattice(4)
    for k in (1, 6, 26):
        idx, dist = _kernels.knn(pts, k)
        ref_idx, ref_dist = R.brute_knn(pts, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)


def dense_reference(pts, k):
    """Exact kNN of every row by the dense scan alone: no tree, no
    certification. Fast enough that a failing property shrinks in seconds."""
    idx, d2 = _kernels._dense_knn(pts, np.arange(len(pts)), k)
    return idx, np.sqrt(d2)


@pytest.mark.parametrize("planar", [False, True])
def test_dense_reference_matches_the_oracle(planar):
    pts = random_cloud(6, n=120, planar=planar)
    grid = np.floor(pts / 4.0)  # a coarse grid: exact ties and duplicates
    for cloud in (pts, grid):
        idx, dist = dense_reference(cloud, 16)
        ref_idx, ref_dist = R.brute_knn(cloud, 16)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(dist, ref_dist, rtol=1e-14, atol=0)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_knn_matches_oracle_on_coarse_grids(data):
    # coordinates on a 5-step integer grid: ties and duplicates everywhere;
    # the reference is the dense scan, itself checked against the oracle above
    k = data.draw(st.sampled_from([1, 5, 16, 32]), label="k")
    n = data.draw(st.integers(k + 1, 300), label="n")
    coords = data.draw(st.lists(st.integers(0, 4), min_size=3 * n, max_size=3 * n),
                       label="coords")
    pts = np.array(coords, dtype=np.float64).reshape(n, 3)
    idx, dist = _kernels.knn(pts, k)
    ref_idx, ref_dist = dense_reference(pts, k)
    assert np.array_equal(idx, ref_idx)
    assert np.allclose(dist, ref_dist, rtol=1e-14, atol=0)


def test_knn_falls_back_to_the_dense_scan_on_boundary_ties(monkeypatch):
    # each interior lattice point has 6 neighbours at distance 1, more than
    # the k+PAD = 4 candidates the tree returns beside the point itself
    pts = lattice(5)
    k = 1
    assert 6 > k + _kernels.PAD
    dense_rows = []
    dense = _kernels._dense_knn

    def spy(points, rows, kk):
        dense_rows.extend(rows.tolist())
        return dense(points, rows, kk)

    monkeypatch.setattr(_kernels, "_dense_knn", spy)
    idx, dist = _kernels.knn(pts, k)
    interior = 1 + 5 + 25  # the point (1, 1, 1)
    assert interior in dense_rows
    ref_idx, ref_dist = R.brute_knn(pts, k)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    # query rows reach the fallback by their point index
    dense_rows.clear()
    rows = np.array([interior, 0, 124, interior])
    idx, dist = _kernels.knn(pts, k, rows)
    assert dense_rows.count(interior) == 2
    assert np.array_equal(idx, ref_idx[rows])
    assert np.array_equal(dist, ref_dist[rows])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_knn_at_query_rows_equals_the_full_rows(data):
    # the reference is the full-row kernel, not the O(N^2) oracle, so a
    # failing example shrinks fast; the coarse grid sends many rows to the
    # dense fallback
    k = data.draw(st.sampled_from([1, 5, 16, 32]), label="k")
    n = data.draw(st.integers(k + 1, 300), label="n")
    coords = data.draw(st.lists(st.integers(0, 4), min_size=3 * n, max_size=3 * n),
                       label="coords")
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
                              label="rows"), dtype=np.int64)
    pts = np.array(coords, dtype=np.float64).reshape(n, 3)
    idx, dist = _kernels.knn(pts, k, rows)
    full_idx, full_dist = _kernels.knn(pts, k)
    assert idx.tobytes() == full_idx[rows].tobytes()
    assert dist.tobytes() == full_dist[rows].tobytes()


def lexsort_knn(points, k, rows=None):
    """The kernel as it was before rows in tree order skipped the sort: every
    query row's candidates are lexsorted by (d², index). The reference of the
    no-sort path."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    m = min(n, k + 1 + _kernels.PAD)
    tree_dist, cand = cKDTree(points).query(points[rows], k=m)
    d2 = _kernels._sq_dist(points, rows[:, None], cand)
    d2[cand == rows[:, None]] = np.inf
    order = np.lexsort((cand, d2), axis=1)[:, :k]
    idx = np.take_along_axis(cand, order, axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    if m < n:
        last = tree_dist[:, -1]
        unsure = np.flatnonzero(~(d2[:, -1] < last * last * (1.0 - _kernels.MARGIN)))
        if unsure.size:
            idx[unsure], d2[unsure] = _kernels._dense_knn(points, rows[unsure], k)
    return idx, np.sqrt(d2)


@st.composite
def tie_clouds(draw, min_n):
    """Integer points: a coarse grid (ties and duplicates everywhere) or a
    fine one (few ties), with some points copied onto others."""
    n = draw(st.integers(min_n, 300), label="n")
    span = draw(st.sampled_from([1, 4, 1000]), label="span")
    coords = draw(st.lists(st.integers(0, span), min_size=3 * n, max_size=3 * n),
                  label="coords")
    pts = np.array(coords, dtype=np.float64).reshape(n, 3)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=20), label="copies"):
        pts[a] = pts[b]
    return pts


def query_rows(data, n):
    if data.draw(st.booleans(), label="every row"):
        return None
    return np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
                              label="rows"), dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_knn_rows_are_prefixes_of_a_larger_k(data):
    k1 = data.draw(st.sampled_from([1, 5, 16, 32]), label="k1")
    k2 = data.draw(st.sampled_from([k for k in (1, 5, 16, 32, 40) if k >= k1]), label="k2")
    pts = data.draw(tie_clouds(k2 + 1))
    rows = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=len(pts)),
                     label="rows")
    rows = np.array(rows, dtype=np.int64)
    big_idx, big_dist = _kernels.knn(pts, k2)
    idx, dist = _kernels.knn(pts, k1, rows)
    assert idx.tobytes() == np.ascontiguousarray(big_idx[rows, :k1]).tobytes()
    assert dist.tobytes() == np.ascontiguousarray(big_dist[rows, :k1]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rows_in_tree_order_skip_the_sort_bit_for_bit(data):
    k = data.draw(st.sampled_from([1, 5, 16, 32]), label="k")
    pts = data.draw(tie_clouds(k + 1))
    rows = query_rows(data, len(pts))
    idx, dist = _kernels.knn(pts, k, rows)
    ref_idx, ref_dist = lexsort_knn(pts, k, rows)
    assert idx.tobytes() == ref_idx.tobytes()
    assert dist.tobytes() == ref_dist.tobytes()


def test_a_row_skips_the_sort_only_where_the_lexsort_keeps_its_order():
    # random candidate rows with tied d², self first, elsewhere or absent:
    # every row `_ordered` accepts must lexsort to 1, 2, ..., m-1, 0
    s = Stream(31, "ordered-rows")
    q, m = 4000, 6
    cand = np.argsort(s.uniform(q * 10).reshape(q, 10), axis=1)[:, :m]
    rows = np.floor(s.uniform(q) * 10).astype(np.int64)
    d2 = np.floor(s.uniform(q * m) * 3).reshape(q, m)
    lift = s.uniform(q) < 0.5  # sort half the rows, self first where present
    d2[lift] = np.sort(d2[lift], axis=1)
    d2[cand == rows[:, None]] = np.inf
    ok = _kernels._ordered(cand, d2, rows)
    order = np.lexsort((cand, d2), axis=1)
    assert 0 < ok.sum() < q
    assert (order[ok] == np.r_[1:m, 0]).all()


def test_each_row_path_is_reached_and_equals_the_lexsort(monkeypatch):
    # continuous points: the tree returns most rows in (d², index) order;
    # two duplicated pairs and a lattice of exact ties need the sort, and the
    # lattice's interior ties beyond the candidates need the dense scan
    pts = random_cloud(11, n=200)
    pts[1], pts[3] = pts[0], pts[2]
    cloud = np.concatenate([pts, lattice(5) + 100.0])
    seen = {"in order": 0, "sorted": 0, "dense": 0}
    ordered, dense = _kernels._ordered, _kernels._dense_knn

    def spy_ordered(cand, d2, rows):
        ok = ordered(cand, d2, rows)
        seen["in order"] += int(ok.sum())
        seen["sorted"] += int((~ok).sum())
        return ok

    def spy_dense(points, rows, k):
        seen["dense"] += rows.size
        return dense(points, rows, k)

    for k in (1, 5, 16):
        for rows in (None, np.arange(0, len(cloud), 3)):
            ref_idx, ref_dist = lexsort_knn(cloud, k, rows)
            with monkeypatch.context() as mp:
                mp.setattr(_kernels, "_ordered", spy_ordered)
                mp.setattr(_kernels, "_dense_knn", spy_dense)
                idx, dist = _kernels.knn(cloud, k, rows)
            assert all(seen.values()), (k, seen)
            seen.update({key: 0 for key in seen})
            assert idx.tobytes() == ref_idx.tobytes(), k
            assert dist.tobytes() == ref_dist.tobytes(), k


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
    assert np.array_equal(out, R.brute_dilate(pts, mask, radius))
    assert np.all(out[mask])  # marked points stay marked


def test_dilate_includes_points_exactly_at_the_radius():
    # lattice spacing 0.5 is exact in binary, so d^2 == r^2 holds exactly for
    # the nearest lattice neighbours and the boundary counts as inside
    pts = lattice(6, spacing=0.5)
    mask = np.zeros(len(pts), bool)
    mask[[0, 43, 129]] = True
    out = _kernels.dilate(pts, mask, 0.5)
    assert np.array_equal(out, R.brute_dilate(pts, mask, 0.5))
    assert out.sum() == 3 + 3 + 6 + 6  # a corner and two interior points


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dilate_decides_a_pair_on_the_radius_by_its_recomputed_distance(data):
    # random float64 points, and a radius equal to the recomputed distance
    # of one (marked, unmarked) pair or a neighbouring float, so that pair
    # sits on the boundary where the tree's distance may round apart from
    # the recomputed one
    n = data.draw(st.integers(2, 80), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    scale = data.draw(st.sampled_from([0.01, 1.0, 100.0]), label="scale")
    offset = data.draw(st.sampled_from([0.0, 1e3]), label="offset")
    s = Stream(seed, "dilate-boundary")
    pts = offset + (s.uniform(3 * n).reshape(n, 3) - 0.5) * scale
    mask = s.uniform(n) < data.draw(st.sampled_from([0.05, 0.3, 0.7]), label="marked")
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                     label="pair")
    mask[i], mask[j] = True, False
    d2 = float(_kernels._sq_dist(pts, np.array([j]), np.array([i]))[0])
    # the oracle sums the squares with fsum, the kernel left to right; on a
    # pair where the two differ the boundary decision is not the oracle's
    assume(d2 == math.fsum((float(a) - float(b)) ** 2 for a, b in zip(pts[j], pts[i])))
    radius = math.sqrt(d2)
    step = data.draw(st.sampled_from([-1, 0, 1]), label="ulps")
    if step:
        radius = float(np.nextafter(radius, np.inf if step > 0 else 0.0))
    out = _kernels.dilate(pts, mask, radius)
    assert np.array_equal(out, R.brute_dilate(pts, mask, radius))
    if d2 <= radius * radius:
        assert out[j]


def test_dilate_radius_covering_the_whole_cloud_in_slices(monkeypatch):
    # every unmarked point hits every marked one; a small pair bound makes
    # the query run over many slices of the unmarked points
    pts = random_cloud(5, n=200)
    mask = np.zeros(len(pts), bool)
    mask[::3] = True
    monkeypatch.setattr(_kernels, "MAX_PAIRS", 500)
    calls = []
    tree = _kernels.cKDTree

    class SpyTree(tree):
        def sparse_distance_matrix(self, other, max_distance, **kw):
            calls.append(self.n * other.n)
            return super().sparse_distance_matrix(other, max_distance, **kw)

    monkeypatch.setattr(_kernels, "cKDTree", SpyTree)
    out = _kernels.dilate(pts, mask, 1e3)
    assert out.all()
    assert len(calls) > 1 and max(calls) <= 500


def test_dilate_rejects_bad_mask_and_radius():
    pts = random_cloud(9, n=20)
    with pytest.raises(ValueError, match="mask shape"):
        _kernels.dilate(pts, np.zeros(19, bool), 1.0)
