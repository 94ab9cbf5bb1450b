"""The confusion prior's bookkeeping: the rows it sees against the
filter-then-group formulation, the nearest-code searches against the
exhaustive scan and the float64-copy formulation, EMA variance statistics
against the compensated replay, their memory, lazy code initialization and
dead-code reseeds."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as R
from shiftseg import oracle, scp
from shiftseg.pointcloud import IGNORE_LABEL
from shiftseg.rng import Stream


def initialized_codebook(c=3, k=4, d=5, seed=1):
    cb = scp.CodebookState(c, k, d)
    cb.codes.data[...] = Stream(seed, "codes").normal(c * k * d).reshape(c * k, d)
    cb.initialized[...] = True
    return cb


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), c=st.integers(1, 6), ignore=st.floats(0.0, 1.0),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_encoder_input_equals_filter_then_group(n, c, ignore, dtype, seed):
    stream = Stream(seed, "encoder-input")
    probs = stream.uniform(n * c).reshape(n, c).astype(dtype)
    coords = stream.normal(n * 3).reshape(n, 3) * 10.0
    labels = np.where(stream.uniform(n) < ignore, IGNORE_LABEL, stream.integers(n, c))
    rows, index, classes = scp.build_encoder_input(probs, coords, labels.astype(np.uint16))
    want_rows, want_index, want_classes = R.encoder_input_filter_then_group(probs, coords, labels)
    assert rows.data.dtype == dtype and rows.data.tobytes() == want_rows.tobytes()
    assert rows.shape == (int((labels != IGNORE_LABEL).sum()), c + 3)
    assert np.array_equal(index, want_index) and np.array_equal(classes, want_classes)
    assert np.array_equal(labels[index], classes)


def test_an_all_ignore_input_gives_no_encoder_rows():
    probs = np.full((5, 3), 1.0 / 3.0, dtype=np.float32)
    rows, index, classes = scp.build_encoder_input(probs, np.zeros((5, 3)),
                                                   np.full(5, IGNORE_LABEL))
    assert rows.shape == (0, 6) and index.size == 0 and classes.size == 0


def test_quantize_picks_the_lowest_index_on_exact_ties():
    cb = initialized_codebook()
    # codes 1 and 3 of class 2 are identical, so every row ties between them
    cb.codes.data[2 * 4 + 3] = cb.codes.data[2 * 4 + 1]
    z = np.repeat(cb.codes.data[2 * 4 + 1][None, :], 3, axis=0) + [[0.0], [1e-3], [-1e-3]]
    flat = scp.quantize(cb.codes3(), z, np.full(3, 2))
    assert (flat % 4).tolist() == [1, 1, 1]  # the index within the class table
    assert flat.tolist() == [9, 9, 9]


def test_quantize_stays_within_each_rows_class():
    cb = initialized_codebook()
    z = cb.codes.data[[0, 5, 10]]  # one code of each class
    # asked for under another class, each row gets that class's nearest code
    classes = np.array([1, 2, 0])
    flat = scp.quantize(cb.codes3(), z, classes)
    ref_flat, _ = oracle.brute_nn(cb.codes.data, z, classes, np.repeat(np.arange(3), 4))
    assert flat.tolist() == ref_flat.tolist() and (flat // 4).tolist() == [1, 2, 0]
    with pytest.raises(ValueError, match="class out of range"):
        scp.quantize(cb.codes3(), z, np.array([0, 1, 3]))


def test_update_code_stats_matches_the_replay():
    c, k, d = 3, 4, 5
    cb = initialized_codebook(c, k, d)
    stream = Stream(9, "stats")
    trace = []
    usage = np.zeros(c * k, np.int64)
    for _ in range(20):
        n = 30
        classes = stream.integers(n, c)
        z = stream.normal(n * d).reshape(n, d) * 2.0
        flat = scp.quantize(cb.codes3(), z, classes)
        scp.update_code_stats(cb, flat, z)
        trace.append((flat, z))
        usage += np.bincount(flat, minlength=c * k)
    replayed = oracle.replay_stats(trace, scp.GAMMA, (c * k, d))
    assert np.allclose(cb.variances.reshape(c * k, d), replayed, rtol=1e-12, atol=0)
    assert np.array_equal(cb.usage.reshape(-1), usage)


def test_update_code_stats_floors_the_variances():
    cb = initialized_codebook(c=1, k=1, d=2)
    z = np.zeros((4, 2))  # zero spread drives the variance toward 0
    flat = scp.quantize(cb.codes3(), z, np.zeros(4, np.int64))
    for _ in range(400):
        scp.update_code_stats(cb, flat, z)
    assert (cb.variances == scp.VARIANCE_FLOOR).all()


def test_maybe_init_codebook_fills_only_empty_classes():
    c, k, d = 3, 4, 2
    cb = scp.CodebookState(c, k, d)
    cb.initialized[1] = True
    cb.codes.data[k:2 * k] = 7.0
    z = np.arange(10.0).reshape(5, 2)
    classes = np.array([0, 1, 0, 1, 1])
    scp.maybe_init_codebook(cb, z, classes, Stream(3, "init"))
    assert cb.initialized.tolist() == [True, True, False]
    assert (cb.codes.data[k:2 * k] == 7.0).all()  # already initialized: kept
    assert (cb.codes.data[2 * k:] == 0.0).all()  # no rows of class 2: still empty
    # class 0's k codes cycle through its 2 rows, perturbed with std 0.01
    picked = z[[0, 2, 0, 2]]
    assert np.abs(cb.codes.data[:k] - picked).max() < 0.1
    assert not np.array_equal(cb.codes.data[:k], picked)
    before = cb.codes.data.copy()
    scp.maybe_init_codebook(cb, z + 100.0, classes, Stream(3, "init"))
    assert np.array_equal(cb.codes.data, before)


def test_reseed_dead_codes_counts_and_resets_variances():
    c, k, d = 2, 4, 3
    cb = initialized_codebook(c, k, d)
    cb.variances[...] = 0.5
    cb.usage[0] = [3, 0, 2, 0]
    cb.usage[1] = [1, 1, 1, 1]
    z = Stream(4, "rows").normal(6 * d).reshape(6, d)
    classes = np.array([0, 0, 0, 1, 1, 1])
    before = cb.codes.data.copy()
    assert scp.reseed_dead_codes(cb, z, classes, Stream(5, "reseed")) == 2
    assert cb.variances[0, [1, 3]].tolist() == [[scp.INIT_VARIANCE] * d] * 2
    assert (cb.variances[0, [0, 2]] == 0.5).all() and (cb.variances[1] == 0.5).all()
    for j in (1, 3):  # each dead code now sits on a batch row of its class
        assert any(np.array_equal(cb.codes.data[j], row) for row in z[:3])
    keep = [0, 2, 4, 5, 6, 7]
    assert np.array_equal(cb.codes.data[keep], before[keep])
    # a class without rows in the batch keeps its dead codes
    cb.usage[1, 2] = 0
    assert scp.reseed_dead_codes(cb, z[:3], classes[:3], Stream(5, "reseed")) == 2
    assert cb.variances[1, 2, 0] == 0.5


def test_nearest_global_searches_only_the_initialized_class():
    cb = scp.CodebookState(2, 3, 4)
    cb.initialized[1] = True
    cb.codes.data[3:] = np.arange(12.0).reshape(3, 4)
    # code 4, at squared distance 14, of the one initialized class
    target = scp.nearest_global(cb.codes3(), cb.initialized, np.ones((1, 4)) * 4.0)
    assert target.tolist() == [4]
    assert cb.codes.data[target].tolist() == [[4.0, 5.0, 6.0, 7.0]]


def test_nearest_global_matches_the_exhaustive_scan_over_live_codes():
    c, k, d = 4, 6, 5
    cb = initialized_codebook(c, k, d, seed=7)
    cb.initialized[[0, 2]] = False
    # more rows than two of the search's blocks, the last one partial
    n = 2 * scp.NEAREST_ROWS + 52
    z = Stream(8, "rows").normal(n * d).reshape(n, d).astype(np.float32)
    live = np.flatnonzero(np.repeat(cb.initialized, k))
    idx, _ = oracle.brute_nn(cb.codes.data[live], z)
    target = scp.nearest_global(cb.codes3(), cb.initialized, z)
    assert np.array_equal(cb.codes.data[target], cb.codes.data[live][idx])


@st.composite
def latent_batches(draw):
    """(codes3, float32 latents, classes): a small codebook with duplicated
    codes and latent rows of which some sit exactly on a code."""
    c, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    stream = Stream(draw(st.integers(0, 2**16)), "batch")
    scale = 10.0 ** draw(st.integers(-3, 3))
    # float32 values, so a latent row can equal a code exactly
    codes3 = (stream.normal(c * k * d).reshape(c, k, d) * scale).astype(np.float32)
    codes3 = codes3.astype(np.float64)
    for _ in range(draw(st.integers(0, k - 1))):  # duplicates tie exactly
        src, dst = stream.integers(2, k)
        codes3[:, dst] = codes3[:, src]
    z = (stream.normal(n * d).reshape(n, d) * scale).astype(np.float32)
    classes = stream.integers(n, c)
    on_code = stream.integers(n, 4) == 0
    z[on_code] = codes3[classes[on_code], stream.integers(int(on_code.sum()), k)]
    return codes3, z, classes


@settings(max_examples=200, deadline=None)
@given(latent_batches())
def test_quantize_matches_the_search_over_a_float64_copy(batch):
    codes3, z, classes = batch
    flat = scp.quantize(codes3, z, classes)
    assert np.array_equal(flat, R.quantize_float64_copy(codes3, z, classes))


@settings(max_examples=200, deadline=None)
@given(latent_batches(), st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                  min_size=1, max_size=8))
def test_update_code_stats_of_float32_rows_equals_it_over_a_float64_copy(batch, values):
    codes3, z, classes = batch
    c, k, d = codes3.shape
    # any finite float32 values, spread over the rows' first channel
    z[:, 0] = np.resize(np.array(values, dtype=np.float32), z.shape[0])
    flat = scp.quantize(codes3, z, classes)
    cbs = [scp.CodebookState(c, k, d) for _ in range(2)]
    for cb in cbs:
        cb.variances[...] = Stream(1, "var").uniform(c * k * d).reshape(c, k, d) + 0.5
    scp.update_code_stats(cbs[0], flat, z)
    R.update_code_stats_float64_copy(cbs[1], flat, z)
    assert cbs[0].variances.tobytes() == cbs[1].variances.tobytes()
    assert np.array_equal(cbs[0].usage, cbs[1].usage)


def test_quantize_and_stats_hold_no_float64_copy_of_the_latents():
    # default geometry: ~10,300 float32 selection rows, 8 classes x 32 codes
    # x D = 64; a float64 copy of the rows alone would be 5.3 MB
    c, k, d, n = 8, 32, 64, 10_300
    cb = initialized_codebook(c, k, d, seed=11)
    stream = Stream(12, "latents")
    z = stream.normal(n * d).reshape(n, d).astype(np.float32)
    classes = stream.integers(n, c)
    tracemalloc.start()
    try:
        scp.update_code_stats(cb, scp.quantize(cb.codes3(), z, classes), z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
