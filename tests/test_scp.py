"""The confusion prior's bookkeeping: quantizer ties, EMA variance statistics
against the compensated replay, lazy code initialization and dead-code
reseeds."""
import numpy as np
import pytest

from shiftseg import oracle, scp
from shiftseg.rng import Stream


def initialized_codebook(c=3, k=4, d=5, seed=1):
    cb = scp.CodebookState(c, k, d)
    cb.codes.data[...] = Stream(seed, "codes").normal(c * k * d).reshape(c * k, d)
    cb.initialized[...] = True
    return cb


def test_quantize_picks_the_lowest_index_on_exact_ties():
    cb = initialized_codebook()
    # codes 1 and 3 of class 2 are identical, so every row ties between them
    cb.codes.data[2 * 4 + 3] = cb.codes.data[2 * 4 + 1]
    z = np.repeat(cb.codes.data[2 * 4 + 1][None, :], 3, axis=0) + [[0.0], [1e-3], [-1e-3]]
    qr = scp.quantize(cb, z, np.full(3, 2))
    assert (qr.flat % 4).tolist() == [1, 1, 1]  # the index within the class table
    assert qr.flat.tolist() == [9, 9, 9]
    assert qr.distance[0] == 0.0


def test_quantize_stays_within_each_rows_class():
    cb = initialized_codebook()
    z = cb.codes.data[[0, 5, 10]]  # one code of each class
    # asked for under another class, each row gets that class's nearest code
    classes = np.array([1, 2, 0])
    qr = scp.quantize(cb, z, classes)
    ref_flat, ref_dist = oracle.brute_nn(cb.codes.data, z, classes, np.repeat(np.arange(3), 4))
    assert qr.flat.tolist() == ref_flat.tolist() and (qr.flat // 4).tolist() == [1, 2, 0]
    assert np.allclose(qr.distance, ref_dist, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="class out of range"):
        scp.quantize(cb, z, np.array([0, 1, 3]))


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
        qr = scp.quantize(cb, z, classes)
        scp.update_code_stats(cb, qr)
        trace.append((qr.flat.copy(), z.copy()))
        usage += np.bincount(qr.flat, minlength=c * k)
    replayed = oracle.replay_stats(trace, scp.GAMMA, (c * k, d))
    assert np.allclose(cb.variances.reshape(c * k, d), replayed, rtol=1e-12, atol=0)
    assert np.array_equal(cb.usage.reshape(-1), usage)


def test_update_code_stats_floors_the_variances():
    cb = initialized_codebook(c=1, k=1, d=2)
    z = np.zeros((4, 2))  # zero spread drives the variance toward 0
    qr = scp.quantize(cb, z, np.zeros(4, np.int64))
    for _ in range(400):
        scp.update_code_stats(cb, qr)
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


def test_nearest_global_without_initialized_codes_raises():
    cb = scp.CodebookState(2, 3, 4)
    with pytest.raises(scp.PriorModeError):
        scp.nearest_global(cb.codes.data, cb.initialized, 3, np.zeros((2, 4)))
    cb.initialized[1] = True
    cb.codes.data[3:] = np.arange(12.0).reshape(3, 4)
    flat, dist = scp.nearest_global(cb.codes.data, cb.initialized, 3, np.ones((1, 4)) * 4.0)
    assert flat.tolist() == [4] and dist.tolist() == [np.sqrt(14.0)]
