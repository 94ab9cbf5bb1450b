import numpy as np
import pytest

from shiftseg.rng import Stream, fold_key


def test_same_key_same_sequence():
    a = Stream(42, "jitter", 3)
    b = Stream(42, "jitter", 3)
    assert np.array_equal(a.uniform(100), b.uniform(100))


def test_different_keys_differ():
    assert fold_key(1, "x") != fold_key(1, "y")
    assert fold_key(1, 2) != fold_key(2, 1)
    a = Stream(1).uniform(50)
    b = Stream(2).uniform(50)
    assert not np.array_equal(a, b)


def test_counter_advances():
    s = Stream(7)
    first = s.uniform(10)
    second = s.uniform(10)
    assert not np.array_equal(first, second)
    # a fresh stream replays the concatenation
    replay = Stream(7).uniform(20)
    assert np.array_equal(replay, np.concatenate([first, second]))


def test_uniform_range_and_mean():
    u = Stream(3).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_uniform_bounds_args():
    u = Stream(5).uniform(1000, low=2.0, high=4.0)
    assert u.min() >= 2.0 and u.max() < 4.0
    assert Stream(5).uniform(low=0.03, high=0.03) == 0.03


def test_normal_moments():
    z = Stream(11).normal(200_000, std=2.0)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 4.0) < 0.05


def test_permutation_is_permutation():
    for n in (1, 2, 5, 257):
        p = Stream(13, n).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def loop_permutation(stream, n):
    """The one-swap-at-a-time Fisher-Yates loop that `permutation` replaced."""
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    u = stream.uniform(n - 1)
    for t in range(n - 1):
        i = n - 1 - t
        j = min(int(u[t] * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 100, 4096])
def test_permutation_equals_the_swap_loop(n):
    for key in [(0,), (13, n), ("drop", 7, 3), (2**63 + 5,)]:
        got_stream, want_stream = Stream(*key), Stream(*key)
        got = got_stream.permutation(n)
        want = loop_permutation(want_stream, n)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        assert got_stream.counter == want_stream.counter


def test_spawn_independent():
    parent = Stream(9)
    c1 = parent.spawn("a")
    c2 = parent.spawn("b")
    assert not np.array_equal(c1.uniform(20), c2.uniform(20))
    # spawning does not consume parent draws
    assert np.array_equal(parent.uniform(5), Stream(9).uniform(5))


def test_integers_in_range():
    v = Stream(21).integers(5000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert len(np.unique(v)) == 7


def test_key_parts_types():
    Stream(1, "s", True)
    with pytest.raises(TypeError):
        Stream(1.5)
