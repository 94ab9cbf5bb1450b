"""Deterministic counter-based random streams.

Every random draw in the package comes from a `Stream`, a stateless-in-spirit
generator defined by value(key, counter) = splitmix64(key + (counter+1)*GOLDEN).
Streams derived from the same key parts always produce the same sequence, on
any platform, which is what makes augmentation records replayable and whole
training runs byte-reproducible.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)


def _mix(z):
    """splitmix64 finalizer; works on uint64 scalars and arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def _part_to_u64(part) -> np.uint64:
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return np.uint64(int.from_bytes(digest, "little"))
    if isinstance(part, (bool, np.bool_)):
        return np.uint64(int(part))
    if isinstance(part, (int, np.integer)):
        return np.uint64(int(part) & 0xFFFFFFFFFFFFFFFF)
    raise TypeError(f"stream key parts must be int or str, got {type(part).__name__}")


def fold_key(*parts) -> int:
    """Fold key parts into a single 64-bit stream key."""
    with np.errstate(over="ignore"):
        h = np.uint64(len(parts)) + _GOLDEN
        for part in parts:
            h = _mix(h ^ (_part_to_u64(part) + _GOLDEN + (h << np.uint64(6)) + (h >> np.uint64(2))))
    return int(h)


class Stream:
    """Counter-based random stream identified by its key parts.

    Consuming draws advances an internal counter; the value at counter c is a
    pure function of (key, c). `spawn` derives an independent child stream.
    """

    __slots__ = ("key", "counter")

    def __init__(self, *parts, _key: int | None = None):
        self.key = np.uint64(_key) if _key is not None else np.uint64(fold_key(*parts))
        self.counter = 0

    def spawn(self, *parts) -> "Stream":
        return Stream(_key=fold_key(int(self.key), *parts))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words."""
        with np.errstate(over="ignore"):
            ctr = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
            out = _mix(self.key + ctr * _GOLDEN)
        self.counter += n
        return out

    def uniform(self, n: int | None = None, low: float = 0.0, high: float = 1.0):
        """Uniform draws in [low, high); scalar when n is None."""
        m = 1 if n is None else int(n)
        u = (self.raw(m) >> np.uint64(11)).astype(np.float64) / _U53
        vals = low + u * (high - low)
        return float(vals[0]) if n is None else vals

    def normal(self, n: int | None = None, std: float = 1.0):
        """Gaussian draws via Box-Muller; scalar when n is None."""
        m = 1 if n is None else int(n)
        pairs = (m + 1) // 2
        u = (self.raw(2 * pairs) >> np.uint64(11)).astype(np.float64) / _U53
        u1 = u[:pairs]
        u2 = u[pairs:]
        u1 = np.where(u1 <= 0.0, 1.0 / _U53, u1)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        vals = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:m] * std
        return float(vals[0]) if n is None else vals

    def integers(self, n: int, high: int) -> np.ndarray:
        """n draws uniform over {0, ..., high-1}."""
        if high <= 0:
            raise ValueError("high must be positive")
        u = self.uniform(n)
        return np.minimum((u * high).astype(np.int64), high - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n) driven by n-1 uniform draws: for
        i = n-1 down to 1, swap position i with j = min(floor(u * (i+1)), i).
        The targets are computed in one vectorised step; only the swaps,
        which depend on each other, run one by one."""
        if n < 2:
            return np.arange(n, dtype=np.int64)
        i = np.arange(n - 1, 0, -1, dtype=np.int64)
        js = np.minimum((self.uniform(n - 1) * (i + 1)).astype(np.int64), i)
        perm = list(range(n))
        for a, b in zip(i.tolist(), js.tolist()):
            perm[a], perm[b] = perm[b], perm[a]
        return np.array(perm, dtype=np.int64)
