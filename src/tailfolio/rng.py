"""Deterministic random number plumbing.

All stochastic code in the package draws from counter-based Philox streams
through this module, and every normal variate is produced by inverse-CDF
transformation of a uniform. That combination is what makes runs bit-identical
across platforms and across serial/parallel lane schedules: the k-th draw of a
given (seed, stream) pair is a pure function of (seed, stream, k).

The inverse CDF is scipy's ndtri, the standard normal quantile (Wichura's
AS241), accurate to a few ulps over the whole open interval.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & _U64_MASK, stream & _U64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def erfinv(z):
    """Inverse error function. Exact +-1 map to +-inf; |z| > 1 raises ValueError."""
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > 1.0):
        raise ValueError("erfinv argument must lie in [-1, 1]")
    return special.erfinv(z)


class UniformStream:
    """Buffered stream of uniforms on the open interval (0, 1).

    Values are (i >> 11 + 0.5) * 2^-53 from raw Philox 64-bit words, so 0 and
    1 are never produced and every value is a deterministic function of the
    draw index alone.
    """

    def __init__(self, seed: int, stream: int = 0, block: int = 8192):
        self._gen = _philox(seed, stream)
        self._block = int(block)
        self._buf = np.empty(0)
        self._pos = 0

    def _refill(self, need: int) -> None:
        n = max(self._block, need)
        raw = self._gen.integers(0, np.iinfo(np.uint64).max, size=n,
                                 dtype=np.uint64, endpoint=True)
        self._buf = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        if self._pos + n > self._buf.size:
            left = self._buf[self._pos:]
            self._refill(n - left.size)
            if left.size:
                out = np.concatenate([left, self._buf[:n - left.size]])
                self._pos = n - left.size
                return out
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out.copy()

    def one(self) -> float:
        if self._pos >= self._buf.size:
            self._refill(1)
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


class NormalStream:
    """Standard normal stream via inverse-CDF of a UniformStream."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._uniforms = UniformStream(seed, stream)

    def draw(self, n: int) -> np.ndarray:
        return special.ndtri(self._uniforms.take(int(n)))

