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
_BLOCK = 8192        # uniforms a stream buffers per refill


def _philox(seed: int, stream: int = 0) -> np.random.Philox:
    key = np.array([seed & _U64_MASK, stream & _U64_MASK], dtype=np.uint64)
    return np.random.Philox(key=key)


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

    def __init__(self, seed: int, stream: int = 0):
        self._bitgen = _philox(seed, stream)
        self._buf = np.empty(0)
        self._pos = 0

    def _draw(self, n: int) -> np.ndarray:
        """The next n uniforms of the stream, converted in place from raw words."""
        raw = self._bitgen.random_raw(n)
        raw >>= np.uint64(11)
        out = raw.astype(np.float64)
        out += 0.5
        out *= _INV_2_53
        return out

    def take(self, n: int) -> np.ndarray:
        end = self._pos + n
        if end <= self._buf.size:
            out = self._buf[self._pos:end]
            self._pos = end
            return out.copy()
        left = self._buf[self._pos:]
        need = n - left.size
        if need < _BLOCK:
            self._buf, self._pos = self._draw(_BLOCK), need
            return np.concatenate([left, self._buf[:need]])
        # a block or more: hand the fresh array over instead of buffering it
        self._buf, self._pos = np.empty(0), 0
        fresh = self._draw(need)
        return np.concatenate([left, fresh]) if left.size else fresh

    def peek(self, n: int) -> np.ndarray:
        """The next n uniforms as a read-only view, without consuming them.

        When the buffer holds fewer than n, its unread tail and a fresh draw
        of at least a block become the new buffer; the old block is freed
        before the draw, so no second block is kept.
        """
        if self._buf.size - self._pos < n:
            self._buf, self._pos = self._buf[self._pos:].copy(), 0
            fresh = self._draw(max(n - self._buf.size, _BLOCK))
            self._buf = np.concatenate([self._buf, fresh])
        out = self._buf[self._pos:self._pos + n]
        out.flags.writeable = False
        return out

    def consume(self, n: int) -> None:
        """Skip n uniforms that a preceding peek of at least n returned."""
        self._pos += n

    def one(self) -> float:
        if self._pos >= self._buf.size:
            self._buf, self._pos = self._draw(_BLOCK), 0
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)

    def tell(self):
        """The stream's position, for seek. Exact across refills: no method
        writes a buffer in place, so the saved buffer still holds what it
        held, and the generator's state is where its next refill starts."""
        return self._buf, self._pos, self._bitgen.state

    def seek(self, position) -> None:
        """Return to a position from tell: the next draws are those that
        followed it."""
        self._buf, self._pos, self._bitgen.state = position


class NormalStream:
    """Standard normal stream via inverse-CDF of a UniformStream."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._uniforms = UniformStream(seed, stream)

    def draw(self, n: int) -> np.ndarray:
        u = self._uniforms.take(int(n))
        return special.ndtri(u, out=u)

