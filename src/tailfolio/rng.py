"""Deterministic random number plumbing.

All stochastic code in the package draws from counter-based Philox streams
through this module, and every normal variate is produced by inverse-CDF
transformation of a uniform. The k-th uniform of a given (seed, stream) pair
is a pure function of (seed, stream, k) on every platform, whichever
process draws it, and a stream can start at any k (start), so that each
forked part of a bulk command draws only its own rows. The k-th
normal is fixed for one scipy build and one libm: the inverse CDF is
scipy's ndtri, the standard normal quantile, whose last bits can move with
glibc's FMA/AVX2 choice.

scipy.special is imported where a kernel first runs (NormalStream.draw,
erfinv), not with this module, so a command that draws no normal never
loads scipy.
"""

from __future__ import annotations

import numpy as np

_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_BLOCK = 8192        # uniforms a stream buffers per refill
_RAW_BLOCK = 1 << 16 # raw words converted per random_raw call


def _philox(seed: int, stream: int = 0) -> np.random.Philox:
    key = np.array([seed & _U64_MASK, stream & _U64_MASK], dtype=np.uint64)
    return np.random.Philox(key=key)


def erfinv(z):
    """Inverse error function. Exact +-1 map to +-inf; |z| > 1 raises ValueError."""
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > 1.0):
        raise ValueError("erfinv argument must lie in [-1, 1]")
    from scipy import special
    return special.erfinv(z)


class UniformStream:
    """Buffered stream of uniforms on the open interval (0, 1).

    Values are (i >> 11 + 0.5) * 2^-53 from raw Philox 64-bit words, so 0 and
    1 are never produced and every value is a deterministic function of the
    draw index alone. A stream made with start = k begins at draw k: its
    counter is advanced k // 4 steps, of 4 words each, and k % 4 words are
    then drawn and dropped, so its draws are those of a stream from 0
    after its first k.
    """

    def __init__(self, seed: int, stream: int = 0, start: int = 0):
        self._bitgen = _philox(seed, stream)
        if start:
            self._bitgen.advance(start // 4)
            self._bitgen.random_raw(start % 4)
        self._buf = np.empty(0)
        self._pos = 0

    def _draw(self, n: int, out=None) -> np.ndarray:
        """The next n uniforms of the stream, in out or a new float array,
        filled from raw words _RAW_BLOCK at a time, so no whole-size word
        array is held."""
        out = np.empty(n) if out is None else out
        for start in range(0, n, _RAW_BLOCK):
            raw = self._bitgen.random_raw(min(_RAW_BLOCK, n - start))
            raw >>= np.uint64(11)
            out[start:start + raw.size] = raw
        out += 0.5
        out *= _INV_2_53
        return out

    def take(self, n: int, out=None) -> np.ndarray:
        """The next n uniforms, in an array the caller owns: out, a float
        array of n values, when given."""
        need = n - (self._buf.size - self._pos)
        if need >= _BLOCK:
            # a block or more: drawn straight into the result, never buffered
            left, self._buf, self._pos = self._buf[self._pos:], np.empty(0), 0
            out = np.empty(n) if out is None else out
            out[:left.size] = left
            self._draw(need, out[left.size:])
            return out
        if need > 0:    # the unread tail and one fresh block
            self._buf = np.concatenate([self._buf[self._pos:], self._draw(_BLOCK)])
            self._pos = 0
        taken = self._buf[self._pos:self._pos + n]
        self._pos += n
        if out is None:     # the annealer's many small takes: one copy
            return taken.copy()
        out[:] = taken
        return out

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
    """Standard normal stream via inverse-CDF of a UniformStream, which
    starts at its draw start."""

    def __init__(self, seed: int, stream: int = 0, start: int = 0):
        self._uniforms = UniformStream(seed, stream, start)

    def draw(self, n: int, out=None) -> np.ndarray:
        """The next n normals, in out, a float array of n values, when
        given, else in a new array."""
        from scipy import special
        u = self._uniforms.take(int(n), out)
        return special.ndtri(u, out=u)

