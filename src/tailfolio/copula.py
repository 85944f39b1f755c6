"""Gaussian copula layer over two-tailed exponential marginals.

Each channel's increment dx is mapped to a standard normal coordinate

    dy = -sgn(dx - m) ndtri(exp(-|dx - m|/chi) / 2)

which is the normal quantile of the marginal's cdf, taken on the side of the
smaller tail mass so it never forms 1 - exp(-a) and stays exact in the tail.
The inverse map is

    dx = m - sgn(dy) chi ln(1 - erf(|dy|/sqrt 2))

evaluated through erfc to keep the tail accurate. Channel dependence lives
entirely in the correlation matrix G of the dy coordinates, held with its
Cholesky factor.

Correlation is estimated from trailing moving-average pre-smoothed dy series,
normalized to unit diagonal.

scipy is imported where its kernels first run: scipy.special in
to_gaussian and from_gaussian, scipy.linalg in cholesky_lower. A command
that calls none of them never loads scipy, and one that does loads it only
from that first call on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, OutOfDomain
from .marginals import ExponentialMarginal

Y_MAX = 8.0
EPS_PD = 1e-10
_AVERAGE_BLOCK = 1 << 16    # moving-average outputs per np.convolve call
_SQRT2 = float(np.sqrt(2.0))


def to_gaussian(marginal: ExponentialMarginal, dx):
    """Map increments to standard normal coordinates, clamped to |dy| <= Y_MAX.

    dy = -sgn(t) ndtri(exp(-|t|/chi) / 2) with t = dx - m: the quantile of the
    tail mass beyond |t|, which keeps full relative accuracy however small
    that mass is.
    """
    from scipy.special import ndtri
    t = np.asarray(dx, dtype=float) - marginal.m
    chi = marginal.side_width(t)
    dy = np.sign(-t) * ndtri(0.5 * np.exp(-np.abs(t) / chi))
    dy = np.clip(dy, -Y_MAX, Y_MAX)
    return float(dy) if dy.ndim == 0 else dy


def from_gaussian(marginal: ExponentialMarginal, dy):
    """Inverse of to_gaussian (for unclamped |dy|)."""
    from scipy.special import erfc
    y = np.asarray(dy, dtype=float)
    sign = np.sign(y)
    chi = marginal.side_width(y)
    dx = marginal.m - sign * chi * np.log(erfc(np.abs(y) / _SQRT2))
    return float(dx) if dx.ndim == 0 else dx


def cholesky_lower(matrix, pivot_floor: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor with explicit pivot control.

    Raises IllConditioned at the first pivot (the remaining diagonal
    element before its square root) that fails to exceed pivot_floor: where
    LAPACK stops on a non-positive pivot, or where diag(C)^2 is at or below
    the floor.
    """
    from scipy.linalg import lapack
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise OutOfDomain("matrix must be square")
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    pivots = np.diag(c) ** 2
    if info > 0:
        # LAPACK stops at a non-positive pivot and leaves it, unrooted, in place
        pivots = np.append(pivots[:info - 1], c[info - 1, info - 1])
    low = np.flatnonzero(~(pivots > pivot_floor))
    if low.size or info > 0:
        j = int(low[0]) if low.size else info - 1
        raise IllConditioned(
            f"pivot {pivots[j]:.6e} at index {j} not above floor {pivot_floor:.3e}")
    return c


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Validated unit-diagonal positive definite matrix with its factor."""

    matrix: np.ndarray      # G, the correlation entries
    cholesky: np.ndarray    # lower C with C C' = G

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "CorrelationMatrix":
        g = np.array(matrix, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise OutOfDomain(f"'correlation' must be square, got shape {g.shape}")
        # the range comes first, so that NaN fails it rather than reading as
        # an asymmetry; on the diagonal it is part of the unit-diagonal test
        eye = np.eye(g.shape[0], dtype=bool)
        in_range = np.abs(g) <= 1.0 + 1e-12
        for what, bad in (
                ("entries must lie in [-1, 1]", ~eye & ~in_range),
                ("must have unit diagonal",
                 eye & ~(in_range & np.isclose(g, 1.0, atol=1e-12))),
                ("must be symmetric", ~np.isclose(g, g.T, atol=1e-12))):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise OutOfDomain(f"'correlation' {what}, "
                                  f"got {float(g[i, j])!r} at ({i}, {j})")
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 1.0)
        return cls(matrix=g, cholesky=cholesky_lower(g, pivot_floor=EPS_PD))


def _average_in_place(y: np.ndarray, window: int) -> np.ndarray:
    """Overwrite the first T - window + 1 values of each row of y with its
    trailing moving averages and return that view. Each block of outputs is
    one np.convolve over the values it reads, all at or after the block's
    start, so writing it over them loses nothing later blocks read, and the
    bits are those of one call over the row."""
    kernel = np.ones(window) / window
    t_eff = y.shape[1] - window + 1
    for row in y:
        for a in range(0, t_eff, _AVERAGE_BLOCK):
            b = min(a + _AVERAGE_BLOCK, t_eff)
            row[a:b] = np.convolve(row[a:b + window - 1], kernel, mode="valid")
    return y[:, :t_eff]


def pre_average(y: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average of each row of y; output length T - window + 1."""
    return _average_in_place(np.array(y, dtype=float), window)


def estimate_correlation(y_series, pre_average_window: int = 3) -> CorrelationMatrix:
    """Correlation of pre-averaged normal coordinates.

    y_series has shape (channels, epochs). Each channel is smoothed with a
    trailing moving average of the given window (output length T - w + 1)
    before the population covariance is taken and normalized to unit diagonal.
    y_series is never written: this runs correlation_in_place on a copy.
    """
    return CorrelationMatrix.from_matrix(
        correlation_in_place(np.array(y_series, dtype=float), pre_average_window))


def correlation_in_place(y: np.ndarray, pre_average_window: int = 3) -> np.ndarray:
    """The entries of estimate_correlation of a (channels, epochs) float
    array, clipped to [-1, 1] but neither validated nor factored, whose rows
    it pre-averages and centres in place: y is overwritten. A channel-major
    table hands over its memory this way, as table.T, and can be freed
    before CorrelationMatrix.from_matrix factors the entries."""
    if y.ndim != 2:
        raise OutOfDomain("y_series must be 2-D (channels, epochs)")
    n, t = y.shape
    w = int(pre_average_window)
    if w < 1:
        raise OutOfDomain(f"'pre_average_window' must be >= 1, got {pre_average_window!r}")
    if t < w:
        raise OutOfDomain(f"{t} epochs cannot support window {w}")
    t_eff = t - w + 1
    if t_eff <= n:
        raise OutOfDomain(
            f"{t_eff} pre-averaged epochs for {n} channels; need more epochs than channels")
    y = _average_in_place(y, w)
    y -= y.mean(axis=1, keepdims=True)
    cov = y @ y.T / t_eff
    d = np.sqrt(np.diag(cov))
    if np.any(d <= 0.0):
        raise IllConditioned("a channel has zero variance after pre-averaging")
    # from_matrix symmetrizes and sets the unit diagonal
    return np.clip(cov / np.outer(d, d), -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class CopulaModel:
    """Marginals plus correlation; the joint model of channel increments."""

    marginals: tuple[ExponentialMarginal, ...]
    correlation: CorrelationMatrix
    channels: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.marginals) != self.correlation.dim:
            raise OutOfDomain("marginal count must match correlation dimension")
        if not self.channels:
            object.__setattr__(
                self, "channels",
                tuple(f"ch{i}" for i in range(len(self.marginals))))
        elif len(self.channels) != len(self.marginals):
            raise OutOfDomain("channel name count must match marginal count")

    @property
    def dim(self) -> int:
        return len(self.marginals)
