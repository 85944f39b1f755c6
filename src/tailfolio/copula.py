"""Gaussian copula layer over two-tailed exponential marginals.

Each channel's increment dx is mapped to a standard normal coordinate

    dy = -sgn(dx - m) ndtri(exp(-|dx - m|/chi) / 2)

which is the normal quantile of the marginal's cdf, taken on the side of the
smaller tail mass so it never forms 1 - exp(-a) and stays exact in the tail.
The inverse map is

    dx = m - sgn(dy) chi ln(1 - erf(|dy|/sqrt 2))

evaluated through erfc to keep the tail accurate. Channel dependence lives
entirely in the correlation matrix of the dy coordinates: the joint density is
the copula factor det(G)^{-1/2} exp(-1/2 dy' (G^{-1} - I) dy) times the
product of marginal densities. The same quadratic form defines an effective
action A = L dt + 1/2 ln det G + (N/2) ln(2 pi dt) with
L = dy' G^{-1} dy / (2 dt^2). ln det G is kept as a log, so neither factor
underflows at high dimension.

Correlation is estimated from trailing moving-average pre-smoothed dy series,
normalized to unit diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.special import erfc, ndtri

from .errors import (DimensionMismatch, IllConditioned, NotPositiveDefinite,
                     OutOfDomain, WindowTooShort)
from .marginals import ExponentialMarginal

Y_MAX = 8.0
EPS_PD = 1e-10
_SQRT2 = float(np.sqrt(2.0))


def to_gaussian(marginal: ExponentialMarginal, dx, y_max: float = Y_MAX):
    """Map increments to standard normal coordinates, clamped to |dy| <= y_max.

    dy = -sgn(t) ndtri(exp(-|t|/chi) / 2) with t = dx - m: the quantile of the
    tail mass beyond |t|, which keeps full relative accuracy however small
    that mass is.
    """
    t = np.asarray(dx, dtype=float) - marginal.m
    chi = marginal.side_width(t)
    dy = np.sign(-t) * ndtri(0.5 * np.exp(-np.abs(t) / chi))
    dy = np.clip(dy, -y_max, y_max)
    return float(dy) if dy.ndim == 0 else dy


def from_gaussian(marginal: ExponentialMarginal, dy):
    """Inverse of to_gaussian (for unclamped |dy|)."""
    y = np.asarray(dy, dtype=float)
    sign = np.sign(y)
    chi = marginal.side_width(y)
    dx = marginal.m - sign * chi * np.log(erfc(np.abs(y) / _SQRT2))
    return float(dx) if dx.ndim == 0 else dx


def cholesky_lower(matrix, pivot_floor: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor with explicit pivot control.

    Raises NotPositiveDefinite at the first pivot (the remaining diagonal
    element before its square root) that fails to exceed pivot_floor: where
    LAPACK stops on a non-positive pivot, or where diag(C)^2 is at or below
    the floor.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    pivots = np.diag(c) ** 2
    if info > 0:
        # LAPACK stops at a non-positive pivot and leaves it, unrooted, in place
        pivots = np.append(pivots[:info - 1], c[info - 1, info - 1])
    low = np.flatnonzero(~(pivots > pivot_floor))
    if low.size or info > 0:
        j = int(low[0]) if low.size else info - 1
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.6e} at index {j} not above floor {pivot_floor:.3e}")
    return c


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Validated unit-diagonal positive definite matrix with cached factors."""

    matrix: np.ndarray      # G, the correlation entries
    cholesky: np.ndarray    # lower C with C C' = G
    inverse: np.ndarray     # G^{-1}
    logdet: float           # ln det G

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "CorrelationMatrix":
        g = np.array(matrix, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatch("correlation matrix must be square")
        if not np.allclose(g, g.T, atol=1e-12):
            raise OutOfDomain("correlation matrix must be symmetric")
        if not np.allclose(np.diag(g), 1.0, atol=1e-12):
            raise OutOfDomain("correlation matrix must have unit diagonal")
        if np.any(np.abs(g) > 1.0 + 1e-12):
            raise OutOfDomain("correlation entries must lie in [-1, 1]")
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 1.0)
        floor = EPS_PD * float(np.max(np.diag(g)))
        c = cholesky_lower(g, pivot_floor=floor)
        c_inv = solve_triangular(c, np.eye(g.shape[0]), lower=True)
        inverse = c_inv.T @ c_inv
        logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
        return cls(matrix=g, cholesky=c, inverse=inverse, logdet=logdet)


def identity_correlation(n: int) -> CorrelationMatrix:
    return CorrelationMatrix.from_matrix(np.eye(n))


def pre_average(y: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average of each row of y; output length T - window + 1."""
    kernel = np.ones(window) / window
    return np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="valid"), 1, y)


def estimate_correlation(y_series, pre_average_window: int = 3) -> CorrelationMatrix:
    """Correlation of pre-averaged normal coordinates.

    y_series has shape (channels, epochs). Each channel is smoothed with a
    trailing moving average of the given window (output length T - w + 1)
    before the population covariance is taken and normalized to unit diagonal.
    """
    y = np.asarray(y_series, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatch("y_series must be 2-D (channels, epochs)")
    n, t = y.shape
    w = int(pre_average_window)
    if w < 1:
        raise OutOfDomain(f"'pre_average_window' must be >= 1, got {pre_average_window!r}")
    if t < w:
        raise WindowTooShort(f"{t} epochs cannot support window {w}")
    y = pre_average(y, w)
    t_eff = y.shape[1]
    if t_eff <= n:
        raise WindowTooShort(
            f"{t_eff} pre-averaged epochs for {n} channels; need more epochs than channels")
    centered = y - y.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / t_eff
    d = np.sqrt(np.diag(cov))
    if np.any(d <= 0.0):
        raise IllConditioned("a channel has zero variance after pre-averaging")
    corr = cov / np.outer(d, d)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    try:
        return CorrelationMatrix.from_matrix(corr)
    except NotPositiveDefinite as exc:
        raise IllConditioned(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class CopulaModel:
    """Marginals plus correlation; the joint model of channel increments."""

    marginals: tuple[ExponentialMarginal, ...]
    correlation: CorrelationMatrix
    channels: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.marginals) != self.correlation.dim:
            raise DimensionMismatch("marginal count must match correlation dimension")
        if not self.channels:
            object.__setattr__(
                self, "channels",
                tuple(f"ch{i}" for i in range(len(self.marginals))))
        elif len(self.channels) != len(self.marginals):
            raise DimensionMismatch("channel name count must match marginal count")

    @property
    def dim(self) -> int:
        return len(self.marginals)


def transform_to_gaussian(model: CopulaModel, dx) -> np.ndarray:
    """Apply to_gaussian channel-wise to rows of dx, shape (..., N)."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape[-1] != model.dim:
        raise DimensionMismatch("dx last axis must match channel count")
    cols = [to_gaussian(m, dx[..., j]) for j, m in enumerate(model.marginals)]
    return np.stack(cols, axis=-1)


def copula_density(corr: CorrelationMatrix, dy):
    """Copula factor det(G)^{-1/2} exp(-1/2 dy' (G^{-1} - I) dy)."""
    dy = np.asarray(dy, dtype=float)
    if dy.shape[-1] != corr.dim:
        raise DimensionMismatch("dy last axis must match correlation dimension")
    excess = corr.inverse - np.eye(corr.dim)
    q = np.einsum("...i,ij,...j->...", dy, excess, dy)
    out = np.exp(-0.5 * (q + corr.logdet))
    return float(out) if out.ndim == 0 else out


def joint_density(model: CopulaModel, dx):
    """Joint increment density: copula factor times marginal densities."""
    from .marginals import pdf

    dx = np.asarray(dx, dtype=float)
    dy = transform_to_gaussian(model, dx)
    dens = copula_density(model.correlation, dy)
    for j, m in enumerate(model.marginals):
        dens = dens * pdf(m, dx[..., j])
    return float(dens) if np.ndim(dens) == 0 else dens


def effective_action(corr: CorrelationMatrix, dy, dt: float):
    """A = L dt + 1/2 ln det G + (N/2) ln(2 pi dt), L = dy' G^{-1} dy / (2 dt^2)."""
    if not (dt > 0.0 and np.isfinite(dt)):
        raise OutOfDomain("dt must be positive")
    dy = np.asarray(dy, dtype=float)
    if dy.shape[-1] != corr.dim:
        raise DimensionMismatch("dy last axis must match correlation dimension")
    lagr = np.einsum("...i,ij,...j->...", dy, corr.inverse, dy) / (2.0 * dt * dt)
    out = lagr * dt + 0.5 * corr.logdet + 0.5 * corr.dim * np.log(2.0 * np.pi * dt)
    return float(out) if out.ndim == 0 else out
