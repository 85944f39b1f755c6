"""Two-tailed exponential marginal distributions for indicator increments.

The density is p(dx) = (1/2 chi) exp(-|dx - m|/chi). The fit is the method of
moments: m is the sample mean and 2 chi^2 the population variance of the
increments. An asymmetric variant carries separate widths below and above m,
each fitted from the one-sided second moment about m, with each side holding
probability mass 1/2.

The distribution function uses the sign convention sgn(0) = 0, which makes
cdf(m) = 1/2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, OutOfDomain
from .rng import UniformStream

EPS_VAR = 1e-12


@dataclass(frozen=True)
class ExponentialMarginal:
    """Fitted two-tailed exponential: location m, width chi.

    chi_minus/chi_plus are populated only by the asymmetric fit; when present
    they replace chi on their respective side of m in every evaluation.
    """

    m: float
    chi: float
    chi_minus: float | None = None
    chi_plus: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.m):
            raise OutOfDomain(f"'m' must be finite, got {self.m!r}")
        if not (self.chi > 0.0 and np.isfinite(self.chi)):
            raise OutOfDomain(f"'chi' must be finite and > 0, got {self.chi!r}")
        if (self.chi_minus is None) != (self.chi_plus is None):
            raise OutOfDomain("'chi_minus' and 'chi_plus' must be given together")
        if self.chi_minus is not None:
            for key in ("chi_minus", "chi_plus"):
                if not 0.0 < getattr(self, key) < np.inf:   # NaN fails too
                    raise OutOfDomain(f"{key!r} must be finite and > 0, "
                                      f"got {getattr(self, key)!r}")

    def width_below(self) -> float:
        return self.chi_minus if self.chi_minus is not None else self.chi

    def width_above(self) -> float:
        return self.chi_plus if self.chi_plus is not None else self.chi

    def side_width(self, t):
        """Width on the side of m where each offset t = dx - m (or dy) lies."""
        return np.where(t < 0.0, self.width_below(), self.width_above())


def fit_exponential(samples, asymmetric: bool = False) -> ExponentialMarginal:
    """Moment fit of the two-tailed exponential to increment samples.

    Raises DegenerateData when the population variance falls below EPS_VAR,
    or when an asymmetric fit finds an empty side.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise DegenerateData("need at least two samples")
    if not np.all(np.isfinite(x)):
        raise OutOfDomain("samples must be finite")
    m = float(np.mean(x))
    var = float(np.mean((x - m) ** 2))
    if var < EPS_VAR:
        raise DegenerateData(f"variance {var:.3e} below floor {EPS_VAR:.3e}")
    chi = float(np.sqrt(var / 2.0))
    if not asymmetric:
        return ExponentialMarginal(m=m, chi=chi)

    below = x[x < m] - m
    above = x[x > m] - m
    if below.size == 0 or above.size == 0:
        raise DegenerateData("asymmetric fit needs samples on both sides of m")
    chi_minus = float(np.sqrt(np.mean(below ** 2) / 2.0))
    chi_plus = float(np.sqrt(np.mean(above ** 2) / 2.0))
    if min(chi_minus, chi_plus) ** 2 < EPS_VAR / 2.0:
        raise DegenerateData("one-sided width below floor")
    return ExponentialMarginal(m=m, chi=chi, chi_minus=chi_minus, chi_plus=chi_plus)


def fit_channels(names, data, asymmetric: bool = False) -> tuple[ExponentialMarginal, ...]:
    """Fit each column of data; a degenerate column's error names its channel."""
    marginals = []
    for i, name in enumerate(names):
        try:
            marginals.append(fit_exponential(data[:, i], asymmetric=asymmetric))
        except DegenerateData as exc:
            raise DegenerateData(f"channel {name!r}: {exc}") from exc
    return tuple(marginals)


def cdf(marginal: ExponentialMarginal, dx):
    """Distribution function, sgn(0) = 0 convention; vectorized."""
    t = np.asarray(dx, dtype=float) - marginal.m
    chi = marginal.side_width(t)
    tail = np.exp(-np.abs(t) / chi)
    out = 0.5 * (1.0 + np.sign(t) * (1.0 - tail))
    return float(out) if out.ndim == 0 else out


def quantile(marginal: ExponentialMarginal, u):
    """Closed-form inverse of cdf. u must lie strictly inside (0, 1)."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(~((u_arr > 0.0) & (u_arr < 1.0))):
        raise OutOfDomain("quantile argument must lie in the open interval (0, 1)")
    lower = u_arr < 0.5
    out = np.where(
        lower,
        marginal.m + marginal.width_below() * np.log(np.maximum(2.0 * u_arr, 1e-320)),
        marginal.m - marginal.width_above() * np.log(np.maximum(2.0 * (1.0 - u_arr), 1e-320)),
    )
    return float(out) if out.ndim == 0 else out


def sample(marginal: ExponentialMarginal, n: int, seed: int,
           stream: int = 0) -> np.ndarray:
    """Draw n increments by inverse-CDF of deterministic uniforms."""
    u = UniformStream(seed, stream).take(int(n))
    return quantile(marginal, u)
