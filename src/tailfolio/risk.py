"""Portfolio aggregation, tail-risk measures, and position optimization.

A portfolio return is either a linear blend dM = sum_j (a_j dx_j + b_j) or the
contract form dM = (K_t - K_t')/K_t' where K is cash plus summed position
values sgn(NC) NC (p - p_entry), next-epoch prices are forecast as
p (1 + dx), and position changes pay slippage -s |delta NC|.

The sampled dM distribution is summarized by the same two-tailed exponential
shape used for channel marginals (mean m_M, width X from the raw second
moment), plus a fixed-width histogram over [m_M - 12X, m_M + 12X] for
diagnostics. The analytic tail probability of losses beyond a value-at-risk
level is Q = 1/2 exp(-| -|VaR| - m_M |/X); the empirical counterpart counts
samples below -|VaR|. Expected tail loss is the mean of that empirical tail
and is reported as absent (None) when the tail holds no samples.

Position optimization anneals the free position vector against
-mean(dM) + penalty * |q_empirical - q_target| on a fixed event batch (common
random numbers), flagging the result infeasible when the best point misses
the tail-probability tolerance. The contract form is affine in dx, so the
optimizer compiles it once per call into a kernel that costs one (n, D)
matvec per evaluation; returns_from_contracts is the reference it is
tested against. The annealed cost is lean, in forms that give the bits of
the plain one: the kernel takes |NC| for sgn(NC) NC (they differ only at
NC = -0.0, where both give dM the same bits) and adds and divides in place,
the objective is -(sum dM / n) with np.mean's own sum, and
q_empirical and cost_q are inlined against the threshold -|VaR|. The
linear offset is added in place, not dropped: a zero offset turns a -0.0
return into 0.0, which the sign of a zero cost can show.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateData, OutOfDomain
from .events import row_cuts
from .marginals import fit_exponential

if TYPE_CHECKING:
    from . import anneal

PENALTY_WEIGHT = 1e3
Q_TARGET = 0.01
Q_TOLERANCE = 0.002
VAR_LEVEL = 0.05
BIN_COUNT = 201
BIN_HALF_WIDTH = 12.0
_GEMV_VALUES = 1 << 13  # values per matrix-vector call in portfolio_returns


def _dx_of(events):
    dx = np.asarray(events, dtype=float)
    if dx.ndim != 2:
        raise OutOfDomain("events must be a 2-D (n, channels) array")
    return dx


@dataclass(frozen=True)
class LinearPortfolio:
    """dM = dx . weights + sum(offsets)."""

    weights: tuple[float, ...]
    offsets: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.offsets):
            raise OutOfDomain("weights and offsets must have equal length")


def portfolio_returns(events, portfolio: LinearPortfolio) -> np.ndarray:
    """dM of each row of events, one matrix-vector call per row chunk of
    about _GEMV_VALUES values, which OpenBLAS runs on the calling thread
    (it threads a dgemv above 9 216 values). The chunks are cut at
    multiples of 8 rows (events.row_cuts), so every row has the bits of one
    call over the whole table on one thread."""
    dx = _dx_of(events)
    w = np.asarray(portfolio.weights, dtype=float)
    if dx.shape[1] != w.size:
        raise OutOfDomain("portfolio dimension must match event channels")
    dm = np.empty(dx.shape[0])
    cuts = row_cuts(dx.shape[0], dx.shape[1], _GEMV_VALUES)
    for a, b in zip(cuts, cuts[1:]):
        np.matmul(dx[a:b], w, out=dm[a:b])
    dm += np.asarray(portfolio.offsets, dtype=float).sum()
    return dm


@dataclass(frozen=True)
class ContractPortfolio:
    """Contract-count portfolio state for one forecast step.

    counts are the next-epoch positions being valued; prev_counts the current
    ones (they only matter through slippage on the change). entry_prices are
    the fill prices the open positions carry.
    """

    counts: tuple[float, ...]
    prices: tuple[float, ...]
    entry_prices: tuple[float, ...]
    cash: float
    prev_counts: tuple[float, ...] | None = None
    slippage: float = 0.0

    def __post_init__(self):
        n = len(self.counts)
        if len(self.prices) != n or len(self.entry_prices) != n:
            raise OutOfDomain("contract arrays must share one length")
        if self.prev_counts is not None and len(self.prev_counts) != n:
            raise OutOfDomain("prev_counts length must match counts")
        if not self.slippage >= 0.0:    # NaN fails too
            raise OutOfDomain(f"'slippage' must be >= 0, got {self.slippage!r}")


def returns_from_contracts(events, portfolio: ContractPortfolio) -> np.ndarray:
    """dM = (K_t - K_t')/K_t' with forecast prices p (1 + dx)."""
    dx = _dx_of(events)
    nc = np.asarray(portfolio.counts, dtype=float)
    if dx.shape[1] != nc.size:
        raise OutOfDomain("contract dimension must match event channels")
    prev = np.asarray(portfolio.prev_counts if portfolio.prev_counts is not None
                      else portfolio.counts, dtype=float)
    p = np.asarray(portfolio.prices, dtype=float)
    pe = np.asarray(portfolio.entry_prices, dtype=float)

    k_prev = portfolio.cash + float(np.sum(np.sign(prev) * prev * (p - pe)))
    if k_prev == 0.0:
        raise OutOfDomain("portfolio value at the anchor epoch is zero")
    p_next = p * (1.0 + dx)
    exposure = (np.sign(nc) * nc) * (p_next - pe)
    slip = -portfolio.slippage * float(np.sum(np.abs(nc - prev)))
    k_next = portfolio.cash + exposure.sum(axis=1) + slip
    return (k_next - k_prev) / k_prev


def _contract_kernel(dx: np.ndarray, template: ContractPortfolio):
    """returns_from_contracts(dx, replace(template, counts=nc)) as a function
    of nc, evaluated as dM = (dx @ (|nc| p) + base) / K_prev with
    base = cash + sum |nc| (p - pe) - s sum |nc - prev| - K_prev. It raises
    OutOfDomain where the reference does."""
    if dx.shape[1] != len(template.counts):
        raise OutOfDomain("contract dimension must match event channels")
    p = np.asarray(template.prices, dtype=float)
    gain = p - np.asarray(template.entry_prices, dtype=float)
    cash, s = template.cash, template.slippage
    fixed = template.prev_counts is not None
    if fixed:
        prev_fixed = np.asarray(template.prev_counts, dtype=float)
        k_fixed = cash + float(np.sum(np.sign(prev_fixed) * prev_fixed * gain))

    def returns(nc):
        nc = np.asarray(nc, dtype=float)
        if nc.shape != p.shape:
            raise OutOfDomain("contract arrays must share one length")
        held = np.abs(nc)
        value = cash + float(np.add.reduce(held * gain))
        k_prev = k_fixed if fixed else value
        if k_prev == 0.0:
            raise OutOfDomain("portfolio value at the anchor epoch is zero")
        slip = s * float(np.add.reduce(np.abs(nc - prev_fixed))) if fixed else 0.0
        dm = dx @ (held * p)
        dm += value - slip - k_prev
        dm /= k_prev
        return dm

    return returns


@dataclass(frozen=True, eq=False)
class PortfolioDistribution:
    """Shape fit plus diagnostic histogram of sampled portfolio returns."""

    mean: float                   # m_M
    width: float                  # X
    count: int
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def fit_bins(samples) -> PortfolioDistribution:
    """Moment fit of the return shape; a BIN_COUNT-bin histogram spans
    mean +- BIN_HALF_WIDTH widths.

    The shape is fit_exponential's. Samples beyond the span are clipped into
    the end bins so counts always sum to the sample count. Moments come from
    the raw samples, never the bins.
    """
    shape = fit_exponential(samples)
    x = np.asarray(samples, dtype=float).ravel()
    span = BIN_HALF_WIDTH * shape.chi
    edges = np.linspace(shape.m - span, shape.m + span, BIN_COUNT + 1)
    clipped = np.clip(x, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return PortfolioDistribution(mean=shape.m, width=shape.chi, count=x.size,
                                 bin_edges=edges, bin_counts=counts)


def q_analytic(width: float, mean: float, var_level: float) -> float:
    """Tail mass of the fitted shape at the loss threshold -|VaR|."""
    if not (width > 0.0):
        raise OutOfDomain("width must be positive")
    return 0.5 * float(np.exp(-abs(-abs(var_level) - mean) / width))


def q_empirical(samples, var_level: float) -> float:
    """Fraction of sampled returns below -|VaR|."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DegenerateData("no samples")
    return float(np.count_nonzero(x < -abs(var_level))) / x.size


def expected_tail_loss(samples, var_level: float) -> float | None:
    """Mean of returns below -|VaR|, summed in ascending order; None when that
    tail is empty."""
    x = np.asarray(samples, dtype=float).ravel()
    tail = x[x < -abs(var_level)]
    if tail.size == 0:
        return None
    return float(np.mean(np.sort(tail)))


def cost_q(q: float, q_target: float = Q_TARGET) -> float:
    return abs(q - q_target)


@dataclass(frozen=True)
class RiskConfig:
    var_level: float = VAR_LEVEL
    q_target: float = Q_TARGET
    q_tolerance: float = Q_TOLERANCE
    penalty_weight: float = PENALTY_WEIGHT

    def __post_init__(self):
        # the bounds of docs/schemas; NaN fails every one
        for key, bound, ok in (("var_level", "> 0", self.var_level > 0.0),
                               ("q_target", "in (0, 1]", 0.0 < self.q_target <= 1.0),
                               ("q_tolerance", "> 0", self.q_tolerance > 0.0),
                               ("penalty_weight", ">= 0", self.penalty_weight >= 0.0),
                               ("var_level", "finite", np.isfinite(self.var_level)),
                               ("q_tolerance", "finite", np.isfinite(self.q_tolerance)),
                               ("penalty_weight", "finite", np.isfinite(self.penalty_weight))):
            if not ok:
                raise OutOfDomain(f"{key!r} must be {bound}, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class RiskReport:
    mean: float
    width: float
    q_analytic: float
    q_empirical: float
    expected_tail_loss: float | None
    var_level: float
    q_target: float
    n: int


def risk_report(samples, config: RiskConfig = RiskConfig()):
    """Fit the return shape and assemble the standard tail-risk summary."""
    dist = fit_bins(samples)
    return RiskReport(
        mean=dist.mean, width=dist.width,
        q_analytic=q_analytic(dist.width, dist.mean, config.var_level),
        q_empirical=q_empirical(samples, config.var_level),
        expected_tail_loss=expected_tail_loss(samples, config.var_level),
        var_level=config.var_level, q_target=config.q_target, n=dist.count,
    ), dist


def bhattacharyya_overlap(mean_a: float, width_a: float,
                          mean_b: float, width_b: float) -> float:
    """Closed-form Bhattacharyya coefficient of two two-tailed exponentials.

    1 for identical shapes, decaying toward 0 as locations separate or widths
    diverge.
    """
    if not (width_a > 0.0 and width_b > 0.0):
        raise OutOfDomain("widths must be positive")
    m1, x1, m2, x2 = ((mean_a, width_a, mean_b, width_b)
                      if mean_a <= mean_b else (mean_b, width_b, mean_a, width_a))
    alpha = 0.5 / x1
    beta = 0.5 / x2
    gap = m2 - m1
    outer = (np.exp(-alpha * gap) + np.exp(-beta * gap)) / (alpha + beta)
    h = (beta - alpha) * gap
    if abs(h) < 1e-12:
        middle = gap * np.exp(-alpha * gap)
    else:
        middle = np.exp(-alpha * gap) * -np.expm1(-h) / (beta - alpha)
    return float((outer + middle) / (2.0 * np.sqrt(x1 * x2)))


@dataclass(frozen=True)
class PositionOptimization:
    portfolio: LinearPortfolio | ContractPortfolio
    objective_value: float
    q: float
    cost_q: float
    feasible: bool
    result: anneal.OptResult


def optimize_positions(events, template, bounds, risk: RiskConfig = RiskConfig(),
                       config: anneal.AnnealConfig | None = None,
                       refine_calls: int = 1000) -> PositionOptimization:
    """Anneal free positions on a fixed event batch under the tail constraint.

    template is a LinearPortfolio (weights free) or ContractPortfolio (counts
    free); bounds follow the free vector. The objective is the negative mean
    return, -(sum dM / n). The reported point is feasible when
    |q_empirical - q_target| < the configured tolerance.
    """
    dx = _dx_of(events)
    n = dx.shape[0]

    def objective(dm):
        return -(float(np.add.reduce(dm)) / n)

    if isinstance(template, LinearPortfolio):
        free, offset = "weights", float(np.sum(template.offsets))

        def returns(vec):
            dm = dx @ vec
            dm += offset
            return dm
    elif isinstance(template, ContractPortfolio):
        free, returns = "counts", _contract_kernel(dx, template)
    else:
        raise OutOfDomain("template must be a LinearPortfolio or ContractPortfolio")

    threshold, q_target = -abs(risk.var_level), risk.q_target
    weight = risk.penalty_weight

    def cost(vec):
        dm = returns(vec)
        if not n:
            raise DegenerateData("no samples")
        q = float(np.count_nonzero(dm < threshold)) / n
        return objective(dm) + weight * abs(q - q_target)

    # the one risk path that anneals: the risk command loads no annealer
    from .anneal import search
    res = search(cost, bounds, config, refine_calls)

    dm = returns(res.x)
    q = q_empirical(dm, risk.var_level)
    cq = cost_q(q, risk.q_target)
    return PositionOptimization(
        portfolio=replace(template, **{free: tuple(res.x.tolist())}),
        objective_value=objective(dm), q=q, cost_q=cq,
        feasible=bool(cq < risk.q_tolerance), result=res)
