from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tailfolio import anneal, risk
from tailfolio.anneal import AnnealConfig
from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.errors import DegenerateData, OutOfDomain
from tailfolio.events import sample_events
from tailfolio.marginals import ExponentialMarginal
from tailfolio.risk import (ContractPortfolio, LinearPortfolio, RiskConfig,
                            bhattacharyya_overlap, cost_q, expected_tail_loss,
                            fit_bins, optimize_positions, portfolio_returns,
                            q_analytic, q_empirical, returns_from_contracts,
                            risk_report)

from helpers import oracle_contract_returns


def test_linear_returns_manual():
    dx = np.array([[0.1, -0.2], [0.0, 0.5]])
    port = LinearPortfolio(weights=(2.0, 1.0), offsets=(0.01, -0.01))
    dm = portfolio_returns(dx, port)
    assert np.allclose(dm, [0.0, 0.5])
    with pytest.raises(OutOfDomain, match="portfolio dimension must match"):
        portfolio_returns(dx, LinearPortfolio(weights=(1.0,), offsets=(0.0,)))
    with pytest.raises(OutOfDomain, match="weights and offsets must have equal"):
        LinearPortfolio(weights=(1.0, 2.0), offsets=(0.0,))


def test_contract_returns_hand_case():
    # one long contract held, adding a second: K' = 100 + 1*(10-9) = 101,
    # p_next = 10.5, exposure = 2*(10.5-9) = 3, slippage = -0.1*|2-1|,
    # K = 100 + 3 - 0.1 = 102.9, dM = 1.9/101
    port = ContractPortfolio(counts=(2.0,), prices=(10.0,), entry_prices=(9.0,),
                             cash=100.0, prev_counts=(1.0,), slippage=0.1)
    dm = returns_from_contracts(np.array([[0.05]]), port)
    assert dm[0] == pytest.approx(1.9 / 101.0, rel=1e-15)


def test_contract_returns_short_position():
    # sgn(NC) NC (p - pe) values a short as |NC| (p - pe): losses when p rises
    port = ContractPortfolio(counts=(-3.0,), prices=(10.0,), entry_prices=(10.0,),
                             cash=100.0)
    dm = returns_from_contracts(np.array([[0.1], [-0.1]]), port)
    assert dm[0] == pytest.approx(3.0 / 100.0)
    assert dm[1] == pytest.approx(-3.0 / 100.0)


def test_contract_zero_capital():
    port = ContractPortfolio(counts=(1.0,), prices=(10.0,), entry_prices=(10.0,),
                             cash=0.0)
    with pytest.raises(OutOfDomain, match="portfolio value at the anchor epoch is zero"):
        returns_from_contracts(np.array([[0.0]]), port)


def _vector(dim, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=dim, max_size=dim)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 8), fixed_prev=st.booleans(),
       slippage=st.one_of(st.just(0.0), st.floats(1e-4, 5.0)))
def test_contract_kernel_matches_reference(data, dim, fixed_prev, slippage):
    # The compiled kernel regroups the same sums, so it may differ from
    # returns_from_contracts only by rounding: a few ulps of the largest
    # operand, over |K_prev|.
    counts = np.array(data.draw(_vector(dim, -50.0, 50.0)))
    prices = np.array(data.draw(_vector(dim, 1.0, 200.0)))
    entry = np.array(data.draw(_vector(dim, 1.0, 200.0)))
    prev = np.array(data.draw(_vector(dim, -50.0, 50.0))) if fixed_prev else counts
    cash = data.draw(st.floats(-1e4, 1e4))
    dx = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=5 * dim,
                                     max_size=5 * dim))).reshape(5, dim)
    template = ContractPortfolio(counts=(0.0,) * dim, prices=tuple(prices),
                                 entry_prices=tuple(entry), cash=cash,
                                 prev_counts=tuple(prev) if fixed_prev else None,
                                 slippage=slippage)
    kernel = risk._contract_kernel(dx, template)
    # a near-zero K_prev makes both forms overflow to infinities by design
    with np.errstate(over="ignore"):
        try:
            want = returns_from_contracts(dx, replace(template, counts=tuple(counts)))
        except OutOfDomain as exc:
            assert "anchor epoch is zero" in str(exc)
            with pytest.raises(OutOfDomain, match="anchor epoch is zero"):
                kernel(counts)
            return
        got = kernel(counts)

    held = np.abs(counts)
    k_prev = cash + float(np.sum(np.abs(prev) * (prices - entry)))
    magnitude = (abs(cash) + abs(k_prev) + slippage * np.sum(np.abs(counts - prev))
                 + (held * (prices * (1.0 + np.abs(dx)) + entry)).sum(axis=1))
    # |got - want| <= 8 eps magnitude / |K_prev|, with both sides times
    # |K_prev| so the bound cannot overflow; the gap is taken only where both
    # values are finite, and equality covers matching infinities
    finite = np.isfinite(got) & np.isfinite(want)
    gap = np.subtract(got, want, out=np.zeros_like(got), where=finite)
    tol = 8.0 * np.finfo(float).eps * magnitude
    assert np.all((got == want) | finite & (np.abs(gap) * abs(k_prev) <= tol))


@pytest.mark.parametrize("prev", [None, (2.0,)])
def test_contract_kernel_error_parity(prev):
    # K_prev is exactly zero: 0 + 1*(10-10) with prev None, -4 + 2*(12-10)
    # with prev fixed; the kernel raises where the reference does.
    cash, price = (0.0, 10.0) if prev is None else (-4.0, 12.0)
    template = ContractPortfolio(counts=(0.0,), prices=(price,),
                                 entry_prices=(10.0,), cash=cash,
                                 prev_counts=prev, slippage=0.5)
    dx = np.array([[0.01], [-0.02]])
    counts = (1.0,) if prev is None else (3.0,)
    zero = "portfolio value at the anchor epoch is zero"
    with pytest.raises(OutOfDomain, match=zero):
        returns_from_contracts(dx, replace(template, counts=counts))
    kernel = risk._contract_kernel(dx, template)
    with pytest.raises(OutOfDomain, match=zero):
        kernel(np.array(counts))

    wide = np.zeros((2, 2))
    with pytest.raises(OutOfDomain, match="contract dimension must match event"):
        returns_from_contracts(wide, template)
    with pytest.raises(OutOfDomain, match="contract dimension must match event"):
        risk._contract_kernel(wide, template)
    with pytest.raises(OutOfDomain, match="contract arrays must share one length"):
        replace(template, counts=(1.0, 1.0))
    with pytest.raises(OutOfDomain, match="contract arrays must share one length"):
        kernel(np.array([1.0, 1.0]))


def test_fit_bins_counts_and_clipping():
    rng = np.random.default_rng(8)
    x = rng.laplace(0.0, 0.02, size=5000)
    x[0] = 10.0  # beyond the 12-width span; must land in the end bin
    dist = fit_bins(x)
    assert int(dist.bin_counts.sum()) == 5000
    assert dist.bin_counts[-1] >= 1
    assert dist.bin_edges.shape == (202,)
    span = risk.BIN_HALF_WIDTH * dist.width
    assert dist.bin_edges[0] == pytest.approx(dist.mean - span)
    assert dist.bin_edges[-1] == pytest.approx(dist.mean + span)
    assert dist.mean == pytest.approx(float(np.mean(x)))
    assert dist.width == pytest.approx(np.sqrt(np.mean((x - np.mean(x)) ** 2) / 2.0))


def test_fit_bins_asymmetric_and_guards():
    with pytest.raises(DegenerateData):
        fit_bins(np.array([1.0]))
    with pytest.raises(DegenerateData):
        fit_bins(np.zeros(100))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_bins_rejects_non_finite_samples(bad):
    x = np.random.default_rng(3).laplace(0.0, 0.02, size=100)
    x[17] = bad
    with pytest.raises(OutOfDomain):
        fit_bins(x)


def test_q_analytic_frozen():
    # width such that the threshold sits ln(50) widths out gives exactly 0.01
    x = 0.05 / np.log(50.0)
    assert q_analytic(x, 0.0, 0.05) == pytest.approx(0.01, rel=1e-14)
    # mean shifts move the threshold distance
    assert q_analytic(1.0, 0.05, 0.05) == pytest.approx(0.5 * np.exp(-0.1))
    with pytest.raises(OutOfDomain):
        q_analytic(0.0, 0.0, 0.05)


def test_q_empirical_strict_inequality():
    x = np.array([-0.05, -0.050000001, 0.0, 0.1])
    assert q_empirical(x, 0.05) == 0.25
    with pytest.raises(DegenerateData):
        q_empirical(np.array([]), 0.05)


def test_expected_tail_loss():
    x = np.array([-0.2, -0.1, 0.0, 0.3])
    assert expected_tail_loss(x, 0.05) == pytest.approx(-0.15)
    assert expected_tail_loss(np.array([0.1, 0.2]), 0.05) is None


def test_tail_loss_matches_analytic_shape():
    # exponential tail is memoryless: E[dM | dM < -V] = -(V + X) when m = 0
    mg = ExponentialMarginal(m=0.0, chi=0.012781110931766574)
    from tailfolio.marginals import sample
    x = sample(mg, 400000, seed=17)
    etl = expected_tail_loss(x, 0.05)
    assert etl == pytest.approx(-(0.05 + mg.chi), rel=0.05)
    q = q_empirical(x, 0.05)
    assert q == pytest.approx(0.01, abs=0.002)


def test_cost_q():
    assert cost_q(0.013, 0.01) == pytest.approx(0.003)
    assert cost_q(0.007, 0.01) == pytest.approx(0.003)


def test_risk_report_consistent():
    rng = np.random.default_rng(4)
    samples = rng.laplace(-0.001, 0.02, size=20000)
    report, dist = risk_report(samples, RiskConfig())
    assert report.n == 20000
    assert report.mean == dist.mean
    assert report.q_analytic == pytest.approx(
        q_analytic(dist.width, dist.mean, 0.05), rel=1e-12)
    assert report.q_empirical == pytest.approx(
        float(np.mean(samples < -0.05)), rel=1e-12)
    assert report.expected_tail_loss == pytest.approx(
        float(np.mean(samples[samples < -0.05])), rel=1e-12)


def test_bhattacharyya_identical_and_symmetry():
    assert bhattacharyya_overlap(0.1, 0.02, 0.1, 0.02) == pytest.approx(1.0)
    a = bhattacharyya_overlap(0.0, 0.01, 0.03, 0.02)
    b = bhattacharyya_overlap(0.03, 0.02, 0.0, 0.01)
    assert a == pytest.approx(b, rel=1e-14)
    assert 0.0 < a < 1.0
    with pytest.raises(OutOfDomain):
        bhattacharyya_overlap(0.0, 0.0, 0.0, 1.0)


def test_bhattacharyya_frozen_equal_widths():
    # equal widths X, locations 20X apart: coefficient (1 + 10) e^{-10}
    val = bhattacharyya_overlap(0.0, 1.0, 20.0, 1.0)
    assert val == pytest.approx(11.0 * np.exp(-10.0), rel=1e-12)
    assert val == pytest.approx(4.993992273873334e-4, rel=1e-12)


def test_bhattacharyya_matches_quadrature():
    def density(x, m, chi):
        return np.exp(-np.abs(x - m) / chi) / (2.0 * chi)

    cases = [(0.0, 0.01, 0.005, 0.03), (-0.2, 0.5, 0.1, 0.08), (1.0, 1.0, 1.0, 2.0)]
    for m1, x1, m2, x2 in cases:
        val, _ = quad(lambda x: np.sqrt(density(x, m1, x1) * density(x, m2, x2)),
                      -60.0, 60.0, limit=400)
        assert bhattacharyya_overlap(m1, x1, m2, x2) == pytest.approx(val, rel=1e-8)


def make_events(n=20000, seed=31, m=0.002, chi=0.01):
    model = CopulaModel(marginals=(ExponentialMarginal(m=m, chi=chi),),
                        correlation=CorrelationMatrix.from_matrix(np.eye(1)))
    return sample_events(model, n, seed=seed)


def test_optimize_positions_matches_grid():
    dx = make_events()
    template = LinearPortfolio(weights=(1.0,), offsets=(0.0,))
    opt = optimize_positions(dx, template, [(0.0, 5.0)],
                             config=AnnealConfig(seed=3))
    x = dx[:, 0]
    grid = np.linspace(0.0, 5.0, 10000)
    q_grid = np.mean(np.outer(grid, x) < -0.05, axis=1)
    costs = -grid * float(np.mean(x)) + 1e3 * np.abs(q_grid - 0.01)
    best_grid = float(costs.min())
    got = opt.result.cost
    assert got <= best_grid + max(abs(best_grid) * 0.01, 1e-6)
    assert opt.feasible
    assert abs(opt.q - 0.01) < 0.002
    assert opt.portfolio.weights[0] == pytest.approx(opt.result.x[0])


def test_optimize_positions_infeasible_flag():
    dx = make_events(n=5000)
    template = LinearPortfolio(weights=(0.0,), offsets=(0.0,))
    # weight pinned at zero: no losses can reach the tail target
    opt = optimize_positions(dx, template, [(0.0, 0.0)],
                             config=AnnealConfig(seed=1, max_trials=50),
                             refine_calls=0)
    assert not opt.feasible
    assert opt.q == 0.0
    assert opt.cost_q == pytest.approx(0.01)


def test_optimize_positions_keeps_the_anneal_exit_reason():
    dx = make_events(n=2000, seed=7)
    template = LinearPortfolio(weights=(0.0,), offsets=(0.0,))
    # no penalty, so the cost is the linear -mean(dM), least on a bound; no
    # exit, so the anneal runs to its trial limit
    kwargs = dict(risk=RiskConfig(penalty_weight=0.0),
                  config=AnnealConfig(seed=4, max_trials=30, window_repeat_tol=-1.0))
    plain = optimize_positions(dx, template, [(-5.0, 5.0)], refine_calls=0,
                               **kwargs)
    polished = optimize_positions(dx, template, [(-5.0, 5.0)], **kwargs)
    assert polished.result.cost < plain.result.cost      # the polish won
    assert polished.result.trials > plain.result.trials  # and its calls count
    assert plain.result.exit_reason == "trial-limit"
    assert polished.result.exit_reason == plain.result.exit_reason


def test_optimize_positions_contract_template():
    dx = make_events(n=4000, seed=5, m=0.001, chi=0.012)
    template = ContractPortfolio(counts=(0.0,), prices=(50.0,),
                                 entry_prices=(50.0,), cash=1000.0,
                                 prev_counts=(0.0,), slippage=0.0)
    opt = optimize_positions(dx, template, [(0.0, 40.0)],
                             config=AnnealConfig(seed=2, max_trials=2000))
    assert isinstance(opt.portfolio, ContractPortfolio)
    dm = returns_from_contracts(dx, opt.portfolio)
    assert opt.q == pytest.approx(q_empirical(dm, 0.05), rel=1e-12)
    with pytest.raises(OutOfDomain):
        optimize_positions(dx, object(), [(0.0, 1.0)])


class _Compiled(Exception):
    """Carries the cost optimize_positions hands to the annealer."""


def _compiled_cost(dx, template, bounds, config):
    def capture(cost, *args, **kwargs):
        raise _Compiled(cost)

    with mock.patch.object(anneal, "search", capture):
        try:
            optimize_positions(dx, template, bounds, config)
        except _Compiled as done:
            return done.args[0]
    raise AssertionError("optimize_positions did not anneal")


def _bits(v):
    return np.float64(v).tobytes()


@st.composite
def position_cases(draw):
    """Events, a linear or contract template, a point of its free vector
    (zeros of both signs included) and the risk settings."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    dx = np.random.default_rng(draw(st.integers(0, 2 ** 32))).laplace(
        0.0, scale, (n, dim))
    var_level = draw(st.sampled_from([1e-3, 0.01, 0.05]))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-20.0, 20.0))
    vec = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        vec = np.zeros(dim)
    if draw(st.booleans()):
        offsets = draw(st.sampled_from([(0.0,) * dim, (-0.0,) * dim]))
        if draw(st.booleans()):
            # returns exactly at the threshold, which the tail leaves out
            dx[: n // 2 + 1, 0] = -var_level
            vec = np.eye(dim)[0]
        else:
            offsets = draw(st.one_of(st.just(offsets), _vector(dim, -0.1, 0.1)))
        template = LinearPortfolio(weights=(0.0,) * dim, offsets=tuple(offsets))
    else:
        prices = draw(_vector(dim, 1.0, 200.0))
        template = ContractPortfolio(
            counts=(0.0,) * dim, prices=tuple(prices),
            entry_prices=tuple(draw(_vector(dim, 1.0, 200.0))),
            cash=draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e4))),
            prev_counts=draw(st.one_of(st.none(), _vector(dim, -20.0, 20.0)
                                       .map(tuple))),
            slippage=draw(st.one_of(st.just(0.0), st.floats(1e-4, 5.0))))
    config = RiskConfig(var_level=var_level,
                        q_target=draw(st.sampled_from([0.01, 0.2, 1.0])),
                        penalty_weight=draw(st.sampled_from([0.0, 1.0, 1e3])))
    return dx, template, vec, config


@settings(max_examples=400, deadline=None)
@given(case=position_cases())
def test_the_position_cost_is_the_reference_cost_bitwise(case):
    dx, template, vec, config = case
    cost = _compiled_cost(dx, template, [(-20.0, 20.0)] * vec.size, config)
    # the contract reference is the kernel's own first form: the dM of
    # returns_from_contracts groups its sums differently
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            dm = (portfolio_returns(dx, replace(template, weights=tuple(vec)))
                  if isinstance(template, LinearPortfolio)
                  else oracle_contract_returns(dx, template, vec))
        except OutOfDomain as exc:
            assert "anchor epoch is zero" in str(exc)
            with pytest.raises(OutOfDomain, match="anchor epoch is zero"):
                cost(vec)
            return
        want = -float(np.mean(dm)) + config.penalty_weight * cost_q(
            q_empirical(dm, config.var_level), config.q_target)
        assert _bits(cost(vec)) == _bits(want)
