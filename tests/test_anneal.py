import math

import numpy as np
import pytest

from tailfolio.anneal import (SENTINEL, AnnealConfig, generation_delta,
                              importance_sample, local_refine, minimize, search,
                              tangents, temperature)
from tailfolio.errors import CostNotFinite, InvalidBounds
from tailfolio.modelfile import write_trace_csv
from tailfolio.rng import UniformStream


def test_temperature_closed_form():
    assert temperature(0.0) == 1.0
    assert temperature(4.0, t0=2.0, c=0.5, d=2) == pytest.approx(2.0 * np.exp(-1.0))
    k = np.array([1.0, 8.0, 27.0])
    got = temperature(k, t0=3.0, c=2.0, d=3)
    assert np.allclose(got, 3.0 * np.exp(-2.0 * np.array([1.0, 2.0, 3.0])))


def test_temperature_beats_slow_schedules():
    k = np.arange(1024.0, 1e6, 997.0)
    t_fast = temperature(k, t0=1.0, c=1.0, d=1)
    assert np.all(t_fast < 1.0 / k)
    assert np.all(t_fast < 1.0 / np.log(k))


def test_generation_delta_endpoints():
    assert generation_delta(0.5, 0.1) == 0.0
    assert generation_delta(1.0, 0.1) == pytest.approx(1.0)
    assert generation_delta(0.0, 0.1) == pytest.approx(-1.0)
    assert generation_delta(0.0, 1e-8) == pytest.approx(-1.0)


def test_generation_concentrates_as_temperature_falls():
    # P(|delta| <= z) = ln(1 + z/T) / ln(1 + 1/T)
    t, z = 1e-3, 0.05
    analytic = np.log1p(z / t) / np.log1p(1.0 / t)
    assert analytic == pytest.approx(0.5691, abs=5e-4)
    u = UniformStream(19).take(200000)
    frac = float(np.mean(np.abs(generation_delta(u, t)) <= z))
    assert frac == pytest.approx(analytic, abs=0.01)
    frac_hot = float(np.mean(np.abs(generation_delta(u, 1.0)) <= z))
    assert frac_hot < frac


def test_minimize_bowl():
    res = minimize(lambda p: float(np.sum((p - 0.3) ** 2)),
                   [(-2.0, 2.0)] * 3, AnnealConfig(seed=4))
    assert res.cost < 1e-3
    assert np.max(np.abs(res.x - 0.3)) < 0.05
    polished = local_refine(lambda p: float(np.sum((p - 0.3) ** 2)),
                            res.x, [(-2.0, 2.0)] * 3)
    assert polished.cost < 1e-12


def test_minimize_deterministic():
    def f(p):
        return float(np.sum(p ** 2) + np.sin(5 * p).sum())

    a = minimize(f, [(-3.0, 3.0)] * 2, AnnealConfig(seed=11, max_trials=2000))
    b = minimize(f, [(-3.0, 3.0)] * 2, AnnealConfig(seed=11, max_trials=2000))
    assert np.array_equal(a.x, b.x)
    assert a.cost == b.cost
    assert a.trials == b.trials
    assert a.exit_reason in ("acceptance-repeat", "trial-limit")


def test_minimize_frozen_dimension():
    res = minimize(lambda p: float((p[0] - 1.0) ** 2 + p[1] ** 2),
                   [(0.0, 3.0), (0.7, 0.7)], AnnealConfig(seed=2, max_trials=3000))
    assert res.x[1] == 0.7
    assert res.x[0] == pytest.approx(1.0, abs=0.05)


def test_minimize_x0_and_clip():
    calls = []

    def f(p):
        calls.append(p.copy())
        return float(np.sum(p ** 2))

    minimize(f, [(-1.0, 1.0)] * 2,
             AnnealConfig(seed=0, max_trials=5, x0=np.array([5.0, -5.0])))
    assert np.array_equal(calls[0], [1.0, -1.0])


def test_minimize_guards():
    with pytest.raises(InvalidBounds):
        minimize(lambda p: 0.0, [(1.0, 0.0)])
    with pytest.raises(InvalidBounds):
        minimize(lambda p: 0.0, [(0.0, np.inf)])
    with pytest.raises(InvalidBounds):
        minimize(lambda p: 0.0, [(0.0, 1.0)], AnnealConfig(t0=-1.0))
    with pytest.raises(CostNotFinite):
        minimize(lambda p: np.nan, [(0.0, 1.0)])


def test_minimize_reanneal_anisotropic():
    # one stiff and one sloppy direction; reannealing should not break descent
    def f(p):
        return float(1e4 * (p[0] - 0.2) ** 2 + (p[1] + 0.4) ** 2)

    res = minimize(f, [(-1.0, 1.0)] * 2,
                   AnnealConfig(seed=6, max_trials=8000, reanneal_interval=50))
    assert res.cost < 1e-2
    assert abs(res.x[0] - 0.2) < 1e-2


def test_trace_file_format(tmp_path):
    path = tmp_path / "trace.csv"
    res = minimize(lambda p: float(np.sum(p ** 2)), [(-1.0, 1.0)],
                   AnnealConfig(seed=1, max_trials=200))
    write_trace_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,cost,accept_temp"
    assert len(lines) == res.trials + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[2]) > 0.0


def test_best_tracked_over_all_evaluations():
    seen = {}

    def f(p):
        v = float(np.sum((p - 0.1) ** 2))
        seen[v] = p.copy()
        return v

    res = minimize(f, [(-1.0, 1.0)] * 2, AnnealConfig(seed=9, max_trials=1500))
    assert res.cost == min(seen)


def test_local_refine_never_worse_and_budgeted():
    calls = []

    def f(p):
        calls.append(1)
        return float((p[0] - 0.5) ** 4)

    start = np.array([0.9])
    res = local_refine(f, start, [(0.0, 1.0)], max_calls=60)
    assert res.cost <= f(start)
    # one extra call above for the assertion itself
    assert len(calls) <= 60 + 2 * 2 + 1
    assert res.exit_reason in ("converged", "trial-limit")


def test_local_refine_nonfinite_start():
    with pytest.raises(CostNotFinite):
        local_refine(lambda p: np.inf, np.array([0.5]), [(0.0, 1.0)])


def test_local_refine_handles_nan_region():
    def f(p):
        if p[0] > 0.8:
            return np.nan
        return float((p[0] - 0.2) ** 2)

    res = local_refine(f, np.array([0.6]), [(0.0, 1.0)])
    assert res.cost < 1e-10
    assert abs(res.x[0] - 0.2) < 1e-4


def test_importance_sample_trajectory():
    def log_density(p):
        return -float(np.sum((p - 0.7) ** 2))

    # n = 50 sits below the first acceptance window, so the cap is what stops it
    sample = importance_sample(log_density, [(-2.0, 2.0)] * 2,
                               AnnealConfig(seed=3, max_trials=3000), n=50)
    assert sample.points.shape == (50, 2)
    assert sample.neg_log_density.shape == (50,)
    assert sample.result.acceptances == 50
    assert sample.result.exit_reason == "acceptance-limit"
    k = 20
    assert sample.neg_log_density[k] == pytest.approx(
        float(np.sum((sample.points[k] - 0.7) ** 2)))
    assert sample.acceptance_rate == pytest.approx(50.0 / sample.result.trials)


def test_multiwell_with_refine_hits_global():
    def f(p):
        x, y = p
        return (x * x + y * y) / 4.0 + 5.0 * (1.0 - np.cos(3 * np.pi * x)) * (1.0 - np.cos(3 * np.pi * y))

    hits = 0
    for seed in range(8):
        res = minimize(f, [(-1.0, 1.0)] * 2, AnnealConfig(seed=seed))
        res = local_refine(f, res.x, [(-1.0, 1.0)] * 2, max_calls=1000)
        if res.cost <= 1e-4:
            hits += 1
    assert hits >= 7


def _bowl(p):
    return float(np.sum((p - 0.3) ** 2))


class _Counted:
    """A cost that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, p):
        self.calls += 1
        return self.fn(p)


def _anneal_and_search(fn, bounds, config, refine_calls):
    """minimize's result, search's result and the calls search made beyond
    the anneal's, which are the polish's."""
    plain, searched = _Counted(fn), _Counted(fn)
    anneal = minimize(plain, bounds, config)
    res = search(searched, bounds, config, refine_calls)
    return anneal, res, searched.calls - plain.calls


def _assert_anneal_record(res, anneal):
    assert res.acceptances == anneal.acceptances
    assert res.exit_reason == anneal.exit_reason
    assert res.window_best == anneal.window_best
    assert res.trace == anneal.trace


def test_search_without_refine_calls_skips_the_polish():
    anneal, res, polish_calls = _anneal_and_search(
        _bowl, [(-2.0, 2.0)] * 2, AnnealConfig(seed=1, max_trials=300), 0)
    assert polish_calls == 0
    assert np.array_equal(res.x, anneal.x)
    assert (res.cost, res.trials) == (anneal.cost, anneal.trials)
    _assert_anneal_record(res, anneal)


def test_search_winning_polish_gives_its_point_and_counts_its_calls():
    bounds, cfg = [(-2.0, 2.0)] * 2, AnnealConfig(seed=1, max_trials=300)
    anneal, res, polish_calls = _anneal_and_search(_bowl, bounds, cfg, 200)
    polish = local_refine(_bowl, anneal.x, bounds, max_calls=200)
    assert polish.cost < anneal.cost
    assert np.array_equal(res.x, polish.x)
    assert res.cost == polish.cost < 1e-12
    assert polish_calls > 0
    assert res.trials == anneal.trials + polish_calls
    _assert_anneal_record(res, anneal)


def test_search_flat_cost_keeps_the_annealed_point_and_counts_the_polish():
    anneal, res, polish_calls = _anneal_and_search(
        lambda p: 2.0, [(-2.0, 2.0)] * 2, AnnealConfig(seed=1, max_trials=50), 200)
    assert np.array_equal(res.x, anneal.x)
    assert res.cost == anneal.cost
    assert polish_calls > 0
    assert res.trials == anneal.trials + polish_calls
    _assert_anneal_record(res, anneal)


def test_search_polish_never_returns_a_worse_point():
    def wells(p):
        return float(np.sum(p * p) + np.sum(1.0 - np.cos(7.0 * p)))

    for seed in range(4):
        anneal, res, _ = _anneal_and_search(
            wells, [(-1.0, 1.0)] * 3, AnnealConfig(seed=seed, max_trials=200), 60)
        assert res.cost <= anneal.cost


def test_search_skips_the_polish_at_the_sentinel():
    anneal, res, polish_calls = _anneal_and_search(
        lambda p: SENTINEL, [(-1.0, 1.0)] * 2, AnnealConfig(seed=1, max_trials=50), 200)
    assert anneal.cost == SENTINEL == 1e30
    assert polish_calls == 0
    assert np.array_equal(res.x, anneal.x)
    assert (res.cost, res.trials) == (anneal.cost, anneal.trials)
    _assert_anneal_record(res, anneal)


def test_reanneal_probes_each_free_dimension_once():
    bounds = [(-1.0, 1.0), (0.4, 0.4), (-2.0, 1.0), (0.0, 3.0)]
    for interval in (10, 25):
        cost = _Counted(lambda p: float(np.sum((p - 0.3) ** 2) + np.sin(4.0 * p).sum()))
        # no convergence exit, so every multiple of the interval reanneals
        res = minimize(cost, bounds, AnnealConfig(seed=3, max_trials=1500,
                                                  reanneal_interval=interval,
                                                  window_repeat_tol=-1.0))
        reanneals = res.acceptances // interval
        assert reanneals >= 5
        # the start point, one call per trial, one probe per free dimension
        assert cost.calls == 1 + res.trials + 3 * reanneals


def test_tangents_probe_one_side_and_skip_fixed_dimensions():
    seen = []

    def f(p):
        seen.append(p.copy())
        return float(p @ np.array([1.0, -2.0, 4.0, 8.0]))

    lo, hi = np.zeros(4), np.ones(4)
    step = np.full(4, 1e-3)
    x = np.array([0.5, 1.0 - 4e-4, 0.0, 0.25])
    sens = tangents(f, x, f(x), step, lo, hi, np.array([True, True, True, False]))
    probes = seen[1:]
    assert len(probes) == 3
    for i, probe in enumerate(probes):
        moved = np.flatnonzero(probe != x)
        assert list(moved) == [i]
    assert probes[0][0] == 0.5 + 1e-3
    assert probes[1][1] == x[1] - 1e-3      # within one step of hi: downward
    assert probes[2][2] == 1e-3
    assert sens[3] == 0.0
    assert sens[:3] == pytest.approx([1.0, 2.0, 4.0], rel=1e-9)


def test_minimize_is_offset_invariant_with_explicit_accept_t0():
    # costs on a 2^-20 grid plus an offset exact in binary: every cost
    # difference the annealer takes is the same with and without it
    def f(p):
        return math.floor(float(np.sum((p - 0.3) ** 2) + np.sin(5.0 * p).sum())
                          * 2.0 ** 20) / 2.0 ** 20

    bounds = [(-1.0, 1.0)] * 4
    for seed in (1, 2):
        cfg = AnnealConfig(seed=seed, max_trials=4000, accept_t0=1.0,
                           reanneal_interval=40)
        a = minimize(f, bounds, cfg)
        b = minimize(lambda p: f(p) + 1024.0, bounds, cfg)
        assert np.array_equal(a.x, b.x)
        assert (a.trials, a.acceptances, a.exit_reason) == (
            b.trials, b.acceptances, b.exit_reason)
        assert b.cost == a.cost + 1024.0
