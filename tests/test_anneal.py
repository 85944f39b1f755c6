import math
import os
import select
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfolio import anneal
from tailfolio.anneal import (_T_FLOOR, COST_SAMPLES, SENTINEL, TEMPERATURE_BLOCK,
                              TEMPERATURE_RATIO, AnnealConfig,
                              generate_candidate, local_refine,
                              minimize, search, tangents, temperature)
from tailfolio.errors import OutOfDomain
from tailfolio.modelfile import write_trace_csv
from tailfolio.rng import UniformStream

from helpers import (assert_same_run, candidate, open_fds, oracle_generate_candidate,
                     oracle_generation_delta, oracle_minimize)


def test_temperature_closed_form():
    assert temperature(0.0) == 1.0
    assert temperature(4.0, c=0.5, d=2) == pytest.approx(np.exp(-1.0))
    k = np.array([1.0, 8.0, 27.0])
    got = temperature(k, c=2.0, d=3)
    assert np.allclose(got, np.exp(-2.0 * np.array([1.0, 2.0, 3.0])))


def test_temperature_beats_slow_schedules():
    k = np.arange(1024.0, 1e6, 997.0)
    t_fast = temperature(k, c=1.0, d=1)
    assert np.all(t_fast < 1.0 / k)
    assert np.all(t_fast < 1.0 / np.log(k))


def test_generation_delta_endpoints():
    delta = _law([0.5, 1.0, 0.0, 0.0], [0.1, 0.1, 0.1, 1e-8])
    assert delta[0] == 0.0
    assert delta[1:] == pytest.approx([1.0, -1.0, -1.0])
    # numpy's array power; its scalar power gives -8.49682865651887e-205 here
    assert _law([0.3401179052324315], [0.0])[0] == -8.496828656518868e-205


def test_generation_concentrates_as_temperature_falls():
    # P(|delta| <= z) = ln(1 + z/T) / ln(1 + 1/T)
    t, z = 1e-3, 0.05
    analytic = np.log1p(z / t) / np.log1p(1.0 / t)
    assert analytic == pytest.approx(0.5691, abs=5e-4)
    u = UniformStream(19).take(200000)
    frac = float(np.mean(np.abs(oracle_generation_delta(u, t)) <= z))
    assert frac == pytest.approx(analytic, abs=0.01)
    frac_hot = float(np.mean(np.abs(oracle_generation_delta(u, 1.0)) <= z))
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
    assert a.exit_reason in ("cost-repeat", "trial-limit")


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
    with pytest.raises(OutOfDomain, match="lower bound must not exceed"):
        minimize(lambda p: 0.0, [(1.0, 0.0)])
    with pytest.raises(OutOfDomain, match="bounds must be finite"):
        minimize(lambda p: 0.0, [(0.0, np.inf)])
    # the schema's bounds on the knobs; NaN fails each of them
    for key, bad in (("max_trials", 0), ("max_trials", np.nan),
                     # a negative tolerance turns the exit off; NaN must not,
                     # and +inf would end every run after max_trials // 10 trials
                     ("window_repeat_tol", np.nan), ("window_repeat_tol", np.inf)):
        with pytest.raises(OutOfDomain, match=f"'{key}'"):
            minimize(lambda p: 0.0, [(0.0, 1.0)] * 2, AnnealConfig(**{key: bad}))
    # -inf, as any negative tolerance, turns the exit off
    res = minimize(lambda p: float(np.sum(p ** 2)), [(-1.0, 1.0)] * 3,
                   AnnealConfig(seed=1, max_trials=300, window_repeat_tol=-np.inf))
    assert res.trials == 300 and res.exit_reason == "trial-limit"
    # a budget must be a whole number of trials: an infinite one would never
    # end (c = 0 holds every temperature at 1), so this cost ends such a run
    # rather than the suite
    calls = []

    def bounded(p):
        calls.append(p)
        if len(calls) > 300:
            raise AssertionError("the budget was annealed, not refused")
        return 0.0

    for bad in (np.inf, 2.5):
        with pytest.raises(OutOfDomain, match="'max_trials'"):
            minimize(bounded, [(0.0, 1.0)] * 2, AnnealConfig(max_trials=bad))
    # an integral float is its int, as the config reader reads 100.0
    want, got = (minimize(lambda p: float(np.sum(p ** 2)), [(-1.0, 1.0)] * 3,
                          AnnealConfig(seed=1, max_trials=budget))
                 for budget in (100, 100.0))
    assert_same_run(got, want)
    # and search's polish budget must be finite
    for bad in (-1, np.nan, np.inf):
        with pytest.raises(OutOfDomain, match="'refine_calls'"):
            search(bounded, [(0.0, 1.0)], AnnealConfig(max_trials=5), refine_calls=bad)
    # x0 must hold one value per bound, before any clipping could broadcast it
    for x0 in ([0.5], [0.1, 0.2, 0.3, 0.4], [[0.5, 0.5]]):
        with pytest.raises(OutOfDomain, match="x0"):
            minimize(lambda p: 0.0, [(0.0, 1.0)] * 2, AnnealConfig(x0=x0))
    with pytest.raises(OutOfDomain, match="not finite at the initial point"):
        minimize(lambda p: np.nan, [(0.0, 1.0)])


def test_minimize_reanneal_anisotropic(monkeypatch):
    # one stiff and one sloppy direction; reannealing should not break descent
    def f(p):
        return float(1e4 * (p[0] - 0.2) ** 2 + (p[1] + 0.4) ** 2)

    monkeypatch.setattr(anneal, "REANNEAL_INTERVAL", 50)
    res = minimize(f, [(-1.0, 1.0)] * 2, AnnealConfig(seed=6, max_trials=8000))
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


@pytest.mark.usefixtures("serial")
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
    with pytest.raises(OutOfDomain, match="not finite at the refine start"):
        local_refine(lambda p: np.inf, np.array([0.5]), [(0.0, 1.0)])


def test_local_refine_handles_nan_region():
    def f(p):
        if p[0] > 0.8:
            return np.nan
        return float((p[0] - 0.2) ** 2)

    res = local_refine(f, np.array([0.6]), [(0.0, 1.0)])
    assert res.cost < 1e-10
    assert abs(res.x[0] - 0.2) < 1e-4


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
    assert res.trace == anneal.trace


@pytest.mark.usefixtures("serial")
def test_search_without_refine_calls_skips_the_polish():
    anneal, res, polish_calls = _anneal_and_search(
        _bowl, [(-2.0, 2.0)] * 2, AnnealConfig(seed=1, max_trials=300), 0)
    assert polish_calls == 0
    assert np.array_equal(res.x, anneal.x)
    assert (res.cost, res.trials) == (anneal.cost, anneal.trials)
    _assert_anneal_record(res, anneal)


@pytest.mark.usefixtures("serial")
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


@pytest.mark.usefixtures("serial")
def test_search_flat_cost_keeps_the_annealed_point_and_counts_the_polish():
    anneal, res, polish_calls = _anneal_and_search(
        lambda p: 2.0, [(-2.0, 2.0)] * 2, AnnealConfig(seed=1, max_trials=50), 200)
    assert np.array_equal(res.x, anneal.x)
    assert res.cost == anneal.cost
    assert polish_calls > 0
    assert res.trials == anneal.trials + polish_calls
    _assert_anneal_record(res, anneal)


@pytest.mark.usefixtures("serial")
def test_search_polish_never_returns_a_worse_point():
    def wells(p):
        return float(np.sum(p * p) + np.sum(1.0 - np.cos(7.0 * p)))

    for seed in range(4):
        anneal, res, _ = _anneal_and_search(
            wells, [(-1.0, 1.0)] * 3, AnnealConfig(seed=seed, max_trials=200), 60)
        assert res.cost <= anneal.cost


@pytest.mark.usefixtures("serial")
def test_search_skips_the_polish_at_the_sentinel():
    anneal, res, polish_calls = _anneal_and_search(
        lambda p: SENTINEL, [(-1.0, 1.0)] * 2, AnnealConfig(seed=1, max_trials=50), 200)
    assert anneal.cost == SENTINEL == 1e30
    assert polish_calls == 0
    assert np.array_equal(res.x, anneal.x)
    assert (res.cost, res.trials) == (anneal.cost, anneal.trials)
    _assert_anneal_record(res, anneal)


@pytest.mark.usefixtures("serial")
def test_reanneal_probes_each_free_dimension_once(monkeypatch):
    bounds = [(-1.0, 1.0), (0.4, 0.4), (-2.0, 1.0), (0.0, 3.0)]
    for interval in (10, 25):
        cost = _Counted(lambda p: float(np.sum((p - 0.3) ** 2) + np.sin(4.0 * p).sum()))
        monkeypatch.setattr(anneal, "REANNEAL_INTERVAL", interval)
        # no convergence exit, so every multiple of the interval reanneals
        res = minimize(cost, bounds, AnnealConfig(seed=3, max_trials=1500,
                                                  window_repeat_tol=-1.0))
        reanneals = res.acceptances // interval
        assert reanneals >= 5
        # the start point, the cost samples, one call per trial, one probe
        # per free dimension
        assert cost.calls == 1 + COST_SAMPLES + res.trials + 3 * reanneals


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


def test_minimize_is_offset_invariant_with_the_default_config():
    # costs on a 2^-20 grid plus an offset exact in binary: every cost
    # difference the annealer takes is the same with and without it; the
    # cost scale that sets the acceptance temperature and the exit's
    # precision is a spread of cost differences, so the offset cancels in it
    def f(p):
        return math.floor(float(np.sum((p - 0.3) ** 2) + np.sin(5.0 * p).sum())
                          * 2.0 ** 20) / 2.0 ** 20

    bounds = [(-1.0, 1.0)] * 4
    for seed in (1, 2):
        cfg = AnnealConfig(seed=seed, max_trials=4000)
        a = minimize(f, bounds, cfg)
        b = minimize(lambda p: f(p) + 1024.0, bounds, cfg)
        assert np.array_equal(a.x, b.x)
        assert (a.trials, a.acceptances, a.exit_reason) == (
            b.trials, b.acceptances, b.exit_reason)
        assert b.cost == a.cost + 1024.0


def test_metropolis_draws_leave_the_generation_stream_alone(monkeypatch):
    streams, decided = [], []
    one = UniformStream.one

    def recording(x, temps, lo, hi, uniforms, regen_attempts=100, **kw):
        streams.append(uniforms)
        return generate_candidate(x, temps, lo, hi, uniforms, regen_attempts, **kw)

    def counting(self):
        decided.append(self)
        return one(self)

    monkeypatch.setattr(anneal, "generate_candidate", recording)
    monkeypatch.setattr(UniformStream, "one", counting)
    minimize(_interior, [(-1.0, 1.0)] * 3, AnnealConfig(seed=2, max_trials=500))
    assert len(decided) > 10    # uphill candidates drew their Metropolis uniform
    assert all(s is streams[0] for s in streams)
    assert all(s is not streams[0] for s in decided)


def test_the_exit_fires_on_a_smooth_bowl():
    res = minimize(_bowl, [(-1.0, 1.0)] * 24, AnnealConfig(seed=3))
    assert res.exit_reason == "cost-repeat"
    assert res.trials < AnnealConfig().max_trials


def test_a_start_at_the_optimum_does_not_end_the_run():
    # no trial can beat x0 here; the exit counts gains from the first trial,
    # so the trials still descend, and x0 is still the returned best
    d, budget = 4, 2000
    res = minimize(_bowl, [(-1.0, 1.0)] * d,
                   AnnealConfig(seed=1, max_trials=budget, x0=np.full(d, 0.3)))
    assert res.cost == 0.0 and np.all(res.x == 0.3)
    assert res.trials > budget // 10
    costs = np.asarray(res.trace)[0::2]
    assert costs.min() < 1e-2 * costs[0]


# 1e-300 to 10, and below the floor (zero and subnormal)
_TEMPS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-12, 1e-3,
                                    1.0, 10.0]),
                   st.floats(-300.0, 1.0).map(lambda e: 10.0 ** e))


@settings(max_examples=200, deadline=None)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       temp=st.one_of(st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 10.0]),
                      st.floats(-300.0, 1.0).map(lambda e: 10.0 ** e)))
def test_generation_delta_matches_the_oracle_law_bitwise(u, temp):
    got = _law(u, [temp] * len(u))
    assert got.tobytes() == oracle_generation_delta(np.array(u), temp).tobytes()


def _law(u, temps):
    """The generating law per coordinate as generate_candidate evaluates it:
    anneal._delta at temperatures floored at _T_FLOOR."""
    t = np.maximum(np.array(temps, dtype=float), _T_FLOOR)
    return anneal._delta(np.array(u, dtype=float), t, 1.0 + 1.0 / t)


@st.composite
def candidate_cases(draw):
    """x in a box (on bounds, corners and degenerate dimensions included),
    per-coordinate temperatures, a retry cap and a stream offset that puts
    the draws near or across a buffer refill."""
    d = draw(st.integers(1, 24))
    lo = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
    span = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
                                  min_size=d, max_size=d)))
    hi = lo + span
    frac = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                            st.floats(0.0, 1.0)),
                                  min_size=d, max_size=d)))
    x = np.where(frac == 0.0, lo, np.where(frac == 1.0, hi, lo + frac * span))
    x = np.clip(x, lo, hi)
    temps = np.array(draw(st.lists(_TEMPS, min_size=d, max_size=d)))
    regen = draw(st.sampled_from([0, 1, 2, 3, 100]))
    skip = draw(st.one_of(st.integers(0, 64), st.integers(8100, 8192)))
    return x, temps, lo, hi, regen, draw(st.integers(0, 2 ** 32)), skip


def _assert_same_candidate(x, temps, lo, hi, regen, seed, skip):
    stream, oracle = UniformStream(seed), UniformStream(seed)
    stream.take(skip)
    oracle.take(skip)
    x_before = x.copy()
    got = candidate(x, temps, lo, hi, stream, regen)
    want = oracle_generate_candidate(x, temps, lo, hi, oracle, regen)
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == x_before.tobytes()
    # the same uniforms were consumed
    assert stream.take(5).tobytes() == oracle.take(5).tobytes()
    assert stream.one() == oracle.one()


@settings(max_examples=400, deadline=None)
@given(case=candidate_cases())
def test_generate_candidate_matches_the_round_major_oracle_bitwise(case):
    _assert_same_candidate(*case)


def test_generate_candidate_redraws_round_by_round():
    # from the upper corner every draw with u > 1/2 leaves the box, so about
    # half of all draws are redrawn, some over many rounds; each round is one
    # take of exactly the uniforms the oracle draws in that round
    d = 8
    lo, hi = np.zeros(d), np.ones(d)
    stream, oracle = UniformStream(5), UniformStream(5)
    rounds, oracle_rounds = [], []

    def counting(take, log):
        def counted(n):
            log.append(n)
            return take(n)
        return counted

    stream.take = counting(stream.take, rounds)
    oracle.take = counting(oracle.take, oracle_rounds)
    longest = 0
    for trial in range(300):
        rounds.clear()
        oracle_rounds.clear()
        temps = np.full(d, 10.0 ** (1 - trial % 7))
        got = candidate(hi, temps, lo, hi, stream)
        want = oracle_generate_candidate(hi, temps, lo, hi, oracle)
        assert got.tobytes() == want.tobytes()
        assert rounds == oracle_rounds
        longest = max(longest, len(rounds))
    assert longest >= 10
    assert stream.take(5).tobytes() == oracle.take(5).tobytes()


def _corner_linear(p):
    return float(p @ np.linspace(-1.0, 1.5, p.size))


def _interior(p):
    return float(np.sum((p - np.linspace(-0.4, 0.6, p.size)) ** 2)
                 + 0.1 * np.sin(5.0 * p).sum())


# a hot chain: its temperatures fall only to 0.9 of their start over the
# budget, and it reanneals every 40 acceptances
HOT_RATIO = 0.9
HOT = {"TEMPERATURE_RATIO": HOT_RATIO, "REANNEAL_INTERVAL": 40}


@pytest.mark.parametrize("d, cost", [(8, _corner_linear), (24, _interior)])
def test_minimize_matches_minimize_on_the_oracle_candidate(monkeypatch, d, cost):
    bounds = [(-1.0, 1.0)] * d
    bounds[1] = (0.25, 0.25)
    # a hot chain on the whole budget, so that it reanneals
    for key, value in HOT.items():
        monkeypatch.setattr(anneal, key, value)
    cfg = AnnealConfig(seed=d, max_trials=3000, window_repeat_tol=-1.0)
    res = minimize(cost, bounds, cfg)
    monkeypatch.setattr(anneal, "generate_candidate", oracle_generate_candidate)
    oracle = minimize(cost, bounds, cfg)
    assert res.x.tobytes() == oracle.x.tobytes()
    assert (res.cost, res.trials, res.acceptances, res.exit_reason) == (
        oracle.cost, oracle.trials, oracle.acceptances, oracle.exit_reason)
    assert res.trace.tobytes() == oracle.trace.tobytes()
    assert res.acceptances >= 2 * anneal.REANNEAL_INTERVAL


@pytest.mark.usefixtures("serial")
@pytest.mark.parametrize("d", [1, 2, 3, 24])
def test_minimize_trial_temperatures_are_the_schedule_bitwise(monkeypatch, d):
    seen = []

    def recording(x, temps, lo, hi, uniforms, regen_attempts=100, **kw):
        seen.append(temps.copy())
        return generate_candidate(x, temps, lo, hi, uniforms, regen_attempts, **kw)

    monkeypatch.setattr(anneal, "generate_candidate", recording)
    # a schedule sized to a ratio other than the default's
    monkeypatch.setattr(anneal, "TEMPERATURE_RATIO", 0.3)
    # no reanneal and no exit, so trial k runs at annealing time k in every
    # dimension, for every trial of three blocks and part of a fourth
    monkeypatch.setattr(anneal, "REANNEAL_INTERVAL", 10 ** 6)
    trials = 3 * TEMPERATURE_BLOCK + 7
    minimize(_interior, [(-1.0, 1.0)] * d,
             AnnealConfig(seed=1, max_trials=trials, window_repeat_tol=-1.0))
    c = -math.log(0.3) * trials ** -(1.0 / d)
    assert len(seen) == trials
    for k, temps in enumerate(seen):
        want = np.maximum(temperature(np.full(d, float(k)), c, d), _T_FLOOR)
        assert np.maximum(temps, _T_FLOOR).tobytes() == want.tobytes()


@pytest.mark.usefixtures("serial")
def test_the_default_schedule_reaches_the_temperature_ratio_at_the_budget(
        monkeypatch):
    seen = []

    def recording(x, temps, lo, hi, uniforms, regen_attempts=100, **kw):
        seen.append(temps.copy())
        return generate_candidate(x, temps, lo, hi, uniforms, regen_attempts, **kw)

    monkeypatch.setattr(anneal, "generate_candidate", recording)
    monkeypatch.setattr(anneal, "REANNEAL_INTERVAL", 10 ** 6)
    d, trials = 3, 200
    res = minimize(_interior, [(-1.0, 1.0)] * d,
                   AnnealConfig(seed=1, max_trials=trials, window_repeat_tol=-1.0))
    assert TEMPERATURE_RATIO == 1e-8
    c = -math.log(TEMPERATURE_RATIO) * trials ** (-1.0 / d)
    assert temperature(trials, c, d) == pytest.approx(TEMPERATURE_RATIO, rel=1e-12)
    for k, temps in enumerate(seen):
        want = np.maximum(temperature(np.full(d, float(k)), c, d), _T_FLOOR)
        assert np.maximum(temps, _T_FLOOR).tobytes() == want.tobytes()
    # the acceptance temperature cools by the same law, one step per acceptance
    k_acc = np.concatenate([[0.0], np.cumsum(np.diff(res.trace[1::2]) != 0.0)])
    assert res.trace[1::2] == pytest.approx(res.trace[1] * np.exp(-c * k_acc ** (1 / d)),
                                            rel=1e-12)


def _descending(d):
    """A cost that every trial lowers, so that every trial is accepted and a
    reanneal falls after trial k * REANNEAL_INTERVAL; the call count makes
    the tangents differ by direction."""
    calls = [0]

    def cost(p):
        calls[0] += 1
        return _interior(p) - 10.0 * calls[0]

    return cost


B = TEMPERATURE_BLOCK
REGEN_ONCE = {"REGEN_ATTEMPTS": 1, "TEMPERATURE_RATIO": HOT_RATIO}
# (id, D, cost factory, keys, fixed dimension, x0 at the upper corner)
LOOP_CASES = [
    *((f"hot-d{d}", d, lambda d: _interior, HOT, d > 2, False) for d in (1, 2, 3, 8, 24)),
    ("default-d8", 8, lambda d: _interior, {}, False, False),
    ("reanneal-on-block-edges", 3, _descending, {"REANNEAL_INTERVAL": B}, False, False),
    ("reanneal-mid-block", 8, _descending, {"REANNEAL_INTERVAL": 37}, True, False),
    ("reanneal-every-trial", 2, _descending, {"REANNEAL_INTERVAL": 1}, False, False),
    ("regen-once-from-the-corner", 8, lambda d: _corner_linear, REGEN_ONCE, False, True),
    ("exit-fires", 24, lambda d: _bowl, {"window_repeat_tol": 1e-6}, False, False),
]


def _loop_case(mp, d, keys, fixed, corner):
    """Bounds and config of a loop case: 15 blocks and 40 trials, no exit
    unless keys turn it on. An upper-case key sets that constant of anneal
    (through mp, a pytest MonkeyPatch), any other one the config's field."""
    bounds = [(-1.0, 1.0)] * d
    if fixed:
        bounds[1] = (0.25, 0.25)
    fields = {"seed": d, "max_trials": 15 * B + 40, "window_repeat_tol": -1.0}
    for key, value in keys.items():
        if key.isupper():
            mp.setattr(anneal, key, value)
        else:
            fields[key] = value
    if corner:
        fields["x0"] = np.ones(d)
    return bounds, AnnealConfig(**fields)


@pytest.mark.usefixtures("serial")
@pytest.mark.parametrize("d, factory, keys, fixed, corner",
                         [c[1:] for c in LOOP_CASES], ids=[c[0] for c in LOOP_CASES])
def test_minimize_matches_the_per_trial_loop_oracle_bitwise(monkeypatch, d, factory,
                                                            keys, fixed, corner):
    bounds, cfg = _loop_case(monkeypatch, d, keys, fixed, corner)
    got = minimize(factory(d), bounds, cfg)
    assert_same_run(got, oracle_minimize(factory(d), bounds, cfg))
    # each case reaches what it is there for
    if factory is _descending:
        assert got.acceptances == got.trials == cfg.max_trials
    if cfg.window_repeat_tol >= 0.0:
        assert got.exit_reason == "cost-repeat" and got.trials % B != 0
    else:
        assert got.trials == cfg.max_trials and got.trials % B != 0


# ------------------------------------------------------ trials costed in pairs

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the cost worker is forked where os.fork exists")


def _paired(mp):
    """Make minimize find two CPUs, so that it forks a cost worker, one
    whose replies are always waited for, so that neither the pairs nor the
    costs the worker gives depend on timing; the points sent to it, and the
    costs taken from it (each a kept trial), from now on."""
    mp.setattr(anneal, "fork_cpus", lambda *needs: 2)
    mp.setattr(anneal, "_PATIENCE", math.inf)
    sent, kept = [], []
    ready, send, cost = (anneal._CostWorker.ready, anneal._CostWorker.send,
                         anneal._CostWorker.cost)

    def waiting(self):
        if self._owed:      # a dropped trial's reply: let it come
            select.select([self._sock], [], [])
        return ready(self)

    def sending(self, point):
        sent.append(point.copy())
        send(self, point)

    def taking(self, point):
        kept.append(point.copy())
        return cost(self, point)

    mp.setattr(anneal._CostWorker, "ready", waiting)
    mp.setattr(anneal._CostWorker, "send", sending)
    mp.setattr(anneal._CostWorker, "cost", taking)
    return sent, kept


def _holes(p):
    """_interior, but NaN on one side of the box and inf on the other."""
    if p[0] > 0.6:
        return math.nan
    if p[0] < -0.7:
        return math.inf
    return _interior(p)


# (id, D, cost factory, keys, fixed dimension, x0 at the upper corner);
# _descending accepts every trial, so a reanneal falls after trial
# k * REANNEAL_INTERVAL and every pair is dropped
PAIRED_CASES = [
    ("hot-d1", 1, lambda d: _interior, HOT, False, False),
    ("hot-d8", 8, lambda d: _interior, HOT, True, False),
    ("hot-d24", 24, lambda d: _interior, HOT, True, False),
    ("default-d8", 8, lambda d: _interior, {}, False, False),
    ("default-d24", 24, lambda d: _interior, {}, False, False),
    ("reanneal-on-block-edges", 8, _descending, {"REANNEAL_INTERVAL": B}, False, False),
    ("reanneal-mid-block", 8, _descending, {"REANNEAL_INTERVAL": 37}, True, False),
    ("regen-once-from-the-corner", 8, lambda d: _corner_linear, REGEN_ONCE, False, True),
    ("exit-fires", 24, lambda d: _bowl, {"window_repeat_tol": 1e-6}, False, False),
    ("non-finite-costs", 8, lambda d: _holes, {"TEMPERATURE_RATIO": HOT_RATIO}, False, False),
]


@needs_fork
@pytest.mark.parametrize("d, factory, keys, fixed, corner",
                         [c[1:] for c in PAIRED_CASES], ids=[c[0] for c in PAIRED_CASES])
def test_paired_trials_match_the_per_trial_loop_oracle_bitwise(monkeypatch, d, factory,
                                                               keys, fixed, corner):
    bounds, cfg = _loop_case(monkeypatch, d, keys, fixed, corner)
    sent, kept = _paired(monkeypatch)
    cost = factory(d)
    got = minimize(cost, bounds, cfg)
    assert_same_run(got, oracle_minimize(factory(d), bounds, cfg))
    # each case reaches what it is there for
    assert sent
    if factory is _descending:
        assert got.acceptances == got.trials == cfg.max_trials and not kept
    elif not keys:
        assert len(kept) > got.trials // 3
    if cost is _holes:
        assert math.inf in got.trace and kept
    if cfg.window_repeat_tol >= 0.0:
        assert got.exit_reason == "cost-repeat" and got.trials % B != 0


@needs_fork
def test_a_cost_that_raises_on_one_candidate_raises_there_when_paired(monkeypatch):
    d, bounds = 8, [(-1.0, 1.0)] * 8
    monkeypatch.setattr(anneal, "REANNEAL_INTERVAL", 10 ** 6)
    cfg = AnnealConfig(seed=3, max_trials=1000, window_repeat_tol=-1.0)
    seen = []
    oracle_minimize(lambda p: seen.append(p.copy()) or _interior(p), bounds, cfg)
    sent, _ = _paired(monkeypatch)
    # two trials in a row: one of them is the second of a pair
    for trial in (300, 301):
        bad = seen[COST_SAMPLES + trial]     # after x0 and the samples

        def raising(p):
            if np.array_equal(p, bad):
                raise ValueError(f"no cost at trial {trial}")
            return _interior(p)

        with pytest.raises(ValueError, match=f"at trial {trial}"):
            oracle_minimize(raising, bounds, cfg)
        with pytest.raises(ValueError, match=f"at trial {trial}"):
            minimize(raising, bounds, cfg)
    assert sum(any(np.array_equal(p, seen[COST_SAMPLES + t]) for p in sent)
               for t in (300, 301)) == 1


@needs_fork
def test_a_dropped_trial_is_never_judged_even_when_its_cost_raised(monkeypatch):
    bounds, cfg = _loop_case(monkeypatch, 8, {"REANNEAL_INTERVAL": 37}, False, False)
    sent, _ = _paired(monkeypatch)
    want = minimize(_descending(8), bounds, cfg)
    dropped, cost = sent[len(sent) // 2], _descending(8)

    def raising(p):
        if np.array_equal(p, dropped):
            raise ValueError("a dropped trial was costed here")
        return cost(p)

    assert_same_run(minimize(raising, bounds, cfg), want)
    assert_same_run(want, oracle_minimize(_descending(8), bounds, cfg))


@needs_fork
def test_a_worker_that_exits_mid_run_leaves_the_rest_to_this_process(monkeypatch):
    bounds, cfg = _loop_case(monkeypatch, 8, {}, False, False)
    parent, calls = os.getpid(), [0]

    def dying(p):
        if os.getpid() == parent:
            time.sleep(0.001)   # so that no reply is late and taken over
        else:
            calls[0] += 1
            if calls[0] == 50:
                os._exit(0)
        return _interior(p)

    sent, _ = _paired(monkeypatch)
    got = minimize(dying, bounds, cfg)
    assert_same_run(got, oracle_minimize(_interior, bounds, cfg))
    # pairs until the worker died (a whole run pairs about half its trials)
    assert 50 <= len(sent) < cfg.max_trials // 4


@needs_fork
def test_a_worker_killed_before_it_reads_a_point_leaves_the_rest_to_this_process(
        monkeypatch):
    """A socket whose peer closed with a request unread reads as reset, not
    as the end of the stream; the run goes on the same way either way."""
    bounds, cfg = _loop_case(monkeypatch, 8, {}, False, False)
    sent, _ = _paired(monkeypatch)
    send = anneal._CostWorker.send

    def killing(self, point):
        if len(sent) < 50:
            return send(self, point)
        os.kill(self.pid, signal.SIGSTOP)   # so that the point stays unread
        send(self, point)
        os.kill(self.pid, signal.SIGKILL)

    monkeypatch.setattr(anneal._CostWorker, "send", killing)
    got = minimize(_interior, bounds, cfg)
    assert_same_run(got, oracle_minimize(_interior, bounds, cfg))
    assert len(sent) == 51


@needs_fork
def test_a_paired_run_with_sigchld_ignored_gives_the_unpaired_run(monkeypatch):
    """Under SIGCHLD ignored the worker is reaped as it exits, and closing
    it finds no child to wait for."""
    bounds, cfg = _loop_case(monkeypatch, 8, {}, False, False)
    want = oracle_minimize(_interior, bounds, cfg)
    sent, _ = _paired(monkeypatch)
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(anneal.os, "fork", counting)
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = minimize(_interior, bounds, cfg)
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert_same_run(got, want)
    assert sent and len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


@needs_fork
def test_a_late_worker_is_taken_over_with_the_same_run(monkeypatch):
    bounds, cfg = _loop_case(monkeypatch, 8, {}, False, False)
    parent = os.getpid()

    def slow(p):
        if os.getpid() != parent:
            time.sleep(0.002)
        return _interior(p)

    monkeypatch.setattr(anneal, "fork_cpus", lambda *needs: 2)
    pairs, ready = [], anneal._CostWorker.ready

    def counting(self):
        pairs.append(ready(self))
        return pairs[-1]

    monkeypatch.setattr(anneal._CostWorker, "ready", counting)
    got = minimize(slow, bounds, cfg)
    assert_same_run(got, oracle_minimize(_interior, bounds, cfg))
    # every reply is late, and no trial is paired until it has come
    assert 0 < pairs.count(True) < len(pairs) // 4


@needs_fork
def test_a_run_that_drops_every_pair_never_fills_a_pipe(monkeypatch):
    """Every trial is accepted, so every paired trial is dropped and its
    reply is read by no cost(); over 20 000 trials, replies left unread
    would fill the reply buffer, the worker would stop reading requests and
    both processes would wait on each other."""
    bounds, cfg = _loop_case(monkeypatch, 24, {"max_trials": 20_000}, False, False)
    monkeypatch.setattr(anneal, "fork_cpus", lambda *needs: 2)
    sent, send = [], anneal._CostWorker.send

    def sending(self, point):
        sent.append(1)
        send(self, point)

    def stalled(signum, frame):     # not an OSError, which a write would take
        raise AssertionError("the paired run stalled")

    monkeypatch.setattr(anneal._CostWorker, "send", sending)
    before = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(120)
    try:
        got = minimize(_descending(24), bounds, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    assert got.acceptances == got.trials == cfg.max_trials and sent
    assert_same_run(got, oracle_minimize(_descending(24), bounds, cfg))


@pytest.mark.parametrize("platform", ["one-cpu", "no-fork", "fork-fails", "threaded"])
def test_a_run_without_a_worker_gives_the_same_run(monkeypatch, platform):
    bounds, cfg = _loop_case(monkeypatch, 8, HOT, False, False)
    forks, fork = [], os.fork

    def counting():
        forks.append(1)
        if platform == "fork-fails":
            raise OSError("no process left")
        return fork()

    if platform == "no-fork":
        monkeypatch.delattr(anneal.os, "fork", raising=False)
    else:
        monkeypatch.setattr(anneal.os, "fork", counting, raising=False)
    if platform == "one-cpu":
        monkeypatch.setattr(anneal.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    elif platform not in ("no-fork", "threaded"):
        monkeypatch.setattr(anneal, "fork_cpus", lambda *needs: 2)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60.0,))
    if platform == "threaded":
        other.start()
    try:
        fds = open_fds()
        got = minimize(_interior, bounds, cfg)
    finally:
        done.set()
        if other.ident is not None:
            other.join(60.0)
    assert not other.is_alive()
    assert_same_run(got, oracle_minimize(_interior, bounds, cfg))
    assert forks == ([1] if platform == "fork-fails" else [])
    assert open_fds() == fds
