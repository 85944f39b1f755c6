import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from tailfolio import eeg
from tailfolio.anneal import AnnealConfig
from tailfolio.eeg import (ColumnParams, Coupling, ElectrodeSite, RegionNet,
                           apply_params, centering_check, centering_shift,
                           fit_net, innovation_stream, joint_loglikelihood,
                           loglikelihood_details, parse_param_key,
                           recover_firings, simulate)
from tailfolio.errors import (DegenerateVariance, NonPositiveDenominator,
                              NoSolution, OutOfDomain, SingularInversion)
from tailfolio.rng import NormalStream

from helpers import (centered_columns, conditional_logprob, delayed_afferents,
                     drifts_diffusions, electrode_moments, p300_free_params,
                     p300_net, threshold_factor, two_site_net)


def hand_columns(**overrides) -> ColumnParams:
    base = dict(
        n_e=2.0, n_i=1.0, threshold=(1.0, 1.0),
        gain=((1.0, 1.0), (1.0, 1.0)),
        background=((0.0, 0.0), (0.0, 0.0)),
        pol_mean=((0.1, -0.1), (0.1, -0.1)),
        pol_var=((0.0, 0.0), (0.0, 0.0)),
        lr_count=0.0,
    )
    base.update(overrides)
    return ColumnParams(**base)


def test_threshold_factor_hand_oracle():
    # eff = A/2 + B = 0.5; num0 = 1 - (0.1*0.5*2 - 0.1*0.5*1) = 0.95
    # num(m_e=1, m_i=2) = 0.95 - 0.05*1 + 0.05*2 = 1.0
    # den0 = 0.01*0.5*2 + 0.01*0.5*1 = 0.015
    cols = hand_columns(pol_var=((0.0, 0.0), (0.0, 0.0)))
    f_e, f_i = threshold_factor(cols, 1.0, 2.0)
    assert f_e == pytest.approx(1.0 / np.sqrt(0.015 * np.pi), rel=1e-14)
    assert f_i == pytest.approx(1.0 / np.sqrt(0.015 * np.pi), rel=1e-14)


def test_threshold_factor_full_denominator():
    cols = hand_columns()
    f_e, _ = threshold_factor(cols, 1.0, 2.0, denominator_approx=False)
    # den gains de*m_e + di*m_i = 0.005*1 + 0.005*2
    assert f_e == pytest.approx(1.0 / np.sqrt(0.03 * np.pi), rel=1e-14)


def test_threshold_factor_nonpositive_denominator():
    cols = hand_columns(gain=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(NonPositiveDenominator):
        threshold_factor(cols, 0.0, 0.0)


def test_drifts_diffusions_formulas():
    cols = ColumnParams()
    f_e, f_i = threshold_factor(cols, 3.0, -2.0)
    g_e, g_i, g_ee, g_ii = drifts_diffusions(cols, f_e, f_i, 3.0, -2.0)
    tau = cols.tau_ms
    assert g_e == pytest.approx(-(3.0 + cols.n_e * np.tanh(f_e)) / tau, rel=1e-14)
    assert g_i == pytest.approx(-(-2.0 + cols.n_i * np.tanh(f_i)) / tau, rel=1e-14)
    assert g_ee == pytest.approx(cols.n_e / np.cosh(f_e) ** 2 / tau, rel=1e-12)
    assert g_ii == pytest.approx(cols.n_i / np.cosh(f_i) ** 2 / tau, rel=1e-12)


def test_diffusion_saturated_threshold():
    cols = ColumnParams()
    with np.errstate(over="raise"):
        _, _, g_ee, g_ii = drifts_diffusions(cols, 1e6, -1e6, 0.0, 0.0)
    assert np.isfinite(g_ee) and g_ee >= 0.0
    assert np.isfinite(g_ii) and g_ii >= 0.0


def test_centering_zeroes_origin_and_is_idempotent():
    shifted = centering_shift(ColumnParams())
    f_e, f_i = threshold_factor(shifted, 0.0, 0.0, 0.0)
    assert abs(f_e) < 1e-12
    assert abs(f_i) < 1e-12
    again = centering_shift(shifted)
    assert np.allclose(again.background, shifted.background, rtol=0, atol=1e-14)
    # long-range background never moves
    assert shifted.lr_background == ColumnParams().lr_background


def test_centering_no_solution():
    cols = ColumnParams(pol_mean=((0.0, -0.1), (0.1, -0.1)))
    with pytest.raises(NoSolution):
        centering_shift(cols)


def test_region_net_validations():
    a = ElectrodeSite(name="A")
    b = ElectrodeSite(name="B")
    with pytest.raises(OutOfDomain, match="unique"):
        RegionNet(sites=(a, ElectrodeSite(name="A")))
    with pytest.raises(OutOfDomain, match="unknown site"):
        RegionNet(sites=(a,), couplings=(Coupling("A", "Z", 0.1, 1),))
    with pytest.raises(OutOfDomain, match="cycle"):
        RegionNet(sites=(a, b), couplings=(Coupling("A", "B", 0.1, 0),
                                           Coupling("B", "A", 0.1, 0)))
    with pytest.raises(OutOfDomain, match="cycle"):
        RegionNet(sites=(a, b), couplings=(Coupling("A", "A", 0.1, 0),))
    # a delayed edge breaks the instantaneous cycle
    net = RegionNet(sites=(a, b), couplings=(Coupling("A", "B", 0.1, 0),
                                             Coupling("B", "A", 0.1, 1)))
    assert net.names == ("A", "B")
    with pytest.raises(OutOfDomain):
        RegionNet(sites=(a,), dt_ms=0.0)
    with pytest.raises(OutOfDomain):
        Coupling("A", "B", 0.1, -1)
    with pytest.raises(OutOfDomain):
        Coupling("A", "B", 0.1, 1.5)


def test_parse_param_key():
    assert parse_param_key("Cz.gain_e") == ("site", "Cz", "gain_e")
    assert parse_param_key("Fz->Cz.weight") == ("coupling", ("Fz", "Cz"), "weight")
    with pytest.raises(OutOfDomain):
        parse_param_key("Cz")
    with pytest.raises(OutOfDomain):
        parse_param_key("Cz.bogus")
    with pytest.raises(OutOfDomain):
        parse_param_key("Fz->Cz.delay")


def test_apply_params():
    net = two_site_net()
    out = apply_params(net, {"Fz.offset": 2.5, "Fz->Cz.weight": 0.2})
    assert out.sites[0].offset == 2.5
    assert out.couplings[0].weight == 0.2
    # untouched fields survive
    assert out.sites[0].gain_e == net.sites[0].gain_e
    assert out.sites[1] == net.sites[1]
    with pytest.raises(OutOfDomain):
        apply_params(net, {"Qz.offset": 1.0})
    with pytest.raises(OutOfDomain):
        apply_params(net, {"Cz->Fz.weight": 0.1})


def test_recover_firings_round_trip():
    net = two_site_net()
    rng = np.random.default_rng(2)
    m_true = rng.uniform(-20.0, 20.0, size=(40, 2))
    offset = np.array([s.offset for s in net.sites])
    denom = np.array([s.gain_e + s.gain_i * s.trough_slope for s in net.sites])
    phi = offset + denom * m_true
    m_e, clamped, excess = recover_firings(net, phi)
    assert np.allclose(m_e, m_true, atol=1e-10)
    assert clamped == 0
    assert excess == 0.0


def test_recover_firings_clamps():
    net = two_site_net()
    offset = np.array([s.offset for s in net.sites])
    denom = np.array([s.gain_e + s.gain_i * s.trough_slope for s in net.sites])
    # Fz range: min(80, 30/0.5) = 60; push one value 5 beyond it
    phi = offset + denom * np.array([[65.0, 0.0], [0.0, 0.0]])
    m_e, clamped, excess = recover_firings(net, phi)
    assert m_e[0, 0] == pytest.approx(60.0)
    assert clamped == 1
    assert excess == pytest.approx(5.0)
    with pytest.raises(OutOfDomain, match=r"series must be \(epochs, sites\)"):
        recover_firings(net, np.zeros((4, 3)))


def test_singular_inversion():
    site = ElectrodeSite(name="A", gain_e=1.0, gain_i=2.0, trough_slope=-0.5)
    net = RegionNet(sites=(site,))
    with pytest.raises(SingularInversion):
        recover_firings(net, np.zeros((3, 1)))


def test_delayed_afferents_zero_padding():
    net = two_site_net(weight=0.12, delay=1)
    hist = np.arange(10.0).reshape(5, 2)  # column 0 is Fz
    at0 = delayed_afferents(net, hist, "Cz", 0)
    assert at0.shape == (1,)
    assert at0[0] == 0.0
    at3 = delayed_afferents(net, hist, "Cz", 3)
    assert at3[0] == pytest.approx(0.12 * hist[2, 0])
    assert delayed_afferents(net, hist, "Fz", 3).shape == (0,)
    with pytest.raises(OutOfDomain, match=r"firing_history must be \(epochs, sites\)"):
        delayed_afferents(net, np.zeros((4, 3)), "Cz", 0)


def test_electrode_moments_composition():
    net = two_site_net()
    s = net.sites[0]
    m_e = 4.0
    m_i = s.trough_slope * m_e
    f_e, f_i = threshold_factor(net.columns, m_e, m_i, 0.3,
                                net.denominator_approx)
    g_e, g_i, g_ee, g_ii = drifts_diffusions(net.columns, f_e, f_i, m_e, m_i)
    m, var = electrode_moments(net, "Fz", m_e, 0.3)
    assert m == pytest.approx(s.gain_e * g_e + s.gain_i * g_i, rel=1e-14)
    assert var == pytest.approx(s.gain_e ** 2 * g_ee + s.gain_i ** 2 * g_ii, rel=1e-14)


site_values = st.tuples(st.floats(-2.0, 2.0), st.floats(0.3, 2.0),
                        st.floats(0.1, 1.5), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(sites=st.lists(site_values, min_size=1, max_size=4),
       edges=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.floats(-0.3, 0.3), st.integers(0, 4)),
                      max_size=4),
       approx=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_kernel_moments_equal_the_public_formulas_bitwise(sites, edges, approx, seed):
    # the kernel performs the operations of the oracles threshold_factor and
    # drifts_diffusions in their order, so it matches them to the bit
    names = [f"S{i}" for i in range(len(sites))]
    net = RegionNet(
        sites=tuple(ElectrodeSite(name, *vals) for name, vals in zip(names, sites)),
        couplings=tuple(Coupling(names[src % len(names)], names[tgt % len(names)],
                                 w, delay)
                        for src, tgt, w, delay in edges
                        if delay > 0 or src % len(names) < tgt % len(names)),
        columns=centered_columns(), denominator_approx=approx)
    phi = (np.array([s[0] for s in sites])
           + 30.0 * NormalStream(seed).draw(40 * len(sites)).reshape(40, -1))
    tr = eeg._Transitions(net)
    m, var, _, _ = tr.moments(tr.site_major(phi)[0], tr.sites, tr.weights)
    m_e, _, _ = recover_firings(net, phi)
    for i, s in enumerate(net.sites):
        aff = np.array([np.sum(delayed_afferents(net, m_e, s.name, t))
                        for t in range(phi.shape[0] - 1)])
        want_m, want_var = electrode_moments(net, s.name, m_e[:-1, i], aff)
        assert m[i].tobytes() == want_m.tobytes()
        assert var[i].tobytes() == want_var.tobytes()


@pytest.mark.parametrize("approx", [True, False])
@pytest.mark.parametrize("cols", [
    # zero efficacy: the aggregate vanishes
    ColumnParams(gain=((0.0, 0.0), (0.0, 0.0)),
                 background=((0.0, 0.0), (0.0, 0.0)), lr_count=0.0),
    # negative polarization variance: the aggregate is negative
    ColumnParams(pol_var=((-0.02, -0.02), (-0.02, -0.02)))])
def test_nonpositive_variance_aggregate_raises_in_both_modes(cols, approx):
    net = replace(two_site_net(), columns=cols, denominator_approx=approx)
    phi = np.tile([s.offset for s in net.sites], (6, 1))
    with pytest.raises(NonPositiveDenominator):
        threshold_factor(cols, 0.0, 0.0, denominator_approx=approx)
    with pytest.raises(NonPositiveDenominator):
        loglikelihood_details(net, phi)


def test_conditional_logprob_is_gaussian():
    net = two_site_net()
    m, var = electrode_moments(net, "Cz", 2.0, 0.0)
    dt = net.dt_ms
    got = conditional_logprob(net, "Cz", 1.4, 1.1, 2.0, 0.0)
    expected = norm.logpdf(1.4, loc=1.1 + m * dt, scale=np.sqrt(var * dt))
    assert got == pytest.approx(float(expected), rel=1e-12)
    with pytest.raises(OutOfDomain):
        conditional_logprob(net, "Cz", 1.4, 1.1, 2.0, dt=0.0)


def test_conditional_logprob_degenerate_variance():
    site = ElectrodeSite(name="A", gain_e=0.0, gain_i=0.0, trough_slope=0.5)
    net = RegionNet(sites=(site,))
    with pytest.raises(DegenerateVariance):
        conditional_logprob(net, "A", 0.1, 0.0, 1.0)


def test_loglikelihood_matches_transition_loop():
    net = two_site_net()
    phi = simulate(net, 60, seed=14)
    det = loglikelihood_details(net, phi)
    m_e, _, _ = recover_firings(net, phi)
    total = 0.0
    for t in range(phi.shape[0] - 1):
        for i, s in enumerate(net.sites):
            aff = float(np.sum(delayed_afferents(net, m_e, s.name, t)))
            total += conditional_logprob(net, s.name, phi[t + 1, i], phi[t, i],
                                         m_e[t, i], m_lr=aff)
    assert det["loglik"] == pytest.approx(total, rel=1e-10)
    assert sum(det["per_site"].values()) == pytest.approx(det["loglik"], rel=1e-12)
    assert det["clamp_fraction"] == 0.0
    assert not det["out_of_range"]
    assert joint_loglikelihood(net, phi) == det["loglik"]


def test_loglikelihood_guards():
    net = two_site_net()
    with pytest.raises(OutOfDomain, match=r"series must be \(epochs, sites\)"):
        loglikelihood_details(net, np.zeros((5, 3)))
    with pytest.raises(OutOfDomain, match="need at least 2 epochs"):
        loglikelihood_details(net, np.zeros((1, 2)))


def test_innovations_standardized():
    net = two_site_net()
    phi = simulate(net, 2500, seed=6)
    z = innovation_stream(net, phi)
    assert z.shape == (2499, 2)
    assert np.abs(z.mean(axis=0)).max() < 0.08
    assert np.abs(z.std(axis=0) - 1.0).max() < 0.06


def test_innovations_manual_first_step():
    net = two_site_net()
    phi = simulate(net, 8, seed=3)
    z = innovation_stream(net, phi)
    m_e, _, _ = recover_firings(net, phi)
    m, var = electrode_moments(net, "Fz", m_e[0, 0], 0.0)
    dt = net.dt_ms
    expected = (phi[1, 0] - phi[0, 0] - m * dt) / np.sqrt(var * dt)
    assert z[0, 0] == pytest.approx(expected, rel=1e-12)


def test_simulate_deterministic_and_bounded():
    net = two_site_net()
    a = simulate(net, 300, seed=5)
    b = simulate(net, 300, seed=5)
    assert np.array_equal(a, b)
    c = simulate(net, 300, seed=6)
    assert not np.array_equal(a, c)
    m_e, clamped, _ = recover_firings(net, a)
    assert np.all(np.abs(m_e[:, 0]) <= 60.0)
    assert clamped == 0


def test_simulate_extreme_initial_state():
    net = two_site_net()
    phi = simulate(net, 5, seed=1, initial=np.array([1e6, -1e6]))
    offset = np.array([s.offset for s in net.sites])
    denom = np.array([s.gain_e + s.gain_i * s.trough_slope for s in net.sites])
    # the emitted first row is already projected back to the firing range
    assert phi[0, 0] == pytest.approx(offset[0] + denom[0] * 60.0)
    assert np.all(np.isfinite(phi))
    with pytest.raises(OutOfDomain):
        simulate(net, 0, seed=1)


def test_simulate_single_epoch():
    net = two_site_net()
    phi = simulate(net, 1, seed=9)
    offset = np.array([s.offset for s in net.sites])
    assert phi.shape == (1, 2)
    assert np.allclose(phi[0], offset)


def test_centering_check_rows():
    net = two_site_net()
    offset = np.array([s.offset for s in net.sites])
    flat = np.tile(offset, (50, 1))
    rows = centering_check(net, flat)
    assert [r["site"] for r in rows] == ["Fz", "Cz"]
    for r in rows:
        assert r["mean_e"] == 0.0
        assert r["rms_e"] == 0.0
        assert not r["flagged"]
    denom = np.array([s.gain_e + s.gain_i * s.trough_slope for s in net.sites])
    drifted = np.tile(offset + denom * 12.0, (50, 1))
    rows = centering_check(net, drifted)
    assert all(r["flagged"] for r in rows)


def test_fit_net_all_frozen_returns_template():
    net = two_site_net()
    phi = simulate(net, 50, seed=8)
    res = fit_net(phi, net, free=[], bounds={})
    assert res.net is net
    assert res.loglik == joint_loglikelihood(net, phi)
    assert res.result is None


def test_fit_net_missing_bounds():
    net = two_site_net()
    phi = simulate(net, 50, seed=8)
    with pytest.raises(OutOfDomain, match="missing bounds"):
        fit_net(phi, net, free=["Fz.offset"], bounds={})


def test_fit_net_single_parameter_recovers():
    net = two_site_net()
    phi = simulate(net, 400, seed=42)
    template = apply_params(net, {"Fz.offset": 0.0})
    start = joint_loglikelihood(template, phi)
    res = fit_net(phi, template, free=["Fz.offset"],
                  bounds={"Fz.offset": (-3.0, 3.0)},
                  config=AnnealConfig(seed=1, max_trials=800),
                  refine_calls=200)
    assert res.loglik > start
    assert res.net.sites[0].offset == pytest.approx(1.0, abs=0.5)
    assert not res.out_of_range
    assert res.result is not None


def test_simulate_rejects_misshaped_initial_state():
    net = two_site_net()
    for bad in ([1.0], [[1.0], [2.0]], 1.0, [1.0, 2.0, 3.0]):
        with pytest.raises(OutOfDomain, match="initial"):
            simulate(net, 5, seed=1, initial=bad)
    simulate(net, 5, seed=1, initial=[1.0, 2.0])


def per_epoch_simulate(net, epochs, seed, initial=None):
    """Reference simulation: one normal draw per epoch, public kernels only."""
    offset = np.array([s.offset for s in net.sites])
    gain_e = np.array([s.gain_e for s in net.sites])
    gain_i = np.array([s.gain_i for s in net.sites])
    slope = np.array([s.trough_slope for s in net.sites])
    denom = gain_e + gain_i * slope
    bound = np.minimum(net.columns.n_e, net.columns.n_i / np.abs(slope))
    stream = NormalStream(seed)
    idx = {name: i for i, name in enumerate(net.names)}
    phi = np.empty((epochs, len(net.sites)))
    phi[0] = offset if initial is None else initial
    m_hist = np.empty_like(phi)
    for t in range(epochs):
        m_hist[t] = np.clip((phi[t] - offset) / denom, -bound, bound)
        phi[t] = offset + denom * m_hist[t]
        if t == epochs - 1:
            break
        aff = np.zeros(len(net.sites))
        for c in net.couplings:
            if t - c.delay >= 0:
                aff[idx[c.target]] += c.weight * m_hist[t - c.delay, idx[c.source]]
        m_e = m_hist[t]
        f_e, f_i = threshold_factor(net.columns, m_e, slope * m_e, aff,
                                    net.denominator_approx)
        g_e, g_i, g_ee, g_ii = drifts_diffusions(net.columns, f_e, f_i,
                                                 m_e, slope * m_e)
        m = gain_e * g_e + gain_i * g_i
        var = gain_e ** 2 * g_ee + gain_i ** 2 * g_ii
        phi[t + 1] = phi[t] + m * net.dt_ms + np.sqrt(var * net.dt_ms) * stream.draw(
            len(net.sites))
    return phi


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 60), k=st.integers(1, 60), seed=st.integers(0, 2 ** 32),
       start=st.none() | st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)))
def test_simulate_prefix_and_per_epoch_reference(n, k, seed, start):
    net = two_site_net(delay=2)
    k = min(k, n)
    initial = None if start is None else np.array(start)
    full = simulate(net, n, seed, initial=initial)
    assert np.array_equal(full[:k], simulate(net, k, seed, initial=initial))
    assert full.tobytes() == per_epoch_simulate(net, n, seed, initial).tobytes()


def reference_fit_cost(net, keys, phi, vec, penalty_weight=1e3):
    """The fit's cost as rebuild-and-evaluate: -loglik + penalty * excess."""
    candidate = apply_params(net, dict(zip(keys, vec)))
    candidate = replace(candidate, columns=centering_shift(candidate.columns))
    try:
        det = loglikelihood_details(candidate, phi)
    except (SingularInversion, DegenerateVariance, NonPositiveDenominator):
        return np.inf
    return -det["loglik"] + penalty_weight * det["excess"]


def test_compiled_fit_cost_equals_rebuild_reference():
    truth = p300_net()
    phi = simulate(truth, 300, seed=101)
    # an uncentered template: the compiled cost must center it exactly once
    template = replace(truth, columns=ColumnParams())
    keys, bounds = p300_free_params(truth)
    cost = eeg._fit_cost(template, keys, phi, 1e3)
    lo = np.array([bounds[k][0] for k in keys])
    hi = np.array([bounds[k][1] for k in keys])
    rng = np.random.default_rng(20)
    points = list(lo + (hi - lo) * rng.random((200, len(keys))))
    # small combined gains push recovered firings past their bounds
    for scale in (0.05, 0.2):
        clamp = points[0].copy()
        for i, key in enumerate(keys):
            if key.endswith((".gain_e", ".gain_i")):
                clamp[i] *= scale
        points.append(clamp)
    singular = points[1].copy()
    for key, val in (("Pz.gain_e", 0.5), ("Pz.gain_i", 1.0), ("Pz.trough_slope", -0.5)):
        singular[keys.index(key)] = val
    points.append(singular)
    # a firing bound of n_e with no slope to divide by, and one of n_e with
    # a quotient far past it
    flat = points[2].copy()
    for key, val in (("Fz.trough_slope", 0.0), ("Cz.trough_slope", 1e-300),
                     ("Pz.trough_slope", -1e-300)):
        flat[keys.index(key)] = val
    points.append(flat)

    clamped = 0
    for vec in points:
        want = reference_fit_cost(template, keys, phi, vec)
        assert cost(vec) == want
        clamped += np.isfinite(want) and want != reference_fit_cost(
            template, keys, phi, vec, penalty_weight=0.0)
    assert clamped >= 2
    assert cost(singular) == np.inf


def oracle_firing_bound(cols, slope):
    """The firing bound in its first form: n_e where the slope is 0, else
    min(n_e, n_i / |slope|)."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(slope != 0.0, np.minimum(cols.n_e, cols.n_i / np.abs(slope)),
                        cols.n_e)


@st.composite
def bound_cases(draw):
    """Columns and slopes: zeros of both signs, +-1e-300, subnormals, inf,
    NaN, and slopes within a few ulps of n_i / n_e, where the bound turns."""
    n_e, n_i = draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6))
    turn = n_i / n_e
    near = st.integers(-4, 4).map(lambda k: turn * (1.0 + k * 2.0 ** -52))
    slopes = draw(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-310, np.inf,
                         -np.inf, np.nan]),
        near, near.map(lambda v: -v), st.floats(-1e3, 1e3)), min_size=1, max_size=8))
    return ColumnParams(n_e=n_e, n_i=n_i), np.array(slopes)


@settings(max_examples=300, deadline=None)
@given(case=bound_cases())
def test_the_firing_bound_is_its_first_form_bitwise(case):
    cols, slopes = case
    sites = np.zeros((slopes.size, 4))
    sites[:, 1] = 1.0
    sites[:, 3] = slopes
    sites[np.isinf(slopes), 2] = 0.5     # a finite combined gain
    bound = eeg._site_arrays(cols, sites)[4]
    assert bound.tobytes() == oracle_firing_bound(cols, slopes[:, None]).tobytes()


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="the fit's cost worker is forked where os.fork exists")
def test_fit_net_leaves_no_worker_behind_and_fits_the_same_with_one(monkeypatch):
    truth = two_site_net()
    phi = simulate(truth, 300, seed=3)
    keys = ["Fz.offset", "Cz.gain_e", "Cz.trough_slope", "Fz->Cz.weight"]
    bounds = {"Fz.offset": (-3.0, 3.0), "Cz.gain_e": (0.3, 2.0),
              "Cz.trough_slope": (0.1, 1.0), "Fz->Cz.weight": (0.0, 0.3)}
    template = apply_params(truth, {"Fz.offset": 0.0, "Cz.gain_e": 1.0,
                                    "Cz.trough_slope": 0.4, "Fz->Cz.weight": 0.1})
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    pins = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: pins.append(args),
                        raising=False)
    fits = []
    for cpus in (1, 2):
        monkeypatch.setattr(eeg.anneal, "fork_cpus", lambda *needs, cpus=cpus: cpus)
        fds = _open_fds()
        fits.append(fit_net(phi, template, keys, bounds,
                            AnnealConfig(seed=5, max_trials=600), refine_calls=50))
        assert _open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == cpus - 1
    assert pins == []
    alone, paired = fits
    assert (alone.net, alone.loglik, alone.clamp_fraction, alone.out_of_range) == (
        paired.net, paired.loglik, paired.clamp_fraction, paired.out_of_range)
    a, b = alone.result, paired.result
    assert a.x.tobytes() == b.x.tobytes()
    assert np.float64(a.cost).tobytes() == np.float64(b.cost).tobytes()
    assert (a.trials, a.acceptances, a.exit_reason) == (
        b.trials, b.acceptances, b.exit_reason)
    assert a.trace.tobytes() == b.trace.tobytes()


def test_fit_net_error_parity(monkeypatch):
    net = two_site_net()
    phi = simulate(net, 50, seed=8)
    uncenterable = replace(net, columns=ColumnParams(pol_mean=((0.0, -0.1), (0.1, -0.1))))
    with pytest.raises(OutOfDomain, match="initial point"):
        fit_net(phi, uncenterable, free=["Fz.offset"], bounds={"Fz.offset": (0.0, 2.0)})

    def no_search(*args, **kwargs):
        raise AssertionError("cost evaluated before the keys were checked")

    monkeypatch.setattr(eeg.anneal, "minimize", no_search)
    for key in ("Qz.offset", "Cz->Fz.weight"):
        with pytest.raises(OutOfDomain, match="unknown"):
            fit_net(phi, net, free=[key], bounds={key: (0.0, 1.0)})
    with pytest.raises(OutOfDomain, match="need at least 2 epochs"):
        fit_net(phi[:1], net, free=["Fz.offset"], bounds={"Fz.offset": (0.0, 2.0)})


def test_results_do_not_depend_on_the_series_memory_layout():
    truth = p300_net()
    phi = simulate(truth, 950, seed=101)
    c_order, f_order = np.ascontiguousarray(phi), np.asfortranarray(phi)
    assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
    keys, bounds = p300_free_params(truth)
    lo = np.array([bounds[k][0] for k in keys])
    hi = np.array([bounds[k][1] for k in keys])
    points = lo + (hi - lo) * np.random.default_rng(21).random((200, len(keys)))
    c_cost = eeg._fit_cost(truth, keys, c_order, 1e3)
    f_cost = eeg._fit_cost(truth, keys, f_order, 1e3)
    assert [c_cost(v) for v in points] == [f_cost(v) for v in points]

    assert loglikelihood_details(truth, c_order) == loglikelihood_details(truth, f_order)
    outside = [recover_firings(truth, 3.0 * series) for series in (c_order, f_order)]
    assert outside[0][1] > 0
    assert outside[0][2] == outside[1][2]
    assert (innovation_stream(truth, c_order).tobytes()
            == innovation_stream(truth, f_order).tobytes())

    template = apply_params(truth, dict.fromkeys(keys[:4], 0.4))
    fits = [fit_net(series, template, keys, bounds,
                    AnnealConfig(seed=5, max_trials=300), refine_calls=100)
            for series in (c_order, f_order)]
    assert fits[0].net == fits[1].net
    assert fits[0].loglik == fits[1].loglik
    assert fits[0].result.x.tobytes() == fits[1].result.x.tobytes()
    assert fits[0].result.trace == fits[1].result.trace
