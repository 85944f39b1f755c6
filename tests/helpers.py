"""Shared fixtures-in-plain-python for the test suite."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array

import jsonschema
import numpy as np

from tailfolio import eeg
from tailfolio.anneal import (COST_SAMPLES, TEMPERATURE_RATIO, OptResult, _check_bounds,
                              generate_candidate, tangents, temperature)
from tailfolio.errors import DegenerateData, OutOfDomain, SingularNet
from tailfolio.rng import UniformStream

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas")


def validate_schema(payload: dict, name: str) -> None:
    with open(os.path.join(SCHEMA_DIR, name), encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


def traced_peak(fn) -> int:
    """The peak bytes traced by tracemalloc while fn() runs, its result
    included; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# Forks, runs argv[1:] in the child and prints the child's exit code and
# wait4 peak RSS in kB. It imports nothing (run with -S), so the child's
# peak starts from this small process, not from the caller.
_LAUNCHER = ("import os, sys\n"
             "pid = os.fork()\n"
             "if pid == 0:\n"
             "    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])\n"
             "_, status, usage = os.wait4(pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
_CLI = "import sys; from tailfolio.cli import main; sys.exit(main(sys.argv[1:]))"


def command_peak_mb(args, env=None) -> float:
    """The peak RSS in MB of one CLI command, `tailfolio *args`, read by
    wait4 from a launcher that imports nothing, so that the peak is the
    command's own and not this process's; the command must exit 0. env
    holds variables set for the command on top of this process's."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LAUNCHER, "-c", _CLI, *map(str, args)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {}), "PYTHONPATH": SRC})
    code, kb = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return int(kb) / 1024.0


def implied_width(var_level: float, q_target: float, mean: float = 0.0) -> float:
    """The width X at which risk.q_analytic(X, mean, var_level) is q_target:
    the tail mass 1/2 exp(-|-|VaR| - mean|/X) solved for X."""
    return abs(-abs(var_level) - mean) / math.log(0.5 / q_target)


def centered_columns() -> eeg.ColumnParams:
    return eeg.centering_shift(eeg.ColumnParams())


def two_site_net(weight: float = 0.12, delay: int = 1) -> eeg.RegionNet:
    sites = (eeg.ElectrodeSite(name="Fz", offset=1.0, gain_e=1.0,
                               gain_i=0.6, trough_slope=0.5),
             eeg.ElectrodeSite(name="Cz", offset=0.5, gain_e=1.1,
                               gain_i=0.5, trough_slope=0.45))
    return eeg.RegionNet(sites=sites,
                         couplings=(eeg.Coupling("Fz", "Cz", weight, delay),),
                         columns=centered_columns())


def p300_net() -> eeg.RegionNet:
    """Five-electrode chain with 1, 1, 2, 2 epoch delays."""
    mk = eeg.ElectrodeSite
    sites = (mk(name="Fz", offset=1.0, gain_e=1.0, gain_i=0.6, trough_slope=0.5),
             mk(name="Cz", offset=0.5, gain_e=1.1, gain_i=0.5, trough_slope=0.45),
             mk(name="Pz", offset=-0.5, gain_e=0.9, gain_i=0.7, trough_slope=0.55),
             mk(name="P3", offset=0.2, gain_e=1.05, gain_i=0.55, trough_slope=0.5),
             mk(name="P4", offset=-0.2, gain_e=0.95, gain_i=0.65, trough_slope=0.5))
    couplings = (eeg.Coupling("Fz", "Cz", 0.12, 1),
                 eeg.Coupling("Cz", "Pz", 0.10, 1),
                 eeg.Coupling("Pz", "P3", 0.08, 2),
                 eeg.Coupling("Pz", "P4", 0.08, 2))
    return eeg.RegionNet(sites=sites, couplings=couplings,
                         columns=centered_columns())


def p300_free_params(net: eeg.RegionNet):
    """The 24 free keys and bounds used by the simulate-then-fit checks."""
    free = []
    bounds = {}
    for name in net.names:
        free += [f"{name}.offset", f"{name}.gain_e",
                 f"{name}.gain_i", f"{name}.trough_slope"]
        bounds[f"{name}.offset"] = (-3.0, 3.0)
        bounds[f"{name}.gain_e"] = (0.3, 2.0)
        bounds[f"{name}.gain_i"] = (0.1, 1.5)
        bounds[f"{name}.trough_slope"] = (0.1, 1.0)
    for c in net.couplings:
        key = f"{c.source}->{c.target}.weight"
        free.append(key)
        bounds[key] = (0.0, 0.3)
    return free, bounds


# Test-only oracles of the transition density, built from threshold_factor and
# drifts_diffusions below, so they stay independent of the package's stacked
# kernel and of the coefficients it caches.

def threshold_factor(cols: eeg.ColumnParams, m_e, m_i, m_lr=0.0,
                     denominator_approx: bool = True):
    """Threshold factors (F^E, F^I); inputs broadcast elementwise.

    The coefficients are formed here from the ColumnParams fields, in the
    expressions the package's kernel uses, so a bitwise match checks those
    too.
    """
    n = np.array([cols.n_e, cols.n_i])
    gain_a = np.asarray(cols.gain, dtype=float)
    v = np.asarray(cols.pol_mean, dtype=float)
    pv = np.asarray(cols.pol_var, dtype=float)
    eff = 0.5 * gain_a + np.asarray(cols.background, dtype=float)
    lr_eff = 0.5 * cols.lr_gain + cols.lr_background
    v_lr = v[0, 0]
    vv = v * v + pv
    vv_lr = v_lr * v_lr + pv[0, 0]
    # numerator: num0 - ce M^E - ci M^I - clr M-dagger
    num0 = (np.asarray(cols.threshold, dtype=float) - (v * eff * n).sum(axis=1)
            - v_lr * lr_eff * cols.lr_count)
    ce = 0.5 * gain_a[:, 0] * v[:, 0]
    ci = 0.5 * gain_a[:, 1] * v[:, 1]
    clr = 0.5 * cols.lr_gain * v_lr
    # variance aggregate: den0 + de M^E + di M^I + dlr M-dagger
    den0 = (vv * eff * n).sum(axis=1) + vv_lr * lr_eff * cols.lr_count
    de = 0.5 * gain_a[:, 0] * vv[:, 0]
    di = 0.5 * gain_a[:, 1] * vv[:, 1]
    dlr = 0.5 * cols.lr_gain * vv_lr
    m_e = np.asarray(m_e, dtype=float)
    m_i = np.asarray(m_i, dtype=float)
    m_lr = np.asarray(m_lr, dtype=float)
    out = []
    for g in range(2):
        num = num0[g] - ce[g] * m_e - ci[g] * m_i - clr * m_lr
        den = den0[g]
        if not denominator_approx:
            den = den + de[g] * m_e + di[g] * m_i + dlr * m_lr
        den = np.asarray(den, dtype=float)
        if np.any(den <= 0.0):
            raise SingularNet("variance aggregate must be positive")
        f = num / np.sqrt(np.pi * den)
        out.append(float(f) if f.ndim == 0 else f)
    return out[0], out[1]


def drifts_diffusions(cols: eeg.ColumnParams, f_e, f_i, m_e, m_i):
    """Drifts g^E, g^I and diffusions g^EE, g^II at the given state."""
    tau = cols.tau_ms
    f_e = np.asarray(f_e, dtype=float)
    f_i = np.asarray(f_i, dtype=float)
    sech2_e = 1.0 / np.cosh(np.minimum(np.abs(f_e), 350.0)) ** 2
    sech2_i = 1.0 / np.cosh(np.minimum(np.abs(f_i), 350.0)) ** 2
    g_e = -(np.asarray(m_e, dtype=float) + cols.n_e * np.tanh(f_e)) / tau
    g_i = -(np.asarray(m_i, dtype=float) + cols.n_i * np.tanh(f_i)) / tau
    g_ee = cols.n_e * sech2_e / tau
    g_ii = cols.n_i * sech2_i / tau
    return g_e, g_i, g_ee, g_ii


def delayed_afferents(net: eeg.RegionNet, firing_history, site: str, t: int) -> np.ndarray:
    """Per incoming edge, weight times the source's M^E at t - delay.

    firing_history is an (epochs, sites) array of excitatory firings; epochs
    before the data start contribute zero.
    """
    hist = np.asarray(firing_history, dtype=float)
    if hist.ndim != 2 or hist.shape[1] != len(net.sites):
        raise OutOfDomain("firing_history must be (epochs, sites)")
    tgt = net.site_index(site)
    vals = []
    for c in net.couplings:
        if net.site_index(c.target) != tgt:
            continue
        past = t - c.delay
        vals.append(c.weight * hist[past, net.site_index(c.source)]
                    if 0 <= past < hist.shape[0] else 0.0)
    return np.asarray(vals, dtype=float)


def electrode_moments(net: eeg.RegionNet, site: str, m_e, m_lr=0.0):
    """Drift m and variance rate sigma^2 of the potential at one site."""
    s = net.sites[net.site_index(site)]
    m_e = np.asarray(m_e, dtype=float)
    m_i = s.trough_slope * m_e
    f_e, f_i = threshold_factor(net.columns, m_e, m_i, m_lr, net.denominator_approx)
    g_e, g_i, g_ee, g_ii = drifts_diffusions(net.columns, f_e, f_i, m_e, m_i)
    m = s.gain_e * g_e + s.gain_i * g_i
    # np.square rounds once; a Python float's ** 2 is libm pow, which can be
    # one ulp off
    var = np.square(s.gain_e) * g_ee + np.square(s.gain_i) * g_ii
    if np.any(var <= 0.0):
        raise DegenerateData("conditional variance must be positive")
    return m, var


def conditional_logprob(net: eeg.RegionNet, site: str, phi_next, phi_cur,
                        m_e, m_lr=0.0, dt: float | None = None):
    """Log density of one potential step given the prepoint firing state."""
    dt = net.dt_ms if dt is None else float(dt)
    if dt <= 0.0:
        raise OutOfDomain("dt must be positive")
    m, var = electrode_moments(net, site, m_e, m_lr)
    phidot = (np.asarray(phi_next, dtype=float) - np.asarray(phi_cur, dtype=float)) / dt
    out = -0.5 * np.log(2.0 * np.pi * var * dt) - dt * (phidot - m) ** 2 / (2.0 * var)
    return float(out) if out.ndim == 0 else out


# Test-only oracle of the candidate law in its first, round-major form: all
# coordinates drawn once, then each round one numpy pass over the coordinates
# still out of bounds, then a clip. Kept frozen, so that generate_candidate
# is held to it bit for bit.

_T_FLOOR = 1e-300


def oracle_generation_delta(u, temp):
    u = np.asarray(u, dtype=float)
    t = np.maximum(np.asarray(temp, dtype=float), _T_FLOOR)
    v = np.abs(2.0 * u - 1.0)
    out = np.sign(u - 0.5) * t * ((1.0 + 1.0 / t) ** v - 1.0)
    return float(out) if out.ndim == 0 else out


def candidate(x, temps, lo, hi, uniforms, regen_attempts=100):
    """generate_candidate as minimize calls it: temps floored at _T_FLOOR
    and base 1 + 1/temps."""
    t = np.maximum(temps, _T_FLOOR)
    return generate_candidate(x, t, lo, hi, uniforms, regen_attempts,
                              base=1.0 + 1.0 / t)


def oracle_generate_candidate(x, temps, lo, hi, uniforms, regen_attempts=100, **kw):
    rangev = hi - lo
    cand = x + oracle_generation_delta(uniforms.take(x.size), temps) * rangev
    bad = (cand < lo) | (cand > hi)
    tries = 0
    while bad.any() and tries < regen_attempts:
        idx = np.nonzero(bad)[0]
        cand[idx] = x[idx] + oracle_generation_delta(uniforms.take(idx.size),
                                                     temps[idx]) * rangev[idx]
        bad = (cand < lo) | (cand > hi)
        tries += 1
    return np.clip(cand, lo, hi)


# Test-only oracle of the annealer's loop in its per-trial form: the
# generation temperatures computed afresh every trial from counters advanced
# by += 1.0 and the candidate from oracle_generate_candidate. Kept frozen,
# so that the blocked loop of minimize is held to it bit for bit. Configs
# are assumed valid.

def oracle_minimize(cost, bounds, cfg):
    lo, hi = _check_bounds(bounds)
    d = lo.size
    rangev = hi - lo
    free = rangev > 0.0
    inv_d = 1.0 / d
    t0v = np.broadcast_to(np.asarray(cfg.t0, dtype=float), (d,)).copy()
    x = 0.5 * (lo + hi) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    x = np.clip(x, lo, hi)

    best_f = math.inf
    best_x = x.copy()

    def evaluate(point):
        nonlocal best_f, best_x
        v = cost(point)
        v = float(v) if v is not None and math.isfinite(v) else math.inf
        if v < best_f:
            best_f = v
            best_x = np.array(point, dtype=float)
        return v

    fx = evaluate(x)
    if not math.isfinite(fx):
        raise OutOfDomain("cost is not finite at the initial point")
    u = UniformStream(cfg.seed, stream=2).take(COST_SAMPLES * d).reshape(-1, d)
    diffs = [0.0]
    for point in np.clip(lo + u * rangev, lo, hi):
        if math.isfinite(v := evaluate(point) - fx):
            diffs.append(v)
    spread = float(np.mean(np.abs(np.subtract(diffs, np.mean(diffs)))))
    scale = spread if 0.0 < spread < math.inf else 1.0

    sized_c = -math.log(TEMPERATURE_RATIO) * cfg.max_trials ** -inv_d
    cv = np.broadcast_to(np.asarray(sized_c if cfg.c is None else cfg.c, dtype=float),
                         (d,)).copy()
    accept_c = sized_c if cfg.accept_c is None else cfg.accept_c
    accept_t0 = scale if cfg.accept_t0 is None else cfg.accept_t0

    uniforms = UniformStream(cfg.seed, stream=0)
    accepts = UniformStream(cfg.seed, stream=1)
    neg_c = -cv
    k_gen = np.zeros(d)
    k_acc = 0.0
    trials = 0
    acceptances = 0
    next_reanneal = cfg.reanneal_interval
    exit_on = cfg.window_repeat_tol >= 0.0
    gain_tol = cfg.window_repeat_tol * scale
    stall = max(cfg.max_trials // 10, 1)
    trial_best, last_gain = math.inf, 0
    trace = array("d")
    exit_reason = "trial-limit"

    def reanneal():
        sens = tangents(evaluate, best_x.copy(), best_f,
                        cfg.sensitivity_step * rangev, lo, hi, free)
        s_max = sens.max()
        if s_max <= 0.0:
            return
        cur_t = temperature(np.maximum(k_gen, 0.0), t0v, cv, d)
        active = free & (sens > 0.0)
        t_new = cur_t[active] * (s_max / sens[active])
        arg = np.maximum(np.log(t0v[active] / np.maximum(t_new, _T_FLOOR)) / cv[active], 0.0)
        k_gen[active] = np.clip(arg ** d, 1.0, cfg.k_max)

    while trials < cfg.max_trials:
        trials += 1
        temps = k_gen ** inv_d
        np.multiply(neg_c, temps, out=temps)
        np.exp(temps, out=temps)
        np.multiply(t0v, temps, out=temps)
        cand = oracle_generate_candidate(x, temps, lo, hi, uniforms, cfg.regen_attempts)
        fc = evaluate(cand)
        k_gen += 1.0
        if fc < trial_best:
            if trial_best - fc > gain_tol:
                last_gain = trials
            trial_best = fc

        t_acc = max(accept_t0 * math.exp(-accept_c * k_acc ** inv_d), _T_FLOOR)
        trace.append(fc)
        trace.append(t_acc)

        delta = fc - fx
        accepted = delta <= 0.0
        if not accepted and math.isfinite(fc):
            ratio = delta / t_acc
            accepted = ratio < 700.0 and accepts.one() < math.exp(-ratio)
        if accepted:
            x = cand
            fx = fc
            acceptances += 1
            k_acc += 1.0
            if acceptances >= next_reanneal:
                reanneal()
                next_reanneal += cfg.reanneal_interval
        if exit_on and trials - last_gain >= stall:
            exit_reason = "cost-repeat"
            break

    return OptResult(x=best_x, cost=best_f, trials=trials, acceptances=acceptances,
                     exit_reason=exit_reason, trace=trace)


# Test-only oracle of the contract kernel's returns in its first form,
# (dx @ (sgn(nc) nc p) + (value - slip - K_prev)) / K_prev with every
# operation out of place, kept frozen for the position-cost property test.

def oracle_contract_returns(dx, template, nc):
    p = np.asarray(template.prices, dtype=float)
    gain = p - np.asarray(template.entry_prices, dtype=float)
    nc = np.asarray(nc, dtype=float)
    held = np.sign(nc) * nc
    value = template.cash + float(np.sum(held * gain))
    if template.prev_counts is None:
        k_prev, slip = value, 0.0
    else:
        prev = np.asarray(template.prev_counts, dtype=float)
        k_prev = template.cash + float(np.sum(np.sign(prev) * prev * gain))
        slip = template.slippage * float(np.sum(np.abs(nc - prev)))
    if k_prev == 0.0:
        raise OutOfDomain("portfolio value at the anchor epoch is zero")
    return (dx @ (held * p) + (value - slip - k_prev)) / k_prev
