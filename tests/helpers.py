"""Shared fixtures-in-plain-python for the test suite."""

import json
import os

import jsonschema
import numpy as np

from tailfolio import eeg
from tailfolio.errors import DegenerateVariance, DimensionMismatch, OutOfDomain

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas")


def validate_schema(payload: dict, name: str) -> None:
    with open(os.path.join(SCHEMA_DIR, name), encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


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


# Test-only oracles of the transition density, built from the public formulas
# threshold_factor and drifts_diffusions, so they stay independent of the
# package's in-place kernel.

def delayed_afferents(net: eeg.RegionNet, firing_history, site: str, t: int) -> np.ndarray:
    """Per incoming edge, weight times the source's M^E at t - delay.

    firing_history is an (epochs, sites) array of excitatory firings; epochs
    before the data start contribute zero.
    """
    hist = np.asarray(firing_history, dtype=float)
    if hist.ndim != 2 or hist.shape[1] != len(net.sites):
        raise DimensionMismatch("firing_history must be (epochs, sites)")
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
    f_e, f_i = eeg.threshold_factor(net.columns, m_e, m_i, m_lr,
                                    net.denominator_approx)
    g_e, g_i, g_ee, g_ii = eeg.drifts_diffusions(net.columns, f_e, f_i, m_e, m_i)
    m = s.gain_e * g_e + s.gain_i * g_i
    # np.square rounds once; a Python float's ** 2 is libm pow, which can be
    # one ulp off
    var = np.square(s.gain_e) * g_ee + np.square(s.gain_i) * g_ii
    if np.any(var <= 0.0):
        raise DegenerateVariance("conditional variance must be positive")
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
# still out of bounds, then a clip. Kept frozen, so that the pooled
# generate_candidate is held to it bit for bit.

_T_FLOOR = 1e-300


def oracle_generation_delta(u, temp):
    u = np.asarray(u, dtype=float)
    t = np.maximum(np.asarray(temp, dtype=float), _T_FLOOR)
    v = np.abs(2.0 * u - 1.0)
    out = np.sign(u - 0.5) * t * ((1.0 + 1.0 / t) ** v - 1.0)
    return float(out) if out.ndim == 0 else out


def oracle_generate_candidate(x, temps, lo, hi, uniforms, regen_attempts=100):
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
