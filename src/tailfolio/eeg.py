"""Regional EEG model: columnar firing dynamics under scalp electrodes.

Each electrode site sits over cortical columns whose excitatory and
inhibitory firing aggregates M^E, M^I evolve by drift and diffusion

    g^G  = -(M^G + N^G tanh F^G) / tau
    g^GG =  N^G sech^2(F^G) / tau

where the threshold factor for target type G sums over source types G'
(short-range E and I plus a long-range excitatory channel):

    F^G = (V^G - sum_G' v a N - 1/2 sum_G' v A M - v_EE (a+ N+ + 1/2 A+ M+))
          / sqrt(pi * sum over the same terms of (v^2 + phi_var)(a N + 1/2 A M))

with net efficacy a = A/2 + B. An option zeroes the M terms in the variance
aggregate only (the usual working approximation, on by default). Centering
shifts the excitatory-source background terms B^G_E so that F^G = 0 exactly
at the firing origin M = 0 with quiet long-range input; long-range background
stays fixed.

The measured potential at a site is Phi = offset + gain_e M^E + gain_i M^I
with the inhibitory aggregate tied to the excitatory one along the firing
trough, M^I = trough_slope * M^E. One observed step obeys

    Phi(t + dt) ~ Normal(Phi(t) + m dt, sigma^2 dt)
    m = gain_e g^E + gain_i g^I,  sigma^2 = gain_e^2 g^EE + gain_i^2 g^II

and the joint log-likelihood of a multichannel series is the sum of those
transition terms over electrodes and epochs. Firings are recovered from data
by inverting the potential map, clamping to the firing ranges (clamps are
counted; a clamp share above 1 percent marks a fit out-of-range).

Inter-site couplings carry delayed excitatory afferents
M-dagger(t) = weight * M^E_source(t - delay), zero before the data start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateData, OutOfDomain, SingularNet
from .rng import NormalStream

if TYPE_CHECKING:
    from . import anneal

CLAMP_FLAG_FRACTION = 0.01
_PI = float(np.pi)

SITE_FIELDS = ("offset", "gain_e", "gain_i", "trough_slope")


def _require_finite(key: str, value) -> None:
    """OutOfDomain naming key unless every number in value is finite."""
    if not np.all(np.isfinite(value)):
        raise OutOfDomain(f"{key!r} must be finite, got {value!r}")


@dataclass(frozen=True)
class ColumnParams:
    """Columnar interaction constants shared by every site of a net.

    Matrix-valued entries are ((EE, EI), (IE, II)) nested tuples indexed
    [target][source]. Efficacies are macrocolumnar-scaled; polarizations are
    in mV (inhibitory sources carry negative mean), thresholds in mV, tau in
    ms. None of these values come with the model; they are configuration.
    """

    n_e: float = 80.0
    n_i: float = 30.0
    tau_ms: float = 5.0
    threshold: tuple[float, float] = (10.0, 10.0)
    gain: tuple[tuple[float, float], tuple[float, float]] = ((0.5, 0.5), (0.5, 0.5))
    background: tuple[tuple[float, float], tuple[float, float]] = ((0.1, 0.1), (0.1, 0.1))
    pol_mean: tuple[tuple[float, float], tuple[float, float]] = ((0.1, -0.1), (0.1, -0.1))
    pol_var: tuple[tuple[float, float], tuple[float, float]] = ((0.031, 0.031), (0.031, 0.031))
    lr_count: float = 8.0
    lr_gain: float = 0.5
    lr_background: float = 0.1

    def __post_init__(self):
        # the bounds of docs/schemas, finite too; NaN fails every one
        for key, bound, ok in (("tau_ms", "> 0", 0.0 < self.tau_ms < np.inf),
                               ("n_e", "> 0", 0.0 < self.n_e < np.inf),
                               ("n_i", "> 0", 0.0 < self.n_i < np.inf),
                               ("lr_count", ">= 0", 0.0 <= self.lr_count < np.inf)):
            if not ok:
                raise OutOfDomain(f"{key!r} must be finite and {bound}, "
                                  f"got {getattr(self, key)!r}")
        for key in ("threshold", "gain", "background", "pol_mean", "pol_var",
                    "lr_gain", "lr_background"):
            _require_finite(key, getattr(self, key))

    @cached_property
    def _view(self) -> _ColumnsView:
        """The coefficient arrays of the threshold factor, built on first use."""
        return _ColumnsView(self)


class _ColumnsView:
    """Precomputed coefficient arrays for the threshold factor."""

    def __init__(self, cols: ColumnParams):
        n = np.array([cols.n_e, cols.n_i])
        gain_a = np.asarray(cols.gain, dtype=float)
        v = np.asarray(cols.pol_mean, dtype=float)
        pv = np.asarray(cols.pol_var, dtype=float)
        eff = 0.5 * gain_a + np.asarray(cols.background, dtype=float)
        lr_eff = 0.5 * cols.lr_gain + cols.lr_background
        v_lr = v[0, 0]
        pv_lr = pv[0, 0]
        vv = v * v + pv
        vv_lr = v_lr * v_lr + pv_lr

        # numerator: num0 - ce M^E - ci M^I - clr M-dagger
        self.num0 = (np.asarray(cols.threshold, dtype=float)
                     - (v * eff * n).sum(axis=1)
                     - v_lr * lr_eff * cols.lr_count)
        ce = 0.5 * gain_a[:, 0] * v[:, 0]
        ci = 0.5 * gain_a[:, 1] * v[:, 1]
        clr = np.full(2, 0.5 * cols.lr_gain * v_lr)
        # variance aggregate: den0 + de M^E + di M^I + dlr M-dagger
        den0 = (vv * eff * n).sum(axis=1) + vv_lr * lr_eff * cols.lr_count
        de = 0.5 * gain_a[:, 0] * vv[:, 0]
        di = 0.5 * gain_a[:, 1] * vv[:, 1]
        dlr = np.full(2, 0.5 * cols.lr_gain * vv_lr)
        # the same terms as (2, 1, 1) columns, [E, I], for the stacked kernel
        self.stacked = tuple(a.reshape(2, 1, 1) for a in (
            self.num0, ce, ci, clr, den0, de, di, dlr, n))
        self.den0_ok = not np.any(den0 <= 0.0)
        self.root_den0 = np.sqrt(_PI * self.stacked[4]) if self.den0_ok else None
        # a |slope| with n_i / |slope| >= n_e, so that the firing bound
        # min(n_e, n_i / |slope|) is n_e there and at every |slope| below;
        # 0 only where n_i / n_e is below the least subnormal
        n_e, n_i = float(cols.n_e), float(cols.n_i)
        cut = n_i / n_e
        while cut > 0.0 and n_i / cut < n_e:
            cut = math.nextafter(cut, 0.0)
        self.slope_cut = cut


def _transition_moments(cols: ColumnParams, denominator_approx, gains, slope,
                        m_e, m_lr):
    """Drift m and variance rate sigma^2 of the potential at firing states m_e.

    The one copy of the drift/variance block: likelihoods, innovations,
    simulation steps and the fit's cost all come through here. m_e and the
    summed delayed afferents m_lr are (sites, steps) arrays, slope the
    (sites, 1) column with M^I = slope M^E, and gains the (2, sites, 1)
    stack of gain_e over gain_i. The excitatory and inhibitory halves are
    stacked on a leading axis. Elementwise these are the operations of the
    tests' oracles threshold_factor and drifts_diffusions (tests/helpers.py),
    in their order, so the values are theirs to the bit.
    """
    view = cols._view
    num0, ce, ci, clr, den0, de, di, dlr, n = view.stacked
    own = np.empty((2, *m_e.shape))
    own[0] = m_e
    own[1] = m_i = slope * m_e
    # F^G = num / sqrt(pi den)
    if denominator_approx:
        if not view.den0_ok:
            raise SingularNet("variance aggregate must be positive")
        root_den = view.root_den0
    else:
        den = den0 + de * m_e + di * m_i + dlr * m_lr
        if np.any(den <= 0.0):
            raise SingularNet("variance aggregate must be positive")
        root_den = np.sqrt(_PI * den)
    f = (num0 - ce * m_e - ci * m_i - clr * m_lr) / root_den
    # g^G = -(M^G + N^G tanh F^G) / tau and g^GG = N^G sech^2(F^G) / tau,
    # each times its gain, squared for g^GG
    tau = cols.tau_ms
    drift = -(own + n * np.tanh(f)) / tau * gains
    diffusion = (n * (1.0 / np.square(np.cosh(np.minimum(np.abs(f), 350.0))))
                 / tau * np.square(gains))
    # m = gain_e g^E + gain_i g^I, var = gain_e^2 g^EE + gain_i^2 g^II
    m = drift[0] + drift[1]
    var = diffusion[0] + diffusion[1]
    if np.any(var <= 0.0):
        raise DegenerateData("conditional variance must be positive")
    return m, var


def _log_density(phidot, m, var, dt):
    """Log density of potential rates phidot under drift m, variance rate var."""
    return -0.5 * np.log(2.0 * _PI * var * dt) - dt * (phidot - m) ** 2 / (2.0 * var)


def centering_shift(cols: ColumnParams) -> ColumnParams:
    """Shift B^G_E so both threshold factors vanish at the firing origin.

    Long-range background is left untouched. Idempotent. Raises SingularNet
    when an excitatory-source term v^G_E N^E is zero.
    """
    view = cols._view
    v = np.asarray(cols.pol_mean, dtype=float)
    b = np.asarray(cols.background, dtype=float).copy()
    for g in range(2):
        scale = v[g, 0] * cols.n_e
        if abs(scale) < 1e-300 or not np.isfinite(scale):
            raise SingularNet("excitatory-source centering term is zero")
        b[g, 0] += view.num0[g] / scale
    return replace(cols, background=((float(b[0, 0]), float(b[0, 1])),
                                     (float(b[1, 0]), float(b[1, 1]))))


@dataclass(frozen=True)
class ElectrodeSite:
    """Potential map of one electrode: Phi = offset + gain_e M^E + gain_i M^I."""

    name: str
    offset: float = 0.0
    gain_e: float = 1.0
    gain_i: float = 0.5
    trough_slope: float = 0.5     # M^I = trough_slope * M^E

    def __post_init__(self):
        for key in SITE_FIELDS:
            _require_finite(key, getattr(self, key))


@dataclass(frozen=True)
class Coupling:
    """Directed delayed afferent: weight * M^E_source(t - delay) into target."""

    source: str
    target: str
    weight: float
    delay: int

    def __post_init__(self):
        _require_finite("weight", self.weight)
        if int(self.delay) != self.delay or self.delay < 0:
            raise OutOfDomain("delay must be a non-negative integer")
        object.__setattr__(self, "delay", int(self.delay))


@dataclass(frozen=True)
class RegionNet:
    """Electrode sites, their couplings, and shared columnar constants."""

    sites: tuple[ElectrodeSite, ...]
    couplings: tuple[Coupling, ...] = ()
    columns: ColumnParams = field(default_factory=ColumnParams)
    dt_ms: float = 5.2
    denominator_approx: bool = True

    def __post_init__(self):
        if not self.sites:
            raise OutOfDomain("'sites' must list at least one site")
        names = [s.name for s in self.sites]
        if len(set(names)) != len(names):
            raise OutOfDomain("site names must be unique")
        if not 0.0 < self.dt_ms < np.inf:   # NaN fails too
            raise OutOfDomain(f"'dt_ms' must be finite and > 0, got {self.dt_ms!r}")
        instantaneous = TopologicalSorter()
        for c in self.couplings:
            if c.source not in names or c.target not in names:
                raise OutOfDomain(f"coupling {c.source}->{c.target} names unknown site")
            if c.delay == 0:
                instantaneous.add(c.target, c.source)
        try:
            instantaneous.prepare()
        except CycleError:
            raise OutOfDomain("zero-delay couplings must not form a cycle") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sites)

    def site_index(self, name: str) -> int:
        for i, s in enumerate(self.sites):
            if s.name == name:
                return i
        raise OutOfDomain(f"unknown site {name!r}")


def parse_param_key(key: str):
    """'Cz.gain_e' -> site field; 'Fz->Cz.weight' -> coupling weight."""
    base, _, fieldname = key.partition(".")
    if not fieldname:
        raise OutOfDomain(f"parameter key {key!r} needs a '.field' suffix")
    if "->" in base:
        src, _, tgt = base.partition("->")
        if fieldname != "weight":
            raise OutOfDomain("coupling parameters expose only 'weight'")
        return ("coupling", (src, tgt), fieldname)
    if fieldname not in SITE_FIELDS:
        raise OutOfDomain(f"unknown site field {fieldname!r}")
    return ("site", base, fieldname)


def _param_slots(net: RegionNet, keys):
    """Where each key lives: key position site_pos[j] sets flat slot
    site_slot[j] of the (n_sites, 4) SITE_FIELDS array, and coup_pos[j] sets
    coupling coup_slot[j]. Malformed keys and unknown sites raise OutOfDomain
    in key order, then the first unknown coupling does."""
    site_pos, site_slot, coup_pos, coup_slot = [], [], [], []
    unknown = None
    for pos, key in enumerate(keys):
        kind, ident, fieldname = parse_param_key(key)
        if kind == "site":
            site_pos.append(pos)
            site_slot.append(len(SITE_FIELDS) * net.site_index(ident)
                             + SITE_FIELDS.index(fieldname))
        else:
            hits = [j for j, c in enumerate(net.couplings)
                    if (c.source, c.target) == ident]
            if not hits and unknown is None:
                unknown = ident
            coup_pos += [pos] * len(hits)
            coup_slot += hits
    if unknown is not None:
        raise OutOfDomain(f"unknown coupling {unknown[0]}->{unknown[1]}")
    return site_pos, site_slot, coup_pos, coup_slot


def apply_params(net: RegionNet, values: dict) -> RegionNet:
    """Return a net with the keyed site/coupling parameters replaced."""
    site_pos, site_slot, coup_pos, coup_slot = _param_slots(net, values)
    vals = [float(v) for v in values.values()]
    sites, couplings = list(net.sites), list(net.couplings)
    for pos, slot in zip(site_pos, site_slot):
        i, f = divmod(slot, len(SITE_FIELDS))
        sites[i] = replace(sites[i], **{SITE_FIELDS[f]: vals[pos]})
    for pos, j in zip(coup_pos, coup_slot):
        couplings[j] = replace(couplings[j], weight=vals[pos])
    return replace(net, sites=tuple(sites), couplings=tuple(couplings))


def _series(net: RegionNet, series, min_epochs: int = 0) -> np.ndarray:
    phi = np.asarray(series, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != len(net.sites):
        raise OutOfDomain("series must be (epochs, sites)")
    if phi.shape[0] < min_epochs:
        raise OutOfDomain(f"need at least {min_epochs} epochs")
    if not np.isfinite(phi).all():
        epoch, site = np.argwhere(~np.isfinite(phi))[0]
        raise OutOfDomain(f"series values must be finite, got {phi[epoch, site]} "
                          f"at epoch {epoch} of site {net.names[site]!r}")
    return phi


def _site_arrays(cols: ColumnParams, sites: np.ndarray):
    """The fields of an (n_sites, 4) SITE_FIELDS array as (n_sites, 1)
    columns, gain_e over gain_i as one (2, n_sites, 1) view, plus the
    combined gain that inverts the potential map and the firing bound."""
    columns = sites.T[:, :, None]
    offset, gains, slope = columns[0], columns[1:3], columns[3]
    denom = gains[0] + gains[1] * slope
    if np.any(np.abs(denom) < 1e-12):
        raise SingularNet("combined electrode gain is zero")
    # the firing bound min(n_e, n_i / |slope|) with |slope| raised to
    # slope_cut, which leaves it as it is, and divides no n_i by 0
    bound = np.abs(slope)
    np.maximum(bound, cols._view.slope_cut, out=bound)
    np.divide(cols.n_i, bound, out=bound)
    np.minimum(cols.n_e, bound, out=bound)
    return offset, gains, slope, denom, bound


def _clamp_firings(phi, offset, denom, bound):
    raw = (phi - offset) / denom
    excess = np.maximum(np.abs(raw) - bound, 0.0)
    clamped = int(np.count_nonzero(excess > 0.0))
    # np.clip's values, at about half its call overhead
    m_e = np.minimum(np.maximum(raw, -bound), bound)
    return m_e, clamped, float(excess.sum())


class _Transitions:
    """A net's transition density with its site values and weights left open.

    The columns, the coupling edges and dt are fixed when it is built. The
    (n_sites, 4) SITE_FIELDS values and the coupling weights are passed per
    call, so a fit varies them without rebuilding a net; the net's own are
    kept as sites and weights. Series are passed site-major, as made by
    site_major, and every sum runs in that order: each site's steps in time
    order, sites in net order, whatever the caller's memory layout.
    """

    def __init__(self, net: RegionNet):
        self.columns = net.columns
        self.denominator_approx = net.denominator_approx
        self.dt = net.dt_ms
        idx = {name: i for i, name in enumerate(net.names)}
        self.edges = [(idx[c.source], idx[c.target], c.delay) for c in net.couplings]
        self.sites = np.array([[getattr(s, f) for f in SITE_FIELDS] for s in net.sites],
                              dtype=float).reshape(len(net.sites), len(SITE_FIELDS))
        self.weights = np.array([c.weight for c in net.couplings], dtype=float)

    def site_major(self, phi):
        """An (epochs, sites) series as a C-contiguous (sites, epochs) array,
        and its (sites, epochs - 1) potential rates phidot."""
        phi = np.ascontiguousarray(phi.T)
        return phi, np.diff(phi, axis=1) / self.dt

    def moments(self, phi, sites, weights):
        """Drift and variance rate of every observed step of a site-major phi.

        Returns (m, var, clamped, excess), the last two from recovering the
        firings. Delayed afferents before the data start are zero.
        """
        offset, gains, slope, denom, bound = _site_arrays(self.columns, sites)
        m_e, clamped, excess = _clamp_firings(phi, offset, denom, bound)
        steps = max(phi.shape[1] - 1, 0)
        aff = np.zeros((phi.shape[0], steps))
        for (src, tgt, lag), w in zip(self.edges, weights):
            if lag < steps:
                aff[tgt, lag:] += w * m_e[src, :steps - lag]
        m, var = _transition_moments(self.columns, self.denominator_approx,
                                     gains, slope, m_e[:, :steps], aff)
        return m, var, clamped, excess

    def log_terms(self, phi, phidot, sites, weights):
        """Per (site, step) transition log-densities, clamp count, excess."""
        m, var, clamped, excess = self.moments(phi, sites, weights)
        return _log_density(phidot, m, var, self.dt), clamped, excess


def recover_firings(net: RegionNet, series):
    """Invert potentials to clamped M^E states.

    Returns (m_e, clamp_count, excess_sum): clamped per-epoch firings, how
    many values hit the clamp, and the total distance out of range.
    """
    phi = _series(net, series)
    offset, _, _, denom, bound = _site_arrays(net.columns, _Transitions(net).sites)
    m_e, clamped, excess = _clamp_firings(np.ascontiguousarray(phi.T), offset,
                                          denom, bound)
    return m_e.T, clamped, excess


def loglikelihood_details(net: RegionNet, series) -> dict:
    """Joint transition log-likelihood with clamp diagnostics."""
    phi = _series(net, series, min_epochs=2)
    tr = _Transitions(net)
    terms, clamped, excess = tr.log_terms(*tr.site_major(phi), tr.sites, tr.weights)
    total = float(np.sum(terms))
    count = phi.size
    return {
        "loglik": total,
        "clamp_fraction": clamped / count if count else 0.0,
        "excess": excess,
        "out_of_range": clamped / count > CLAMP_FLAG_FRACTION if count else False,
        "per_site": {s.name: float(np.sum(terms[i]))
                     for i, s in enumerate(net.sites)},
    }


def joint_loglikelihood(net: RegionNet, series) -> float:
    return loglikelihood_details(net, series)["loglik"]


def innovation_stream(net: RegionNet, series) -> np.ndarray:
    """Standardized one-step innovations (unit variance under the model).

    Row t holds (Phi(t+1) - Phi(t) - m dt) / (sigma sqrt(dt)) per site; the
    potential-rate form (Phidot - m)/sigma times sqrt(dt).
    """
    phi = np.ascontiguousarray(_series(net, series).T)
    tr = _Transitions(net)
    m, var, _, _ = tr.moments(phi, tr.sites, tr.weights)
    return ((np.diff(phi, axis=1) - m * tr.dt) / np.sqrt(var * tr.dt)).T


def simulate(net: RegionNet, epochs: int, seed: int, initial=None) -> np.ndarray:
    """Euler step the potential dynamics; emitted states respect firing ranges.

    initial, when given, is the (n_sites,) starting potential; it defaults to
    the site offsets.
    """
    epochs = int(epochs)
    if epochs < 1:
        raise OutOfDomain("epochs must be >= 1")
    n_sites = len(net.sites)
    tr = _Transitions(net)
    offset, gains, slope, denom, bound = _site_arrays(tr.columns, tr.sites)
    # an epoch's potentials and firings are rows; the kernel takes columns
    offset, denom, bound = offset[:, 0], denom[:, 0], bound[:, 0]
    dt = tr.dt

    phi = np.empty((epochs, n_sites))
    if initial is None:
        phi[0] = offset
    else:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n_sites,):
            raise OutOfDomain(f"initial must have shape ({n_sites},), "
                              f"got {initial.shape}")
        phi[0] = initial
    # Normals are elementwise in their uniforms, so one draw for the whole run
    # equals one draw per epoch.
    noise = NormalStream(seed).draw((epochs - 1) * n_sites).reshape(epochs - 1, n_sites)
    m_hist = np.empty((epochs, n_sites))
    aff = np.empty((n_sites, 1))

    for t in range(epochs):
        m_hist[t] = np.clip((phi[t] - offset) / denom, -bound, bound)
        phi[t] = offset + denom * m_hist[t]
        if t == epochs - 1:
            break
        aff.fill(0.0)
        for (src, tgt, lag), w in zip(tr.edges, tr.weights):
            if t - lag >= 0:
                aff[tgt, 0] += w * m_hist[t - lag, src]
        m, var = _transition_moments(tr.columns, tr.denominator_approx, gains,
                                     slope, m_hist[t, :, None], aff)
        phi[t + 1] = phi[t] + m[:, 0] * dt + np.sqrt(var[:, 0] * dt) * noise[t]
    return phi


def centering_check(net: RegionNet, series) -> list[dict]:
    """Per-site firing statistics; flags sites drifting away from the origin."""
    phi = np.asarray(series, dtype=float)
    m_e, clamped, _ = recover_firings(net, phi)
    rows = []
    for i, s in enumerate(net.sites):
        me = m_e[:, i]
        mi = s.trough_slope * me
        mean_e = float(np.mean(me))
        mean_i = float(np.mean(mi))
        rows.append({
            "site": s.name,
            "mean_e": mean_e,
            "rms_e": float(np.sqrt(np.mean(me ** 2))),
            "mean_i": mean_i,
            "rms_i": float(np.sqrt(np.mean(mi ** 2))),
            "flagged": bool(abs(mean_e) > 0.1 * net.columns.n_e
                            or abs(mean_i) > 0.1 * net.columns.n_i),
        })
    return rows


@dataclass(frozen=True)
class FitResult:
    net: RegionNet
    loglik: float
    clamp_fraction: float
    out_of_range: bool
    result: anneal.OptResult | None    # the search's; None when nothing is free


def _fit_cost(net: RegionNet, keys, phi, penalty_weight: float):
    """The fit's penalized cost as a function of the free values, compiled once.

    Each key becomes a slot in the (n_sites, 4) site array or the coupling
    weights. The columns are never free, so they are centered once; the
    coupling edges, the site-major series and its phidot are fixed too.
    Unknown sites and couplings raise OutOfDomain here, before any
    evaluation, and then columns that cannot be centered raise SingularNet.
    """
    site_pos, site_slot, coup_pos, coup_slot = _param_slots(net, keys)
    tr = _Transitions(replace(net, columns=centering_shift(net.columns)))
    phi, phidot = tr.site_major(phi)

    def cost(vec):
        vec = np.asarray(vec, dtype=float)
        sites = tr.sites.copy()
        sites.flat[site_slot] = vec[site_pos]
        weights = tr.weights.copy()
        weights[coup_slot] = vec[coup_pos]
        try:
            terms, _, excess = tr.log_terms(phi, phidot, sites, weights)
        except (SingularNet, DegenerateData):
            return np.inf
        return -float(np.sum(terms)) + penalty_weight * excess

    return cost


def fit_net(series, net: RegionNet, free, bounds,
            config: anneal.AnnealConfig | None = None,
            penalty_weight: float = 1e3, refine_calls: int = 1000) -> FitResult:
    """Fit the keyed free parameters by annealing the penalized likelihood.

    free is a sequence of parameter keys ('Fz.offset', 'Fz->Cz.weight', ...);
    bounds maps each key to (lo, hi). The cost is -loglik plus penalty_weight
    times the total out-of-range firing distance. The columnar constants are
    never free, so they are centered once, before the search; the fitted net
    carries the centered columns. An empty free list returns the template
    untouched with its likelihood.
    """
    if not penalty_weight >= 0.0:   # NaN fails too
        raise OutOfDomain(f"'penalty_weight' must be >= 0, got {penalty_weight!r}")
    if not math.isfinite(penalty_weight):
        raise OutOfDomain(f"'penalty_weight' must be finite, got {penalty_weight!r}")
    phi = np.asarray(series, dtype=float)
    keys = list(free)
    fitted, res = net, None
    if keys:
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise OutOfDomain(f"free parameter {key!r} is repeated")
        try:
            box = [(float(bounds[k][0]), float(bounds[k][1])) for k in keys]
        except KeyError as exc:
            raise OutOfDomain(f"missing bounds for parameter {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise OutOfDomain("bounds must map each free key to (lo, hi)") from exc
        for key, (lo, hi) in zip(keys, box):
            if not -np.inf < lo <= hi < np.inf:     # NaN fails too
                raise OutOfDomain(f"bounds of {key!r} must be finite with lo <= hi, "
                                  f"got [{lo}, {hi}]")
        # the one EEG path that anneals: simulate and check load no annealer
        from .anneal import search
        cost = _fit_cost(net, keys, _series(net, phi, min_epochs=2), penalty_weight)
        res = search(cost, box, config, refine_calls)
        fitted = apply_params(net, dict(zip(keys, res.x)))
        fitted = replace(fitted, columns=centering_shift(fitted.columns))
    det = loglikelihood_details(fitted, phi)
    return FitResult(net=fitted, loglik=det["loglik"],
                     clamp_fraction=det["clamp_fraction"],
                     out_of_range=det["out_of_range"], result=res)
