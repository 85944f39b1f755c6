"""Portfolio of indicators: join streams from different collection methods.

Each method contributes one indicator stream per epoch, either raw values
or standardized model innovations for series with a fitted regional net.
The streams get two-tailed exponential marginals and a Gaussian copula;
an optional weight fit maximizes held-out portfolio log-likelihood over
the combination x = a x1 + b x2 + ... (weights live on the unit sphere,
since likelihood alone does not pin the overall scale). Reports carry
distribution overlaps between epoch groups as Bhattacharyya coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import anneal
from .copula import CopulaModel, estimate_correlation, pre_average, to_gaussian
from .eeg import RegionNet, innovation_stream
from .errors import DegenerateData, IllConditioned, OutOfDomain
from .marginals import fit_channels, fit_exponential
from .risk import bhattacharyya_overlap

FLATNESS_TOL = 1e-9
DEGENERATE_RHO = 0.999
WEIGHT_TRIALS = 4000    # the weight fit's anneal budget unless its config sets one
WEIGHT_SEED = 7         # and its anneal seed


@dataclass(frozen=True)
class MethodStream:
    """One collection method's per-epoch indicator values."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", vals)


def stream_from_net(name: str, net: RegionNet, series) -> MethodStream:
    """Combine a fitted net's per-site innovations into one unit-scale stream."""
    z = innovation_stream(net, series)
    combined = z.sum(axis=1) / np.sqrt(z.shape[1])
    return MethodStream(name=name, values=combined)


def _stack(streams) -> np.ndarray:
    if len(streams) < 2:
        raise OutOfDomain("need at least two method streams")
    lengths = {s.values.shape[0] for s in streams}
    if len(lengths) != 1:
        raise OutOfDomain(f"method streams differ in epoch count: "
                          f"{sorted(s.values.shape[0] for s in streams)}")
    return np.stack([s.values for s in streams], axis=1)


def fit_indicator_weights(train: np.ndarray, holdout: np.ndarray,
                          config: anneal.AnnealConfig | None = None):
    """Weights maximizing held-out log-likelihood of the combined stream.

    config defaults to WEIGHT_TRIALS trials at seed WEIGHT_SEED, and the
    search starts from the equal weights unless config sets x0. The cost
    takes w and -w to the same bits, so the sign the search lands on is a
    matter of its path: the weights are reported with their largest-|w|
    entry positive.

    Returns (unit weights, flat flag, search result). flat: every trial of
    the anneal cost within FLATNESS_TOL * max(1, |lowest|) of the lowest.
    """
    k = train.shape[1]

    def cost(w):
        norm = float(np.linalg.norm(w))
        if norm < 1e-12:
            return anneal.SENTINEL
        wn = np.asarray(w) / norm
        try:
            marg = fit_exponential(train @ wn)
        except DegenerateData:
            return anneal.SENTINEL
        t = holdout @ wn - marg.m
        widths = marg.side_width(t)
        ll = float(np.sum(-np.log(2.0 * widths) - np.abs(t) / widths))
        return -ll

    if config is None:
        config = anneal.AnnealConfig(max_trials=WEIGHT_TRIALS, seed=WEIGHT_SEED)
    x0 = np.full(k, 1.0 / np.sqrt(k))
    if config.x0 is None:
        config = replace(config, x0=tuple(x0))
    res = anneal.search(cost, [(-1.0, 1.0)] * k, config, refine_calls=500)
    w = np.asarray(res.x)
    norm = float(np.linalg.norm(w))
    w = x0 if norm < 1e-12 else w / norm
    if w[np.argmax(np.abs(w))] < 0.0:
        w = -w

    costs = res.trace[0::2]
    flat = max(costs) - min(costs) <= FLATNESS_TOL * max(1.0, abs(min(costs)))
    return w, flat, res


def _shape_params(values):
    shape = fit_exponential(values)
    return {"mean": shape.m, "width": shape.chi, "n": len(values)}


def indicator_report(streams, holdout_fraction: float = 0.25,
                     fit_weights: bool = False, weights=None,
                     state_labels=None, pre_average_window: int = 3,
                     config: anneal.AnnealConfig | None = None):
    """Joint report for two or more indicator streams.

    The epoch axis splits into a leading training block and a trailing
    holdout block. Duplicated streams make the copula correlation singular;
    that case is reported as a degenerate pairing with no model. Returns
    (report dict, CopulaModel or None).
    """
    data = _stack(streams)
    names = [s.name for s in streams]
    if len(set(names)) != len(names):
        raise OutOfDomain(f"method names must be unique, got {names}")
    t_total = data.shape[0]
    if not 0.0 < holdout_fraction < 1.0:
        raise OutOfDomain("holdout_fraction must be in (0, 1)")
    t_train = max(2, int(round(t_total * (1.0 - holdout_fraction))))
    t_train = min(t_train, t_total - 1)
    train, holdout = data[:t_train], data[t_train:]

    report: dict = {
        "kind": "indicator_report",
        "methods": names,
        "epochs": t_total,
        "train_epochs": int(t_train),
        "holdout_epochs": int(t_total - t_train),
    }

    marginals = fit_channels(names, train)
    report["marginals"] = {name: {"m": mg.m, "chi": mg.chi}
                           for name, mg in zip(names, marginals)}

    y = np.stack([to_gaussian(mg, train[:, i])
                  for i, mg in enumerate(marginals)], axis=0)
    try:
        corr = estimate_correlation(y, pre_average_window=pre_average_window)
    except IllConditioned:
        pairs = []
        with np.errstate(invalid="ignore"):
            sample = np.corrcoef(pre_average(y, pre_average_window))
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                rho = float(sample[i, j])
                if not np.isfinite(rho) or abs(rho) >= DEGENERATE_RHO:
                    pairs.append([names[i], names[j],
                                  rho if np.isfinite(rho) else None])
        report["status"] = "degenerate_pairing"
        report["degenerate_pairs"] = pairs
        return report, None

    model = CopulaModel(marginals=marginals, correlation=corr,
                        channels=tuple(names))
    report["status"] = "ok"
    report["correlation"] = corr.matrix

    k = len(names)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (k,):
            raise OutOfDomain("weights length must match method count")
        flat = False
        fitted = False
    elif fit_weights:
        w, flat, _ = fit_indicator_weights(train, holdout, config)
        fitted = True
    else:
        w = np.full(k, 1.0 / np.sqrt(k))
        flat = False
        fitted = False
    report["weights"] = {"values": {n: float(v) for n, v in zip(names, w)},
                         "fitted": fitted, "flat": bool(flat)}

    port_train = train @ w
    port_holdout = holdout @ w
    shape_train = _shape_params(port_train)
    shape_holdout = _shape_params(port_holdout)
    report["portfolio"] = {"train": shape_train, "holdout": shape_holdout}

    overlaps = {"train_holdout": bhattacharyya_overlap(
        shape_train["mean"], shape_train["width"],
        shape_holdout["mean"], shape_holdout["width"])}
    if state_labels is not None:
        labels = list(state_labels)
        if len(labels) != t_total:
            raise OutOfDomain("state_labels length must match epoch count")
        portfolio_all = data @ w
        by_state = {}
        for lab in sorted(set(str(x) for x in labels)):
            mask = np.array([str(x) == lab for x in labels])
            if mask.sum() >= 2 and np.var(portfolio_all[mask]) > 0.0:
                by_state[lab] = _shape_params(portfolio_all[mask])
        pair_overlaps = {}
        labs = sorted(by_state)
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                a, b = by_state[labs[i]], by_state[labs[j]]
                pair_overlaps[f"{labs[i]}|{labs[j]}"] = bhattacharyya_overlap(
                    a["mean"], a["width"], b["mean"], b["width"])
        report["states"] = by_state
        overlaps["states"] = pair_overlaps
    report["overlaps"] = overlaps
    return report, model
