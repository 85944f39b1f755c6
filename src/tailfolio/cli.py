"""Batch command line front end.

Subcommands cover the full pipeline: fit marginals and a copula from a CSV,
sample correlated events, summarize tail risk, optimize positions under the
tail constraint, simulate/fit/check the regional EEG model, and join
indicator streams from several collection methods.

Every command is deterministic given (inputs, config, seed); reruns write
byte-identical files. Exit codes: 0 success, 2 input or config parse,
3 degenerate data, 4 ill-conditioned correlation, 5 infeasible constraint,
10 internal failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

# a table is read as modelfile.read_table, looked up at each call, so that
# a wrapper set on it (bench/trace_child.py) sees every read
from . import eeg, indicators, modelfile
from .anneal import AnnealConfig
from .copula import CopulaModel, CorrelationMatrix, correlation_in_place, to_gaussian
from .errors import EngineError, IllConditioned, ParseError
from .events import EventBatch, sample_events
from .marginals import fit_channels
from .modelfile import (ensure_out_dir, fmt, load_model, load_net, read_config,
                        reduce_rows, save_json, save_model, save_net,
                        write_bins_csv, write_series_csv, write_trace_csv)
from .risk import (Q_TARGET, VAR_LEVEL, ContractPortfolio, LinearPortfolio,
                   RiskConfig, optimize_positions, portfolio_returns, risk_report)

EXIT_OK = 0
EXIT_INFEASIBLE = 5
EXIT_INTERNAL = 10
_MAP_BLOCK = 1 << 14    # values per to_gaussian call in fit-marginals


def exit_code_for(exc: Exception) -> int:
    """The exit code an engine error carries; EXIT_INTERNAL for any other."""
    return getattr(exc, "exit_code", EXIT_INTERNAL)


def _present(cfg: dict, *keys) -> dict:
    """cfg's entries among keys; an absent key keeps the callee's default."""
    return {key: cfg[key] for key in keys if key in cfg}


def _anneal_config(cfg: dict, seed: int, **defaults) -> AnnealConfig:
    """The config's anneal block laid over the caller's defaults (else
    AnnealConfig's), seeded by seed unless the block sets its own."""
    return AnnealConfig(**{"seed": seed, **defaults, **cfg.get("anneal", {})})


# ------------------------------------------------------------------ commands

def _fit_series(path, cfg):
    """The channel names, row count, marginals and clipped correlation
    entries (copula.correlation_in_place) of the series CSV at path. No
    reference to the table outlives this call, so it is freed before the
    caller factors the correlation, the refit's first scipy.linalg call."""
    names, data = modelfile.read_table(path)
    if not names:
        raise ParseError(f"{path}: no channel column beside the index")
    window = cfg.get("marginal_window")
    if window is not None:
        if window < 2:
            raise ParseError(f"'marginal_window' must be >= 2, got {window}")
        data = data[-window:]
    marginals = fit_channels(names, data, **_present(cfg, "asymmetric"))
    rows = data.shape[0]
    # y is the channel-major table's own memory: each channel is mapped,
    # then pre-averaged and centred, in place
    y = data.T
    for mg, channel in zip(marginals, y):
        for a in range(0, rows, _MAP_BLOCK):
            channel[a:a + _MAP_BLOCK] = to_gaussian(mg, channel[a:a + _MAP_BLOCK])
    return names, rows, marginals, correlation_in_place(
        y, **_present(cfg, "pre_average_window"))


def cmd_fit_marginals(args) -> int:
    cfg = read_config(args.config)
    out = ensure_out_dir(args.out)
    names, rows, marginals, entries = _fit_series(args.csv, cfg)
    model = CopulaModel(marginals=marginals,
                        correlation=CorrelationMatrix.from_matrix(entries),
                        channels=tuple(names))
    save_model(os.path.join(out, "model.json"), model)
    print(f"fitted {len(names)} channel(s) from {rows} rows")
    for name, mg in zip(names, marginals):
        print(f"  {name}: m={fmt(mg.m)} chi={fmt(mg.chi)}")
    print(f"wrote {os.path.join(out, 'model.json')}")
    return EXIT_OK


def cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.n < 1:
        raise ParseError("--n must be >= 1")
    path = os.path.join(ensure_out_dir(args.out), "events.csv")
    # each part of the CSV makes the rows it formats; no table is held
    write_series_csv(path, EventBatch(model, args.n, args.seed), model.channels,
                     index_name="event_index")
    print(f"sampled {args.n} events x {len(model.channels)} channel(s)")
    print(f"wrote {path}")
    return EXIT_OK


def _parse_weights(text: str | None, dim: int) -> tuple[float, ...]:
    if text is None:
        return tuple(1.0 for _ in range(dim))
    try:
        weights = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad --weights value: {exc}") from exc
    if not all(np.isfinite(weights)):
        raise ParseError(f"--weights must be finite, got {text!r}")
    if len(weights) != dim:
        raise ParseError(f"--weights needs {dim} value(s), got {len(weights)}")
    return weights


def _streamed_returns(model, n, seed, portfolio) -> np.ndarray:
    """portfolio_returns(sample_events(model, n, seed), portfolio), made one
    row block at a time, in parts (modelfile.reduce_rows), so that the
    (n, N) table is never held. Each row has the bits of one whole-table
    product on one BLAS thread, on any thread count (see
    risk.portfolio_returns); on two threads such a product differs in a
    few rows' last bits for n off the 8-row grid."""
    return reduce_rows(EventBatch(model, n, seed),
                       lambda rows: portfolio_returns(rows, portfolio))


def cmd_risk(args) -> int:
    model = load_model(args.model)
    dim = len(model.channels)
    weights = _parse_weights(args.weights, dim)
    if args.n < 2:
        raise ParseError(f"--n must be >= 2, got {args.n}")
    config = RiskConfig(var_level=args.var, q_target=args.q)
    out = ensure_out_dir(args.out)
    dm = _streamed_returns(model, args.n, args.seed,
                           LinearPortfolio(weights=weights, offsets=(0.0,) * dim))
    report, dist = risk_report(dm, config)
    save_json(os.path.join(out, "risk.json"),
              {"kind": "risk_report", **asdict(report), "weights": list(weights)})
    write_bins_csv(os.path.join(out, "bins.csv"), dist)
    print(f"portfolio over {report.n} events: mean={fmt(report.mean)} "
          f"width={fmt(report.width)}")
    print(f"  q_analytic={fmt(report.q_analytic)} "
          f"q_empirical={fmt(report.q_empirical)}")
    print(f"wrote {os.path.join(out, 'risk.json')} and "
          f"{os.path.join(out, 'bins.csv')}")
    return EXIT_OK


def _template_of(cfg: dict, dim: int):
    block = cfg.get("template", {})
    kind = block.pop("type", "linear")
    offsets = block.pop("offsets", (0.0,) * dim)
    if kind == "linear":
        if len(offsets) != dim:
            raise ParseError(f"template offsets need {dim} value(s)")
        return LinearPortfolio(weights=(0.0,) * dim, offsets=offsets)
    if kind == "contracts":
        for key in ("prices", "entry_prices", "cash"):
            if key not in block:
                raise ParseError(f"contracts template missing {key!r}")
        return ContractPortfolio(counts=(0.0,) * dim, **block)
    raise ParseError(f"unknown template type {kind!r}")


def cmd_optimize(args) -> int:
    cfg = read_config(args.config)
    out = ensure_out_dir(args.out)
    model = load_model(args.model)
    dim = len(model.channels)
    template = _template_of(cfg, dim)
    bounds = cfg.get("bounds", ())
    if len(bounds) != dim:
        raise ParseError(f"optimize config needs {dim} 'bounds' pair(s), "
                         f"got {len(bounds)}")
    n = cfg.get("n", 10000)
    if n < 2:
        raise ParseError(f"'n' must be >= 2, got {n!r}")
    dx = sample_events(model, n, args.seed)
    opt = optimize_positions(dx, template, bounds,
                             RiskConfig(**cfg.get("risk", {})),
                             _anneal_config(cfg, args.seed),
                             **_present(cfg, "refine_calls"))
    if args.verbose:
        write_trace_csv(os.path.join(out, "trace_optimize.csv"), opt.result)
    values = (opt.portfolio.weights if isinstance(opt.portfolio, LinearPortfolio)
              else opt.portfolio.counts)
    save_json(os.path.join(out, "positions.json"), {
        "kind": "positions",
        "template": "linear" if isinstance(opt.portfolio, LinearPortfolio)
                    else "contracts",
        "values": list(values),
        "objective_value": opt.objective_value,
        "q": opt.q, "cost_q": opt.cost_q, "feasible": opt.feasible,
        "trials": opt.result.trials, "exit_reason": opt.result.exit_reason,
    })
    print(f"optimized {dim} position(s) over {n} events: "
          f"objective={fmt(opt.objective_value)} q={fmt(opt.q)}")
    print(f"wrote {os.path.join(out, 'positions.json')}")
    if not opt.feasible:
        print("error: tail constraint infeasible at the best point found",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _series_for_net(net, csv_path):
    names, data = modelfile.read_table(csv_path)
    if set(names) != set(net.names):
        raise ParseError(f"{csv_path}: columns {list(names)} do not match "
                         f"net sites {list(net.names)}")
    order = [names.index(n) for n in net.names]
    return data[:, order]


def cmd_eeg(args) -> int:
    cfg = read_config(args.config)
    out = ensure_out_dir(args.out)
    net = load_net(args.net)
    if args.mode == "simulate":
        phi = eeg.simulate(net, args.epochs, args.seed)
        path = os.path.join(out, "series.csv")
        write_series_csv(path, phi, net.names, index_name="epoch")
        print(f"simulated {args.epochs} epochs x {len(net.names)} site(s)")
        print(f"wrote {path}")
        return EXIT_OK
    data = _series_for_net(net, args.series)
    if args.mode == "fit":
        free = cfg.get("free", ())
        fit = eeg.fit_net(data, net, free, cfg.get("bounds", {}),
                          _anneal_config(cfg, args.seed),
                          **_present(cfg, "penalty_weight", "refine_calls"))
        res = fit.result
        if args.verbose and res is not None:
            write_trace_csv(os.path.join(out, "trace_fit.csv"), res)
        # the penalized cost the search minimized; -loglik when nothing is free
        final_cost = -fit.loglik if res is None else res.cost
        save_net(os.path.join(out, "net.json"), fit.net)
        save_json(os.path.join(out, "fit_report.json"), {
            "kind": "fit_report",
            "loglik": fit.loglik,
            "clamp_fraction": fit.clamp_fraction,
            "out_of_range": fit.out_of_range,
            "final_cost": final_cost,
            "trials": 0 if res is None else res.trials,
            "exit_reason": None if res is None else res.exit_reason,
        })
        print(f"fitted {len(free)} parameter(s): final cost {fmt(final_cost)}")
        print(f"wrote {os.path.join(out, 'net.json')} and "
              f"{os.path.join(out, 'fit_report.json')}")
        return EXIT_OK
    # check, the one mode left: argparse takes no other
    rows = eeg.centering_check(net, data)
    save_json(os.path.join(out, "centering.json"),
              {"kind": "centering_report", "rows": rows})
    for row in rows:
        flag = " FLAGGED" if row["flagged"] else ""
        print(f"  {row['site']}: mean_e={fmt(row['mean_e'])} "
              f"rms_e={fmt(row['rms_e'])}{flag}")
    print(f"wrote {os.path.join(out, 'centering.json')}")
    return EXIT_OK


def cmd_indicators(args) -> int:
    cfg = read_config(args.config)
    out = ensure_out_dir(args.out)
    methods = cfg.get("methods")
    if not methods or len(methods) < 2:
        raise ParseError("indicators config needs >= 2 'methods'")
    streams = []
    for block in methods:
        name, csv_path = block["name"], block["csv"]
        kind = block.get("kind", "values")
        if kind == "values":
            names, data = modelfile.read_table(csv_path)
            col = block.get("column", names[0] if len(names) == 1 else None)
            if col not in names:
                raise ParseError(f"{csv_path}: pick one of {list(names)} "
                                 f"with 'column'")
            streams.append(indicators.MethodStream(
                name=name, values=data[:, names.index(col)]))
        elif kind == "net":
            if "net" not in block:
                raise ParseError(f"method {name!r} missing 'net'")
            net = load_net(block["net"])
            data = _series_for_net(net, csv_path)
            streams.append(indicators.stream_from_net(name, net, data))
        else:
            raise ParseError(f"unknown method kind {kind!r}")
    # the weight fit anneals at its own fixed seed unless the block sets one;
    # --seed does not reach it
    acfg = _anneal_config(cfg, indicators.WEIGHT_SEED,
                          max_trials=indicators.WEIGHT_TRIALS)
    report, model = indicators.indicator_report(
        streams, weights=cfg.get("weights"), state_labels=cfg.get("state_labels"),
        config=acfg, **_present(cfg, "holdout_fraction", "fit_weights",
                                "pre_average_window"))
    save_json(os.path.join(out, "indicators.json"), report)
    if model is not None:
        save_model(os.path.join(out, "indicator_model.json"), model)
    print(f"joined {len(streams)} stream(s) over {report['epochs']} epochs: "
          f"status {report['status']}")
    print(f"wrote {os.path.join(out, 'indicators.json')}")
    if report["status"] == "degenerate_pairing":
        print("error: duplicated indicator streams make the copula singular",
              file=sys.stderr)
        return IllConditioned.exit_code
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--verbose", action="store_true",
                        help="write the annealer's trace CSV (optimize, eeg fit)")

    parser = argparse.ArgumentParser(
        prog="tailfolio",
        description="Tail-risk portfolio engine over copula-joined indicators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-marginals", parents=[common],
                       help="fit per-channel marginals and the copula from CSV")
    p.add_argument("csv", help="series CSV (header row, one column per channel)")
    p.set_defaults(handler=cmd_fit_marginals)

    p = sub.add_parser("sample", parents=[common],
                       help="draw correlated events from a model file")
    p.add_argument("model", help="model JSON")
    p.add_argument("--n", type=int, default=1000, help="number of events")
    p.add_argument("--lanes", type=int, default=1,
                   help="ignored; kept so that older command lines still run")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("risk", parents=[common],
                       help="sample a portfolio and report tail risk")
    p.add_argument("model", help="model JSON")
    p.add_argument("--weights", default=None,
                   help="comma-separated channel weights (default all 1)")
    p.add_argument("--var", type=float, default=VAR_LEVEL, help="VaR level")
    p.add_argument("--q", type=float, default=Q_TARGET, help="target tail mass")
    p.add_argument("--n", type=int, default=100000, help="number of events")
    p.set_defaults(handler=cmd_risk)

    p = sub.add_parser("optimize", parents=[common],
                       help="optimize positions under the tail constraint")
    p.add_argument("model", help="model JSON")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("eeg", parents=[common],
                       help="simulate, fit, or check the regional EEG model")
    p.add_argument("mode", choices=("simulate", "fit", "check"))
    p.add_argument("net", help="net JSON template")
    p.add_argument("series", nargs="?", default=None,
                   help="series CSV (fit and check modes)")
    p.add_argument("--epochs", type=int, default=950,
                   help="epochs to simulate")
    p.set_defaults(handler=cmd_eeg)

    p = sub.add_parser("indicators", parents=[common],
                       help="join indicator streams from several methods")
    p.set_defaults(handler=cmd_indicators)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eeg" and args.mode in ("fit", "check") \
            and args.series is None:
        parser.error("eeg fit/check need a series CSV")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in u64")
    try:
        return args.handler(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except Exception as exc:  # noqa: BLE001  (CLI boundary: map to exit 10)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
