"""File formats: JSON model descriptions and CSV numeric tables.

CSV dialect: comma separated, one header row, '.' decimal point, UTF-8,
LF line endings, numbers printed with 17 significant digits. JSON files
carry a "kind" tag; floats keep full precision through Python's shortest
round-trip repr.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, fields

import numpy as np

from .anneal import AnnealConfig
from .copula import CopulaModel, CorrelationMatrix
from .eeg import ColumnParams, Coupling, ElectrodeSite, RegionNet
from .errors import OutOfDomain, ParseError
from .marginals import ExponentialMarginal

INDEX_NAMES = ("epoch", "event_index", "index", "t")


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def _numpy_to_json(obj):
    """json.dumps hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def save_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=_numpy_to_json)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


# ---------------------------------------------------------------- CSV tables

_BLOCK_ROWS = 4096


def write_table(path, header, values) -> None:
    """Write a (rows, len(header)) numeric array under a one-line header.

    Rows are formatted 4096 at a time, with one % on a repeated
    "%.17g,...\\n" row template.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(header):
        raise ParseError("row width does not match header")
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, values.shape[0], _BLOCK_ROWS):
            block = values[start:start + _BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def read_table(path):
    """Read a numeric CSV into (header tuple, float array (rows, cols)).

    Blank lines are skipped. np.loadtxt parses the rows; when it fails, the
    rows are parsed again one by one to name the line at fault.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first.strip():
                raise ParseError(f"{path}: no data rows")
            header = tuple(name.strip() for name in first.split(","))
            try:
                with warnings.catch_warnings():
                    # an empty body warns; it is reported below as no data rows
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = None
            if data is None or data.shape[1] != len(header):
                fh.seek(0)
                data = _parse_rows(path, fh.read().splitlines(), len(header))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise ParseError(f"{path}: no data rows")
    return header, data


def _parse_rows(path, lines, width):
    """The data rows of lines, line by line, or a ParseError naming the line."""
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, "
                             f"got {len(parts)}")
        try:
            [float(p) for p in parts]   # Python's message for a non-number
            rows.append(np.loadtxt([line], delimiter=",", comments=None, ndmin=1))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rows).reshape(-1, width)


def write_series_csv(path, values, columns, index_name: str = "epoch") -> None:
    """Series table with a leading integer index column."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(columns):
        raise ParseError("values must be (rows, len(columns))")
    write_table(path, (index_name, *columns),
                np.column_stack([np.arange(values.shape[0]), values]))


def read_series_csv(path):
    """Series table back as (channel names, (rows, channels) array).

    A leading index-like column (epoch, event_index, index, t) is dropped.
    """
    header, data = read_table(path)
    if header and header[0].lower() in INDEX_NAMES:
        return tuple(header[1:]), data[:, 1:]
    return tuple(header), data


def write_events_csv(path, batch) -> None:
    write_series_csv(path, batch.dx, batch.channels, index_name="event_index")


def write_bins_csv(path, distribution) -> None:
    edges = distribution.bin_edges
    write_table(path, ("edge_low", "edge_high", "count"),
                np.column_stack([edges[:-1], edges[1:], distribution.bin_counts]))


def write_trace_csv(path, result) -> None:
    """Annealer trace of an OptResult: trial number, cost, acceptance temperature."""
    trace = np.asarray(result.trace).reshape(-1, 2)
    write_table(path, ("trial", "cost", "accept_temp"),
                np.column_stack([np.arange(1, len(trace) + 1), trace]))


# ----------------------------------------------------------- copula model IO

def marginal_from_dict(d: dict) -> ExponentialMarginal:
    try:
        return ExponentialMarginal(m=float(d["m"]), chi=float(d["chi"]),
                                   chi_minus=(None if d.get("chi_minus") is None
                                              else float(d["chi_minus"])),
                                   chi_plus=(None if d.get("chi_plus") is None
                                             else float(d["chi_plus"])))
    except KeyError as exc:
        raise ParseError(f"marginal entry missing field {exc.args[0]!r}") from exc


def save_model(path, model: CopulaModel) -> None:
    payload = {
        "kind": "copula_model",
        "channels": list(model.channels),
        "marginals": [{"channel": ch, **asdict(mg)}
                      for ch, mg in zip(model.channels, model.marginals)],
        "correlation": model.correlation.matrix,
    }
    save_json(path, payload)


def load_model(path) -> CopulaModel:
    d = load_json(path)
    if d.get("kind") != "copula_model":
        raise ParseError(f"{path}: expected kind 'copula_model'")
    try:
        channels = tuple(str(c) for c in d["channels"])
        marginals = tuple(marginal_from_dict(e) for e in d["marginals"])
        matrix = np.asarray(d["correlation"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})") from exc
    corr = CorrelationMatrix.from_matrix(matrix)
    if len(marginals) != len(channels) or corr.dim != len(channels):
        raise ParseError(f"{path}: channel count mismatch")
    return CopulaModel(marginals=marginals, correlation=corr, channels=channels)


# -------------------------------------------------------------- region net IO

def _pair(x):
    a, b = x
    return (float(a), float(b))


def columns_from_dict(d: dict) -> ColumnParams:
    try:
        return ColumnParams(
            n_e=float(d["n_e"]), n_i=float(d["n_i"]), tau_ms=float(d["tau_ms"]),
            threshold=_pair(d["threshold"]),
            gain=(_pair(d["gain"][0]), _pair(d["gain"][1])),
            background=(_pair(d["background"][0]), _pair(d["background"][1])),
            pol_mean=(_pair(d["pol_mean"][0]), _pair(d["pol_mean"][1])),
            pol_var=(_pair(d["pol_var"][0]), _pair(d["pol_var"][1])),
            lr_count=float(d["lr_count"]), lr_gain=float(d["lr_gain"]),
            lr_background=float(d["lr_background"]))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed columns block ({exc})") from exc


def net_from_dict(d: dict) -> RegionNet:
    try:
        sites = tuple(ElectrodeSite(name=str(s["name"]),
                                    offset=float(s["offset"]),
                                    gain_e=float(s["gain_e"]),
                                    gain_i=float(s["gain_i"]),
                                    trough_slope=float(s["trough_slope"]))
                      for s in d["sites"])
        # Coupling rejects a delay that is not a non-negative integer
        couplings = tuple(Coupling(source=str(c["source"]), target=str(c["target"]),
                                   weight=float(c["weight"]), delay=c["delay"])
                          for c in d.get("couplings", ()))
        columns = d["columns"]
        dt_ms = float(d.get("dt_ms", 5.2))
    except (KeyError, TypeError, ValueError, OverflowError, OutOfDomain) as exc:
        raise ParseError(f"malformed net block ({exc})") from exc
    approx = d.get("denominator_approx", True)
    if not isinstance(approx, bool):
        raise ParseError(f"net option 'denominator_approx' must be a boolean, "
                         f"got {approx!r}")
    return RegionNet(sites=sites, couplings=couplings,
                     columns=columns_from_dict(columns), dt_ms=dt_ms,
                     denominator_approx=approx)


def save_net(path, net: RegionNet) -> None:
    save_json(path, {
        "kind": "region_net",
        "dt_ms": net.dt_ms,
        "denominator_approx": net.denominator_approx,
        "columns": asdict(net.columns),
        "sites": [asdict(s) for s in net.sites],
        "couplings": [asdict(c) for c in net.couplings],
    })


def load_net(path) -> RegionNet:
    d = load_json(path)
    if d.get("kind") != "region_net":
        raise ParseError(f"{path}: expected kind 'region_net'")
    return net_from_dict(d)


# ------------------------------------------------------------- config blocks

_ANNEAL_KEYS = {f.name for f in fields(AnnealConfig)}


def anneal_config_from_dict(d: dict) -> AnnealConfig:
    unknown = set(d) - _ANNEAL_KEYS
    if unknown:
        raise ParseError(f"unknown annealer option(s): {sorted(unknown)}")
    kwargs = dict(d)
    if "x0" in kwargs and kwargs["x0"] is not None:
        kwargs["x0"] = tuple(float(v) for v in kwargs["x0"])
    for key in ("reanneal_interval", "acceptance_window", "max_trials",
                "regen_attempts", "seed"):
        if key in kwargs:
            value = kwargs[key]
            try:
                integral = int(value) == value
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ParseError(f"annealer option {key!r} must be an integer, "
                                 f"got {value!r}")
            kwargs[key] = int(value)
    if not 0 <= kwargs.get("seed", 0) < 2 ** 64:
        raise ParseError("annealer seed must fit in u64")
    return AnnealConfig(**kwargs)


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return str(path)
