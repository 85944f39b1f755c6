"""File formats: JSON model descriptions and CSV numeric tables.

CSV dialect: comma separated, one header row, '.' decimal point, UTF-8,
LF line endings, numbers printed with 17 significant digits. JSON files
carry a "kind" tag; floats keep full precision through Python's shortest
round-trip repr.

A large table is written and read in contiguous parts, one per CPU this
process may run on: the first part here, each other one in an os.fork
child that ends in os._exit. The part count never changes a byte written
or a bit read, and any failure of a part redoes the table as one part, so
errors and their messages are those of the one-part path. Without fork and
sched_getaffinity a table is always one part.
"""

from __future__ import annotations

import io
import json
import os
import signal
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
# A large table is written and read in parts, one per CPU this process may
# run on, each part in its own process (see _run_parts). A written part
# holds at least _PART_VALUES values and a read part at least _PART_BYTES
# bytes of text (a %.17g value takes 16-24 bytes). Smaller tables save less
# than about 30 ms a part, so they stay one part.
_PART_VALUES = 1 << 18
_PART_BYTES = 1 << 22


class _PartFailed(Exception):
    """A forked part did not finish; the table is redone as one part."""


def _part_count(size, part_size) -> int:
    """Parts for a table of size units: one per CPU this process may run on,
    each of at least part_size units. Where os.fork or os.sched_getaffinity
    is missing (Windows, macOS), a table is one part."""
    if size < 2 * part_size or not hasattr(os, "fork") \
            or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), size // part_size)


def _reap(pids, kill=False) -> bool:
    """Wait for every child in pids, killing each first when kill is set;
    True when all of them exited with status 0."""
    ok = True
    for pid in pids:
        if kill:
            os.kill(pid, signal.SIGKILL)
        ok = os.waitpid(pid, 0)[1] == 0 and ok
    return ok


def _run_parts(parts, child, own):
    """Run child(i) for i = 1 .. parts - 1, each in a forked child, and own()
    here; return what own() returns once every child has exited with 0.

    A child ends in os._exit, with status 1 when child(i) raised, so it
    never unwinds into the caller's frames or flushes the parent's buffers.
    Every child is reaped before this returns or raises, and killed first
    when own() raises. A child's nonzero exit raises _PartFailed.
    """
    pids = []
    try:
        for i in range(1, parts):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    child(i)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        result = own()
    except BaseException:
        _reap(pids, kill=True)
        raise
    if not _reap(pids):
        raise _PartFailed
    return result


def write_table(path, header, values) -> None:
    """Write a (rows, len(header)) numeric array under a one-line header.

    Rows are formatted 4096 at a time, with one % on a repeated
    "%.17g,...\\n" row template. A large table is split into contiguous row
    ranges: the first is written here and each other one by a forked child
    into an unlinked file beside path, appended in order once all are done.
    The part count never changes a byte; when a part fails, the table is
    written again from the start as one part.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(header):
        raise ParseError("row width does not match header")
    parts = _part_count(values.size, _PART_VALUES)
    if parts > 1:
        try:
            return _write_parts(path, header, values, parts)
        except (OSError, _PartFailed):
            pass
    _write_parts(path, header, values, 1)


def _write_parts(path, header, values, parts) -> None:
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    cuts = [values.shape[0] * i // parts for i in range(parts + 1)]
    spills = []     # one unlinked file per child, opened before the fork

    def write_rows(fh, i):
        for start in range(cuts[i], cuts[i + 1], _BLOCK_ROWS):
            block = values[start:min(start + _BLOCK_ROWS, cuts[i + 1])]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    def child(i):
        with open(spills[i - 1], "w", encoding="utf-8", newline="\n",
                  closefd=False) as fh:
            write_rows(fh, i)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        try:
            for i in range(1, parts):
                name = f"{os.fspath(path)}.part{i}.{os.getpid()}"
                spills.append(os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL,
                                      0o600))
                os.unlink(name)
            _run_parts(parts, child, lambda: write_rows(fh, 0))
            fh.flush()
            for fd in spills:
                _append(fh.fileno(), fd)
        finally:
            for fd in spills:
                os.close(fd)


def _append(out_fd, in_fd) -> None:
    """Append all of file in_fd at out_fd's position."""
    size, offset = os.fstat(in_fd).st_size, 0
    while offset < size:
        sent = os.sendfile(out_fd, in_fd, offset, size - offset)
        if sent == 0:
            raise _PartFailed
        offset += sent


def read_table(path):
    """Read a numeric CSV into (header tuple, float array (rows, cols)).

    Blank lines are skipped. np.loadtxt parses the rows; when it fails, the
    rows are parsed again one by one to name the line at fault. A large file
    is cut at newlines into contiguous byte ranges, each parsed by the same
    np.loadtxt call: the first here, each other one in a forked child that
    sends its rows back through a pipe. The part count never changes a bit;
    when a part fails, the file is parsed again from the start as one part.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first.strip():
                raise ParseError(f"{path}: no data rows")
            header = tuple(name.strip() for name in first.split(","))
            data = None
            parts = _part_count(os.fstat(fh.fileno()).st_size, _PART_BYTES)
            if parts > 1:
                try:
                    data = _read_parts(fh.fileno(), first, len(header), parts)
                except (OSError, ValueError, _PartFailed):
                    pass
            if data is None:
                try:
                    data = _load_rows(fh, len(header))
                except ValueError:
                    fh.seek(0)
                    data = _parse_rows(path, fh.read().splitlines(), len(header))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise ParseError(f"{path}: no data rows")
    return header, data


def _load_rows(stream, width):
    """The rows of a text stream as a (rows, width) array; ValueError when
    np.loadtxt rejects them or a row is not width wide."""
    with warnings.catch_warnings():
        # an empty body warns; read_table reports it as no data rows
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    if data.size == 0:
        return data.reshape(0, width)
    if data.shape[1] != width:
        raise ValueError("row width does not match header")
    return data


class _ByteRange(io.RawIOBase):
    """Bytes [pos, end) of an open file, read with preadv."""

    def __init__(self, fd, pos, end):
        super().__init__()
        self.fd, self.pos, self.end = fd, pos, end

    def readable(self):
        return True

    def readinto(self, buf):
        n = os.preadv(self.fd, [memoryview(buf)[:self.end - self.pos]], self.pos)
        self.pos += n
        return n


def _line_start(fd, pos, end) -> int:
    """The offset just past the first newline at or after pos, or end."""
    while pos < end:
        chunk = os.pread(fd, 1 << 16, pos)
        if not chunk:
            break
        i = chunk.find(b"\n")
        if i >= 0:
            return min(pos + i + 1, end)
        pos += len(chunk)
    return end


def _read_parts(fd, first, width, parts):
    """The rows after the header line first of file fd, parsed in parts byte
    ranges cut just past newlines. Each range is decoded with universal
    newlines, as open() decodes the whole file: a cut after "\n" never
    falls inside a line, nor between the "\r" and "\n" of one break."""
    end = os.fstat(fd).st_size
    start = len(first.encode("utf-8"))
    if first.endswith("\n") and os.pread(fd, 2, start - 1) == b"\r\n":
        start += 1      # text mode read the header's "\r\n" as one "\n"
    cuts = [start] + [_line_start(fd, start + (end - start) * i // parts, end)
                      for i in range(1, parts)] + [end]
    readers, writers = [], []

    def rows(i):
        raw = io.BufferedReader(_ByteRange(fd, cuts[i], cuts[i + 1]), 1 << 20)
        with io.TextIOWrapper(raw, encoding="utf-8") as stream:
            return _load_rows(stream, width)

    def child(i):
        # keep only this part's write end, so every other pipe sees EOF
        # as soon as its own child exits
        out = writers[i - 1]
        for pipe_fd in readers + writers:
            if pipe_fd != out:
                os.close(pipe_fd)
        data = np.ascontiguousarray(rows(i))
        _write_all(out, data.shape[0].to_bytes(8, "little"))
        _write_all(out, data.view(np.uint8).reshape(-1))

    def own():
        while writers:
            os.close(writers.pop())
        head = rows(0)
        counts = [int.from_bytes(_read_exact(r, bytearray(8)), "little")
                  for r in readers]
        data = np.empty((head.shape[0] + sum(counts), width))
        data[:head.shape[0]] = head
        raw, at = data.view(np.uint8).reshape(-1), head.nbytes
        for r, n in zip(readers, counts):
            size = n * width * data.itemsize
            _read_exact(r, raw[at:at + size])
            at += size
        return data

    try:
        for _ in range(1, parts):
            r, w = os.pipe()
            readers.append(r)
            writers.append(w)
        return _run_parts(parts, child, own)
    finally:
        for pipe_fd in readers + writers:
            os.close(pipe_fd)


def _write_all(fd, buf) -> None:
    view = memoryview(buf)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd, buf):
    """Fill buf from fd; _PartFailed if the writer closed the pipe first."""
    view, got = memoryview(buf), 0
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if n == 0:
            raise _PartFailed
        got += n
    return buf


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
    for key in ("t0", "c", "accept_t0", "accept_c"):
        value = kwargs.get(key, 1.0)
        if key == "accept_t0" and value is None:
            continue        # None picks the default, max(|cost(x0)|, 1)
        try:
            finite = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ParseError(f"annealer option {key!r} must be a finite number, "
                             f"got {value!r}")
    if not 0 <= kwargs.get("seed", 0) < 2 ** 64:
        raise ParseError("annealer seed must fit in u64")
    return AnnealConfig(**kwargs)


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return str(path)
