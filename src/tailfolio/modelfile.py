"""File formats: JSON model descriptions and CSV numeric tables.

CSV dialect: comma separated, one header row, '.' decimal point, UTF-8,
LF line endings, numbers printed with 17 significant digits. JSON files
carry a "kind" tag; floats keep full precision through Python's shortest
round-trip repr.

Config, model and net files are read against one key -> cast table per
block of docs/schemas, with one cast per JSON type (number, integer,
boolean, string, array, nullable). A block must be a JSON object; a key
its table does not list, a missing required key and a value of the wrong
type raise a ParseError naming the key.

A table is read from one scan of its bytes (_chunks), which cuts them at
line breaks into chunks of about _CHUNK_BYTES bytes and notes the line
each starts on; that chunk table gives the header, the parts, the row
count and the line of every row. read_table returns the transpose of a
C-order (cols, rows) array, so a column is contiguous and table.T hands
the whole table over as (channels, rows) rows, to be mapped and
pre-averaged in place. The chunk is the unit of parsing: np.loadtxt
parses each one, and a chunk it rejects, and only that chunk, is parsed
again line by line, skipping whitespace-only lines and naming a line that
is not UTF-8 or not one number per column by its line number in the file.

A large table is written and read in contiguous parts, one per CPU this
process may run on: the first part here, each other one in an os.fork
child that ends in os._exit. A written part returns its text through its
own in-memory file (os.memfd_create), never a file on disk; a read part
parses into its columns of one shared array and returns its row count the
same way. The part count never changes a byte written or a bit read, and
any failure of a part redoes the table as one part, so errors and their
messages are those of the one-part path. Without fork, sched_getaffinity
and memfd_create, and while another thread runs, a table is always one
part.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import shutil
import signal
import stat
import tempfile
import warnings
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .anneal import fork_cpus
from .copula import CopulaModel, CorrelationMatrix
from .eeg import ColumnParams, Coupling, ElectrodeSite, RegionNet
from .errors import EngineError, OutOfDomain, ParseError
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, default=_numpy_to_json)
        fh.write("\n")


@contextmanager
def _naming(path):
    """Re-raise an EngineError from the with block as its own type, with
    path in front of its message: the exit code stays, and the file is named."""
    try:
        yield
    except EngineError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_json(path) -> dict:
    """A JSON object file as a dict; UTF-8, after any byte order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return _dict(json.load(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except TypeError as exc:    # not a JSON object, or path is not a path
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- CSV tables

_BLOCK_VALUES = 1 << 15     # values formatted per % call
# A large table is written and read in parts, one per CPU this process may
# run on, each part in its own process (see _run_parts). A written part
# holds at least _PART_VALUES values and a read part at least _PART_BYTES
# bytes of text (a %.17g value takes 16-24 bytes). Smaller tables save less
# than about 30 ms a part, so they stay one part.
_PART_VALUES = 1 << 18
_PART_BYTES = 1 << 22
_CHUNK_BYTES = 1 << 18      # bytes of text read or parsed per call


class _PartFailed(Exception):
    """A forked part did not finish; the table is redone as one part."""


def _part_count(size, part_size) -> int:
    """Parts for a table of size units: one per CPU this process may run on,
    each of at least part_size units. Where os.fork, os.sched_getaffinity or
    os.memfd_create is missing (Windows, macOS), or while another thread
    runs (fork_cpus), a table is one part."""
    if size < 2 * part_size:
        return 1
    return min(fork_cpus("memfd_create"), size // part_size)


def _reap(pids, kill=False) -> bool:
    """Wait for every child in pids, killing each first when kill is set;
    True when all of them exited with status 0."""
    ok = True
    for pid in pids:
        if kill:
            os.kill(pid, signal.SIGKILL)
        ok = os.waitpid(pid, 0)[1] == 0 and ok
    return ok


def _run_parts(parts, child, own, gather):
    """Run child(i, fd) for i = 1 .. parts - 1, each in a forked child that
    writes its whole result to fd, an in-memory file (os.memfd_create) made
    for it before its fork, and own() here; once every child has exited with
    0, return gather(own's result, the part files in order).

    A child ends in os._exit, with status 1 when child(i, fd) raised, so it
    never unwinds into the caller's frames or flushes the parent's buffers.
    Every child is reaped before this returns or raises, and killed first
    when own() raises. A child's nonzero exit raises _PartFailed. Every part
    file is closed here, on every path.
    """
    files, pids = [], []
    try:
        try:
            for i in range(1, parts):
                files.append(os.memfd_create(f"part{i}"))
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        child(i, files[-1])
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
        return gather(result, files)
    finally:
        for fd in files:
            os.close(fd)


def write_table(path, header, values, first_index=None) -> None:
    """Write a (rows, len(header)) numeric array under a one-line header.

    With first_index, the first column holds the row numbers counted from
    first_index and values holds the other columns; that column is made per
    formatting block, never for the whole table.

    Rows are formatted about _BLOCK_VALUES values at a time, with one % on
    a repeated "%.17g,...\\n" row template. A large table is split into
    contiguous row ranges: the first is written here and each other one by
    a forked child into its own in-memory file, appended to path in order
    once all are done; no other file is created. The part count never
    changes a byte; when a part fails, the table is written again from the
    start as one part.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] + (first_index is not None) != len(header):
        raise ParseError("row width does not match header")
    for i, name in enumerate(header):   # each must read back through read_table
        if name in header[:i] or name != name.strip() or any(c in name for c in ",\r\n"):
            raise ParseError(f"CSV column name {name!r} repeats, or has a comma, a "
                             f"line break or leading or trailing whitespace")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"CSV column name {name!r} UTF-8 cannot encode") from exc
    parts = _part_count(values.shape[0] * len(header), _PART_VALUES)
    if parts > 1:
        try:
            return _write_parts(path, header, values, first_index, parts)
        except (OSError, _PartFailed):
            pass
    _write_parts(path, header, values, first_index, 1)


def _write_parts(path, header, values, first_index, parts) -> None:
    row = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, _BLOCK_VALUES // len(header))
    cuts = [values.shape[0] * i // parts for i in range(parts + 1)]

    def write_rows(i, fd):
        with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
            for start in range(cuts[i], cuts[i + 1], step):
                stop = min(start + step, cuts[i + 1])
                block = values[start:stop]
                if first_index is not None:
                    block = np.column_stack(
                        [np.arange(start + first_index, stop + first_index), block])
                fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.flush()
        out = fh.fileno()

        def append(_, files):
            for fd in files:
                _append(out, fd)

        _run_parts(parts, write_rows, lambda: write_rows(0, out), append)


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

    The table is the transpose of a C-order (cols, rows) array, so each
    column is contiguous and table.T is a channel-major array of its own
    memory; tobytes() still gives the (rows, cols) C-order bytes. Blank
    and whitespace-only lines are skipped, and a leading UTF-8 byte order
    mark is not part of the first column name.

    One scan of the file's bytes (_chunks) cuts them at line breaks into
    chunks and notes the line each chunk starts on. The header is chunk
    0's first line, decoded as UTF-8 after any byte order mark, and chunk 0
    then starts past it. _read_parts parses the chunks into an array sized
    from that table's line count: in parts of whole chunks, the first here
    and each other one in a forked child. The part count never changes a
    bit; when a part fails, the same chunks are parsed again as one part,
    so an error names the line the one-part parse names. A file that is not
    a regular one, such as a pipe, is parsed from a copy (see _seekable).
    """
    try:
        with _seekable(path) as fh:
            fd = fh.fileno()
            cuts, lines = _chunks(fd, 0, os.fstat(fd).st_size)
            first = (os.pread(fd, cuts[1], 0).splitlines(True) or [b""])[0]
            try:    # the body is decoded, and checked, chunk by chunk
                text = first.decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:1: {exc}") from exc
            if not text.strip():
                raise ParseError(f"{path}: no data rows")
            header = tuple(name.strip() for name in text.split(","))
            if len(set(header)) != len(header):
                raise ParseError(f"{path}: column names must be unique, "
                                 f"got {list(header)}")
            cuts[0], lines[0] = len(first), 1
            data = None
            parts = _part_count(cuts[-1], _PART_BYTES)
            if parts > 1:
                try:
                    data = _read_parts(path, fd, cuts, lines, len(header), parts)
                except (OSError, _PartFailed):
                    pass
            if data is None:
                data = _read_parts(path, fd, cuts, lines, len(header), 1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise ParseError(f"{path}: no data rows")
    return header, data


@contextmanager
def _seekable(path):
    """path opened as a binary file; a pipe or other file that is not a
    regular one is first copied into an unnamed temporary file, flushed so
    that os.pread reads all of it, and that is yielded."""
    with open(path, "rb") as raw:
        if stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            yield raw
            return
        with tempfile.TemporaryFile() as copy:
            shutil.copyfileobj(raw, copy)
            copy.flush()
            yield copy


def _chunks(fd, pos, end):
    """Bytes [pos, end) of file fd, read once, _CHUNK_BYTES at a time, and
    cut just past the last line break ("\n", "\r\n" or a lone "\r", as
    universal newlines read them) of each read, never between a "\r" and
    its "\n"; a read without a break grows its chunk into the next read.

    As (cuts, lines): chunk k is bytes [cuts[k], cuts[k + 1]) and starts on
    line lines[k], counted from 0; lines[-1] is the range's line count, its
    breaks plus one for a last line without a break. There is always at
    least one chunk, empty for an empty range."""
    cuts, lines, count, last = [pos], [0], 0, b""
    while pos < end:
        block = os.pread(fd, min(_CHUNK_BYTES, end - pos), pos)
        if not block:
            break
        if last == b"\r" and block[:1] == b"\n":
            count -= 1      # one "\r\n", split between two reads
        # a "\r" that ends a read, but not the range, may start a "\r\n"
        stop = len(block) - (block[-1:] == b"\r" and pos + len(block) < end)
        cut = 1 + max(block.rfind(b"\n", 0, stop), block.rfind(b"\r", 0, stop))
        breaks = _breaks(block)
        if cut:
            cuts.append(pos + cut)
            lines.append(count + breaks - _breaks(block, cut))
        count += breaks
        pos, last = pos + len(block), block[-1:]
    if cuts[-1] < pos or len(cuts) == 1:
        cuts.append(pos)
        lines.append(count + (last not in b"\r\n"))
    return cuts, lines


def _breaks(raw, start=0) -> int:
    """The line breaks in raw[start:]: each "\n", and each "\r" not
    followed by a "\n"."""
    if raw.find(b"\r", start) < 0:
        return raw.count(b"\n", start)
    return raw.count(b"\n", start) + raw.count(b"\r", start) - raw.count(b"\r\n", start)


def _load_rows(stream, width):
    """The rows of a text stream as a (rows, width) array; ValueError when
    np.loadtxt rejects them or a row is not width wide."""
    with warnings.catch_warnings():
        # an empty body warns; read_table reports it as no data rows
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != width:  # also a chunk of blank lines, as (0, 1)
        raise ValueError("row width does not match header")
    return data


def _load_line(line, out) -> int:
    """Parse one line of bytes into out, a column of len(out) values: 1, or
    0 for a whitespace-only line. ValueError, with Python's message, for a
    line that is not UTF-8 or not one number per column."""
    text = line.decode("utf-8")
    if not text.strip():
        return 0
    cells = text.split(",")
    if len(cells) != len(out):
        raise ValueError(f"expected {len(out)} fields, got {len(cells)}")
    [float(c) for c in cells]   # Python's message for a non-number
    out[:] = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
    return 1


def _read_parts(path, fd, cuts, lines, width, parts):
    """The rows of the chunks of file fd that cuts and lines give (see
    _chunks), parsed into one (width, rows) array; its transpose.

    A part is a run of whole chunks: part i starts at the first chunk that
    starts at or past i / parts of the bytes, and its rows at the lines
    before that chunk, so the array is sized before any row is parsed. Each
    chunk is read once and parsed by np.loadtxt, decoded with universal
    newlines as open() decodes the whole file. When np.loadtxt rejects a
    chunk, its lines are parsed one by one, and a bad line raises a
    ParseError naming path and its line: 1 + the line its chunk starts on
    + its place in the chunk."""
    start, end = cuts[0], cuts[-1]
    runs = [bisect_left(cuts, start + (end - start) * i // parts)
            for i in range(parts)] + [len(cuts) - 1]
    offsets = [lines[k] - lines[0] for k in runs]
    size = width * offsets[-1]
    # the children write into a shared mapping; one part needs none
    buf = (np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float) if parts > 1 and size
           else np.empty(size)).reshape(width, offsets[-1])

    def fill(i) -> int:
        at = offsets[i]
        for k in range(runs[i], runs[i + 1]):
            raw = os.pread(fd, cuts[k + 1] - cuts[k], cuts[k])
            try:
                rows = _load_rows(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),
                                  width)
            except ValueError:  # a whitespace-only, bad or non-UTF-8 line
                for j, line in enumerate(raw.splitlines()):
                    try:
                        at += _load_line(line, buf[:, at])
                    except ValueError as exc:
                        raise ParseError(f"{path}:{1 + lines[k] + j}: {exc}") from exc
            else:
                buf[:, at:at + len(rows)] = rows.T
                at += len(rows)
        return at - offsets[i]

    def child(i, part):
        os.write(part, fill(i).to_bytes(8, "little"))

    def gather(head, files):
        counts = [head]
        for part in files:
            count = os.pread(part, 9, 0)
            if len(count) != 8:
                raise _PartFailed
            counts.append(int.from_bytes(count, "little"))
        rows = sum(counts)
        if rows < offsets[-1]:  # blank lines: pack the rows read to the front
            flat = buf.reshape(-1)
            for j in range(width):
                at = j * rows
                for offset, count in zip(offsets, counts):
                    flat[at:at + count] = buf[j, offset:offset + count]
                    at += count
            return flat[:width * rows].reshape(width, rows).T
        return buf.T

    return _run_parts(parts, child, lambda: fill(0), gather)


def write_series_csv(path, values, columns, index_name: str = "epoch") -> None:
    """Series table with a leading integer index column."""
    write_table(path, (index_name, *columns), values, first_index=0)


def read_series_csv(path):
    """Series table back as (channel names, (rows, channels) array).

    A leading index-like column (epoch, event_index, index, t) is dropped.
    """
    header, data = read_table(path)
    if header and header[0].lower() in INDEX_NAMES:
        return tuple(header[1:]), data[:, 1:]
    return tuple(header), data


def write_bins_csv(path, distribution) -> None:
    edges = distribution.bin_edges
    write_table(path, ("edge_low", "edge_high", "count"),
                np.column_stack([edges[:-1], edges[1:], distribution.bin_counts]))


def write_trace_csv(path, result) -> None:
    """Annealer trace of an OptResult: trial number, cost, acceptance temperature."""
    trace = np.asarray(result.trace).reshape(-1, 2)
    write_table(path, ("trial", "cost", "accept_temp"), trace, first_index=1)


# -------------------------------------------------------------- typed reader
#
# A cast returns one JSON value as the program holds it, or raises TypeError
# or ValueError; _object names the key in the ParseError. Casts check JSON
# types only; domain checks stay with the types and functions that own them.

def _plain(kinds, name):
    """Cast: a JSON value whose type is one of kinds, as it is; a boolean
    only where kinds holds bool, though bool subclasses int."""
    def cast(v):
        if not isinstance(v, kinds) or isinstance(v, bool) and bool not in kinds:
            raise TypeError(f"must be {name}, got {v!r}")
        return v
    return cast


_boolean, _string = _plain((bool,), "a JSON boolean"), _plain((str,), "a string")
_dict = _plain((dict,), "a JSON object")
_label = _plain((str, int, float), "a string or a number")


def _number(v, finite=False) -> float:
    """A JSON number as a float; with finite, not inf or NaN (JSON's 1e400
    loads as inf)."""
    name = "a finite number" if finite else "a number"
    x = float(_plain((int, float), name)(v))
    if finite and not np.isfinite(x):
        raise TypeError(f"must be {name}, got {v!r}")
    return x


def _finite(v) -> float:
    return _number(v, finite=True)


def _integer(v) -> int:
    """An integral JSON number, 7 or 7.0, as an int; never a boolean."""
    if not float(_plain((int, float), "an integer")(v)).is_integer():
        raise TypeError(f"must be an integer, got {v!r}")
    return int(v)


def _u64(v) -> int:
    if not 0 <= (v := _integer(v)) < 2 ** 64:
        raise ValueError(f"must fit in u64, got {v}")
    return v


def _array(item, length=None):
    """Cast: a JSON array, of length items when given, as a tuple of item(x)."""
    def cast(v):
        if not isinstance(v, (list, tuple)) or length not in (None, len(v)):
            raise TypeError(f"must be an array{f' of {length}' if length else ''}"
                            f", got {v!r}")
        return tuple(map(item, v))
    return cast


def _nullable(cast):
    return lambda v: None if v is None else cast(v)


def _object(table, what, required=()):
    """Cast: a JSON object as a dict, each value read by its key's cast in
    table; ParseError names an unlisted, missing required or rejected key."""
    def cast(d):
        unknown = sorted(_dict(d).keys() - table.keys())
        missing = [key for key in required if key not in d]
        if unknown or missing:
            raise ParseError(f"unknown {what}(s): {unknown}" if unknown
                             else f"missing {what} {missing[0]!r}")
        out = {}
        for key, value in d.items():
            try:
                out[key] = table[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"{what} {key!r} {exc}") from exc
        return out
    return cast


def _bounds(v):
    """[lo, hi] pairs by parameter key (eeg fit) or in order (optimize)."""
    try:    # a table of v's own keys; _object raises TypeError on a non-object
        return _object(dict.fromkeys(v, _PAIR), "bound")(v)
    except TypeError:
        return _array(_PAIR)(v)


# One table per block of docs/schemas, in the schemas' key order.
_PAIR, _NUMBERS = _array(_number, 2), _array(_number)
_ANNEAL = _object({
    "t0": _finite, "c": _finite, "accept_t0": _nullable(_finite), "accept_c": _finite,
    "reanneal_interval": _integer, "window_repeat_tol": _number,
    "max_trials": _integer, "k_max": _number, "regen_attempts": _integer,
    "sensitivity_step": _number, "seed": _u64,
    "x0": _nullable(_NUMBERS)}, "annealer option")
_CONFIG = _object({
    "marginal_window": _nullable(_integer), "asymmetric": _boolean,
    "pre_average_window": _integer,
    "template": _object({"type": _string, "offsets": _NUMBERS, "prices": _NUMBERS,
                         "entry_prices": _NUMBERS, "cash": _number,
                         "prev_counts": _nullable(_NUMBERS), "slippage": _number},
                        "template option"),
    "bounds": _bounds,
    "risk": _object({"var_level": _number, "q_target": _number,
                     "q_tolerance": _number, "penalty_weight": _number}, "risk option"),
    "n": _integer, "refine_calls": _integer, "penalty_weight": _number,
    "free": _array(_string), "anneal": _ANNEAL,
    "methods": _array(_object({"name": _string, "csv": _string, "column": _string,
                               "kind": _string, "net": _string},
                              "method option", required=("name", "csv"))),
    "holdout_fraction": _number, "fit_weights": _boolean,
    "weights": _nullable(_NUMBERS), "state_labels": _nullable(_array(_label)),
}, "config option")
_MODEL = _object({
    "kind": _string, "channels": _array(_string),
    "marginals": _array(_object({"channel": _string, "m": _number, "chi": _number,
                                 "chi_minus": _nullable(_number),
                                 "chi_plus": _nullable(_number)},
                                "marginal field", required=("channel", "m", "chi"))),
    "correlation": _array(_NUMBERS),
}, "model field", required=("kind", "channels", "marginals", "correlation"))
_COLUMNS = {"n_e": _number, "n_i": _number, "tau_ms": _number, "threshold": _PAIR,
            **dict.fromkeys(("gain", "background", "pol_mean", "pol_var"),
                            _array(_PAIR, 2)),
            "lr_count": _number, "lr_gain": _number, "lr_background": _number}
_SITE = {"name": _string, "offset": _number, "gain_e": _number, "gain_i": _number,
         "trough_slope": _number}
_COUPLING = {"source": _string, "target": _string, "weight": _number,
             "delay": _integer}
_NET = _object({
    "kind": _string, "dt_ms": _number, "denominator_approx": _boolean,
    "columns": _object(_COLUMNS, "columns field", required=_COLUMNS),
    "sites": _array(_object(_SITE, "site field", required=_SITE)),
    "couplings": _array(_object(_COUPLING, "coupling field", required=_COUPLING)),
}, "net field", required=("kind", "dt_ms", "columns", "sites"))


# ----------------------------------------------------------- copula model IO

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
        raise ParseError(f"{path}: 'kind' must be 'copula_model'")
    try:
        m = _MODEL(d)
        matrix = np.asarray(m["correlation"], dtype=float)  # ValueError if ragged
    except (ParseError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})") from exc
    if len(m["marginals"]) != len(m["channels"]):
        raise ParseError(f"{path}: 'marginals' must hold one entry per channel, "
                         f"got {len(m['marginals'])} for {len(m['channels'])}")
    if len(set(m["channels"])) != len(m["channels"]):
        raise ParseError(f"{path}: 'channels' must be unique, got {m['channels']}")
    for i, (e, name) in enumerate(zip(m["marginals"], m["channels"])):
        if (got := e.pop("channel")) != name:
            raise ParseError(f"{path}: marginal {i} names channel {got!r}, "
                             f"expected {name!r} from 'channels'")
    with _naming(path):
        marginals = tuple(ExponentialMarginal(**e) for e in m["marginals"])
        corr = CorrelationMatrix.from_matrix(matrix)
    if corr.dim != len(marginals):
        raise ParseError(f"{path}: 'correlation' must be {len(marginals)}x"
                         f"{len(marginals)} for the channels, got {corr.dim}x{corr.dim}")
    return CopulaModel(marginals=marginals, correlation=corr, channels=m["channels"])


# -------------------------------------------------------------- region net IO

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
        raise ParseError(f"{path}: 'kind' must be 'region_net'")
    try:
        n = _NET(d)
        # Coupling's OutOfDomain (a negative delay) reads as a malformed
        # block; ColumnParams and RegionNet raise their own types below
        couplings = tuple(Coupling(**c) for c in n.pop("couplings", ()))
    except (ParseError, OutOfDomain) as exc:
        raise ParseError(f"{path}: malformed net block ({exc})") from exc
    del n["kind"]
    with _naming(path):
        return RegionNet(sites=tuple(ElectrodeSite(**s) for s in n.pop("sites")),
                         couplings=couplings, columns=ColumnParams(**n.pop("columns")),
                         **n)


# ------------------------------------------------------------- config blocks

def read_config(path) -> dict:
    """A --config file's keys, each read to its schema type; {} for None."""
    return {} if path is None else _CONFIG(load_json(path))


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return str(path)
