"""File formats: JSON model descriptions and CSV numeric tables.

CSV dialect: comma separated, one header row, '.' decimal point, UTF-8,
LF line endings, numbers printed with 17 significant digits. JSON files
carry a "kind" tag; floats keep full precision through Python's shortest
round-trip repr. Every file is written whole or not at all: as a
temporary beside it, which replaces it once written (_create).

Config, model and net files are read against one key -> cast table per
block of docs/schemas, with one cast per JSON type (number, integer,
boolean, string, array, nullable). A block must be a JSON object; a key
its table does not list, a missing required key and a value of the wrong
type raise a ParseError naming the key.

A table is read from one scan of its bytes (_chunks), which cuts them at
line breaks into chunks of about _CHUNK_BYTES bytes and notes the line
each starts on; that chunk table gives the parts, the row count and the
line of every row, and the header line is read on its own, in a small
pread. A first column named as an index (INDEX_NAMES), as every series
table this package writes has, is parsed but not kept. read_table returns
the transpose of a C-order (cols, rows) array, so a column is contiguous
and table.T hands the whole table over as (channels, rows) rows, to be
mapped and pre-averaged in place. The chunk is the unit of parsing: np.loadtxt
parses each one, and a chunk it rejects, and only that chunk, is parsed
again line by line, skipping whitespace-only lines and naming a line that
is not UTF-8 or not one number per column by its line number in the file.

A large table is written and read in contiguous parts, one per CPU this
process may run on: the first part here, each other one in a forked
child (forks.fork_child). A table made on demand in row blocks (an
events.EventBatch) is split into runs of whole blocks, and each part makes
the rows it handles: write_table formats them, and reduce_rows reduces
each block to one value a row, so no process holds the whole table. A
child reports through shared memory, never its exit status: a written
part formats its text into its own in-memory file (os.memfd_create),
never a file on disk; a read part parses into its columns of one shared
array and puts its row count in another; a reduced part fills its rows
of one shared array. The part count never changes a byte written or a
bit read or made, and any failure of a part redoes the table as one
part, so errors and their messages are those of the one-part path.
Without fork, sched_getaffinity and memfd_create, and while another
thread runs, a table is always one part.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import shutil
import stat
import tempfile
import warnings
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from .errors import EngineError, OutOfDomain, ParseError
from .forks import fork_child, fork_cpus, reap

if TYPE_CHECKING:
    from .copula import CopulaModel
    from .eeg import RegionNet

INDEX_NAMES = ("epoch", "event_index", "index", "t")


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def _numpy_to_json(obj):
    """json.dumps hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@contextmanager
def _create(path):
    """A file for UTF-8 text with LF line endings that becomes path whole or
    not at all: the temporary path.<pid>.tmp beside it, which replaces path
    when the with block ends and is removed when the block raises. path's
    directory is made first, with its parents; a ParseError names --out and
    that directory where it cannot be, and path where it is a directory or
    cannot be opened. A write that fails once the file is open is not an
    input fault, and its OSError stays."""
    folder, tmp = os.path.dirname(path) or ".", f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(folder, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"--out {folder}: {exc.strerror}") from exc
    if os.path.isdir(path):
        raise ParseError(f"cannot write {path}: Is a directory")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_json(path, payload: dict) -> None:
    with _create(path) as fh:
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
_HEAD_BYTES = 1 << 10       # bytes of the first read for a CSV header


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


def _run_parts(parts, part) -> None:
    """Run part(i) for i = 1 .. parts - 1, each in a forked child
    (fork_child), and part(0) here. A child reports through the shared
    memory it fills: once part(i) has returned, it sets its slot of a shared
    array, and a slot left unset raises _PartFailed. Every child is reaped
    before this returns or raises, and killed first when part(0) raises."""
    done, pids = _buffer(parts, parts), []

    def child(i):
        part(i)
        done[i] = 1.0

    try:
        for i in range(1, parts):
            pids.append(fork_child(lambda i=i: child(i)))
        part(0)
    except BaseException:
        reap(pids, kill=True)
        raise
    reap(pids)
    if not done[1:].all():
        raise _PartFailed


def _in_parts(parts, run):
    """run(parts), or run(1) when a split into more parts fails."""
    if parts > 1:
        try:
            return run(parts)
        except (OSError, _PartFailed):
            pass
    return run(1)


def write_table(path, header, values, first_index=None) -> None:
    """Write a (rows, len(header)) numeric table under a one-line header.

    values is an array, or a table made on demand in row blocks, such as an
    events.EventBatch: one with shape, cuts and blocks(first, last), which
    yields (a, rows) for its blocks first .. last - 1. With first_index,
    the first column holds the row numbers counted from first_index and
    values holds the other columns; that column is made per formatting
    block, never for the whole table.

    Rows are formatted about _BLOCK_VALUES values at a time, with one % on
    a repeated "%.17g,...\\n" row template. A large table is split into
    contiguous row ranges, of whole blocks for a table of blocks, each made
    where it is formatted: the first is written here and each other one by
    a forked child into its own in-memory file, appended in order to path's
    temporary (_create) once all are done. The part count never
    changes a byte; when a part fails, the table is made and written again
    from the start as one part.
    """
    if not hasattr(values, "blocks"):
        values = np.asarray(values, dtype=float)
    if len(values.shape) != 2 or values.shape[1] + (first_index is not None) != len(header):
        raise ParseError("row width does not match header")
    for i, name in enumerate(header):   # each must read back through read_table
        if name in header[:i] or name != name.strip() or any(c in name for c in ",\r\n"):
            raise ParseError(f"CSV column name {name!r} repeats, or has a comma, a "
                             f"line break or leading or trailing whitespace")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"CSV column name {name!r} UTF-8 cannot encode") from exc
    _in_parts(_block_parts(values, values.shape[0] * len(header)),
              lambda parts: _write_parts(path, header, values, first_index, parts))


def _block_parts(values, size) -> int:
    """Parts for a table of size values (see _part_count), and no more than
    its blocks when values is made in blocks."""
    parts = _part_count(size, _PART_VALUES)
    return parts if isinstance(values, np.ndarray) else min(parts, len(values.cuts) - 1)


def _part_blocks(values, parts):
    """A function of i that gives (a, rows) for each row block of part i of
    values, in order: a run of whole blocks of a table made in blocks, or
    one contiguous row range of an array."""
    if isinstance(values, np.ndarray):
        cuts = [values.shape[0] * i // parts for i in range(parts + 1)]
        return lambda i: [(cuts[i], values[cuts[i]:cuts[i + 1]])]
    runs = [(len(values.cuts) - 1) * i // parts for i in range(parts + 1)]
    return lambda i: values.blocks(runs[i], runs[i + 1])


def _write_parts(path, header, values, first_index, parts) -> None:
    row = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, _BLOCK_VALUES // len(header))
    blocks = _part_blocks(values, parts)

    def write_rows(i, fd):
        with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
            for a, rows in blocks(i):
                for start in range(0, len(rows), step):
                    block = rows[start:start + step]
                    if first_index is not None:
                        at = a + start + first_index
                        block = np.column_stack([np.arange(at, at + len(block)), block])
                    fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    files = []
    try:
        for i in range(1, parts):
            files.append(os.memfd_create(f"part{i}"))
        # its ParseError is not one _in_parts catches: no part is redone
        with _create(path) as fh:
            fh.write(",".join(header) + "\n")
            fh.flush()
            out = fh.fileno()
            _run_parts(parts, lambda i: write_rows(i, files[i - 1] if i else out))
            for fd in files:
                _append(out, fd)
    finally:
        for fd in files:
            os.close(fd)


def reduce_rows(values, reduce) -> np.ndarray:
    """The (rows,) array whose rows [a, a + len(block)) are reduce(block),
    for each row block (a, block) of values, a table made on demand in
    blocks (see write_table).

    The blocks are split into parts as write_table splits them, each made
    and reduced where it fills its rows of one array: the first here, and
    each other one in a forked child, into a shared mapping. The part count
    never changes a bit; when a part fails, all rows are made again as one
    part.
    """
    return _in_parts(_block_parts(values, values.shape[0] * values.shape[1]),
                     lambda parts: _reduce_parts(values, reduce, parts))


def _reduce_parts(values, reduce, parts) -> np.ndarray:
    out = _buffer(values.shape[0], parts)
    blocks = _part_blocks(values, parts)

    def fill(i):
        for a, rows in blocks(i):
            out[a:a + len(rows)] = reduce(rows)

    _run_parts(parts, fill)
    return out


def _buffer(size, parts) -> np.ndarray:
    """size floats: shared with forked children, in an anonymous mapping,
    when there is more than one part, else a plain array."""
    if parts > 1 and size:
        return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)
    return np.empty(size)


def _append(out_fd, in_fd) -> None:
    """Append all of file in_fd at out_fd's position."""
    size, offset = os.fstat(in_fd).st_size, 0
    while offset < size:
        sent = os.sendfile(out_fd, in_fd, offset, size - offset)
        if sent == 0:
            raise _PartFailed
        offset += sent


def read_table(path):
    """Read a numeric CSV into (column names, float array (rows, columns)).

    The table is the transpose of a C-order (cols, rows) array, so each
    column is contiguous and table.T is a channel-major array of its own
    memory; tobytes() still gives the (rows, cols) C-order bytes. Blank
    and whitespace-only lines are skipped, and a leading UTF-8 byte order
    mark is not part of the first column name. A first column named as an
    index (INDEX_NAMES, any case) is parsed and checked as every column
    is, but neither stored nor returned, nor its name: the names and the
    array are those of the other columns.

    One scan of the file's bytes (_chunks) cuts them at line breaks into
    chunks and notes the line each chunk starts on. The header is the
    file's first line, read by _first_line and decoded as UTF-8 after any
    byte order mark, and chunk 0 then starts past it. _read_parts parses
    the chunks into an array sized from that table's line count: in parts
    of whole chunks, the first here and each other one in a forked child. The part count never changes a
    bit; when a part fails, the same chunks are parsed again as one part,
    so an error names the line the one-part parse names. A file that is not
    a regular one, such as a pipe, is parsed from a copy (see _seekable).
    """
    try:
        with _seekable(path) as fh:
            fd = fh.fileno()
            cuts, lines = _chunks(fd, 0, os.fstat(fd).st_size)
            first = _first_line(fd, cuts[1])
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
            skip = int(header[0].lower() in INDEX_NAMES)
            data = _in_parts(_part_count(cuts[-1], _PART_BYTES), lambda parts: _read_parts(
                path, fd, cuts, lines, len(header), skip, parts))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not len(data):
        raise ParseError(f"{path}: no data rows")
    return header[skip:], data


def _first_line(fd, end) -> bytes:
    """The first line of file fd, with its break, from bytes [0, end),
    where end is past a line break or the file's end. It is read in
    _HEAD_BYTES, then twice as many bytes at each try, until a read holds
    a break that a following "\n" cannot extend, or reaches end."""
    size = _HEAD_BYTES
    head = os.pread(fd, min(size, end), 0)
    while len(head) == size < end and b"\n" not in head and b"\r" not in head[:-1]:
        size *= 2
        head = os.pread(fd, min(size, end), 0)
    return (head.splitlines(True) or [b""])[0]


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


def _load_line(line, out, width) -> int:
    """Parse one line of bytes of width cells into out, a column of its
    last len(out) values: 1, or 0 for a whitespace-only line. ValueError,
    with Python's message, for a line that is not UTF-8 or not one number
    per column."""
    text = line.decode("utf-8")
    if not text.strip():
        return 0
    cells = text.split(",")
    if len(cells) != width:
        raise ValueError(f"expected {width} fields, got {len(cells)}")
    [float(c) for c in cells]   # Python's message for a non-number
    out[:] = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)[width - len(out):]
    return 1


def _read_parts(path, fd, cuts, lines, width, skip, parts):
    """The rows of the chunks of file fd that cuts and lines give (see
    _chunks), parsed, width values a row, into one (width - skip, rows)
    array that holds all but their first skip columns; its transpose.

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
    kept = width - skip
    # the children fill shared mappings; one part needs none
    buf = _buffer(kept * offsets[-1], parts).reshape(kept, offsets[-1])
    counts = _buffer(parts, parts)

    def fill(i):
        at = offsets[i]
        for k in range(runs[i], runs[i + 1]):
            raw = os.pread(fd, cuts[k + 1] - cuts[k], cuts[k])
            try:
                rows = _load_rows(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),
                                  width)
            except ValueError:  # a whitespace-only, bad or non-UTF-8 line
                for j, line in enumerate(raw.splitlines()):
                    try:
                        at += _load_line(line, buf[:, at], width)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{1 + lines[k] + j}: {exc}") from exc
            else:
                buf[:, at:at + len(rows)] = rows[:, skip:].T
                at += len(rows)
        counts[i] = at - offsets[i]

    _run_parts(parts, fill)
    rows = int(counts.sum())
    if rows < offsets[-1]:  # blank lines: pack the rows read to the front
        flat = buf.reshape(-1)
        for j in range(kept):
            at = j * rows
            for offset, count in zip(offsets, counts.astype(int)):
                flat[at:at + count] = buf[j, offset:offset + count]
                at += count
        return flat[:kept * rows].reshape(kept, rows).T
    return buf.T


def write_series_csv(path, values, columns, index_name: str = "epoch") -> None:
    """Series table with a leading integer index column."""
    write_table(path, (index_name, *columns), values, first_index=0)


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


def _number(v) -> float:
    """A JSON number as a float; inf (JSON's 1e400) and NaN included."""
    return float(_plain((int, float), "a number")(v))


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
_ANNEAL_CASTS = {"window_repeat_tol": _number, "max_trials": _integer, "seed": _u64,
                "x0": _nullable(_NUMBERS)}
_ANNEAL = _object(_ANNEAL_CASTS, "annealer option")
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
    # a model's types are loaded by the commands that read one, not by every
    # command that reads or writes a table
    from .copula import CopulaModel, CorrelationMatrix
    from .marginals import ExponentialMarginal
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
    from .eeg import ColumnParams, Coupling, ElectrodeSite, RegionNet
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

