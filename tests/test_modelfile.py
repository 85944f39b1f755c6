import builtins
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailfolio import modelfile
from tailfolio.anneal import AnnealConfig, minimize
from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.cli import exit_code_for
from tailfolio.eeg import ColumnParams
from tailfolio.errors import OutOfDomain, ParseError
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import (fmt, load_json, load_model, load_net,
                                 read_config, read_table, save_json, save_model,
                                 save_net, write_bins_csv, write_series_csv,
                                 write_table, write_trace_csv)
from tailfolio.risk import fit_bins

from helpers import traced_peak, two_site_net

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_fmt_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.pi, 5e-324]
    for v in values:
        assert float(fmt(v)) == v


def test_table_round_trip_exact(tmp_path):
    path = tmp_path / "t.csv"
    rows = np.array([[0.1, 1.0 / 3.0], [-1e-17, 2.0 ** 53]])
    write_table(path, ("a", "b"), rows)
    header, data = read_table(path)
    assert header == ("a", "b")
    assert np.array_equal(data, rows)
    text = path.read_text()
    assert "\r" not in text
    assert text.endswith("\n")


def test_write_table_matches_per_value_format(tmp_path):
    # the bytes of the former writer: "%.17g" per value, joined by commas
    special = [-0.0, 5e-324, 2.0 ** 53, 1.0 / 3.0, np.inf, -np.inf, np.nan,
               -1e-300, 1e308, 0.1]
    values = np.column_stack([np.arange(len(special)), special,
                              -np.asarray(special[::-1])])
    path = tmp_path / "t.csv"
    write_table(path, ("index", "a", "b"), values)
    expected = "index,a,b\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in values)
    assert path.read_bytes() == expected.encode("utf-8")
    assert "-0," in expected and ",inf," in expected and "nan" in expected

    empty = tmp_path / "empty.csv"
    write_table(empty, ("a", "b"), np.empty((0, 2)))
    assert empty.read_bytes() == b"a,b\n"

    # one row more than a formatting block; specials sit on both sides of it
    block = modelfile._BLOCK_VALUES // 3
    rng = np.random.default_rng(5)
    many = (rng.standard_normal((block + 1, 3))
            * 10.0 ** rng.integers(-300, 300, (block + 1, 3)))
    cells = [(0, 0), (1, 1), (block - 2, 2), (block - 1, 0), (block - 1, 1),
             (block - 1, 2), (block, 0), (block, 1), (block, 2), (2000, 1)]
    for (row, col), v in zip(cells, special):
        many[row, col] = v
    big = tmp_path / "big.csv"
    write_table(big, ("x", "y", "z"), many)
    expected = "x,y,z\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in many)
    assert big.read_bytes() == expected.encode("utf-8")
    former = io.StringIO()
    np.savetxt(former, many, fmt="%.17g", delimiter=",", header="x,y,z", comments="")
    assert big.read_text() == former.getvalue()
    with pytest.raises(ParseError, match="width"):
        write_table(empty, ("a", "b"), np.zeros((2, 3)))


def test_trace_csv_matches_former_annealer_format(tmp_path):
    res = minimize(lambda p: float(np.sum(p ** 2)), [(-1.0, 1.0)] * 2,
                   AnnealConfig(seed=2, max_trials=300))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, res)
    costs, temps = res.trace[0::2], res.trace[1::2]
    assert len(costs) == res.trials
    expected = "trial,cost,accept_temp\n" + "".join(
        f"{i},{c:.17g},{t:.17g}\n" for i, (c, t) in enumerate(zip(costs, temps), 1))
    assert path.read_text() == expected


def test_read_table_names_the_file_line(tmp_path):
    late = tmp_path / "late.csv"
    late.write_text("a,b\n1.0,2.0\n\n3.0,oops\n")
    with pytest.raises(ParseError, match=r"late\.csv:4: .*'oops'"):
        read_table(late)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("a,b,c\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ParseError, match=r"narrow\.csv:2: expected 3 fields, got 2"):
        read_table(narrow)

    # Python's float() takes digit separators; the table format does not
    underscore = tmp_path / "underscore.csv"
    underscore.write_text("a\n1.0\n1_000\n")
    with pytest.raises(ParseError, match=r"underscore\.csv:3"):
        read_table(underscore)

    # a byte that is never UTF-8: in the header, and past its read buffer
    for text, line in ((b"a,\xffb\n1,2\n", 1),
                       (b"a\n" + b"1\n" * 5000 + b"\xff\n", 5002)):
        late.write_bytes(text)
        with pytest.raises(ParseError, match=rf"late\.csv:{line}: 'utf-8' codec "
                                             rf"can't decode byte 0xff"):
            read_table(late)

    blank_only = tmp_path / "blank.csv"
    blank_only.write_text("a,b\n\n  \n")
    with pytest.raises(ParseError, match="no data rows"):
        read_table(blank_only)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_read_table_names_the_line_whatever_its_chunks(tmp_path, monkeypatch, newline):
    """Chunks cut at every byte, "\\r\\n" split between two reads included,
    name the file line of a bad value, and the row count of a good file."""
    path = tmp_path / "t.csv"
    lines = [b"a,b", b"1,2", b"", b"3,4", b"5,x", b"6,7"]
    for chunk in range(1, 16):
        monkeypatch.setattr(modelfile, "_CHUNK_BYTES", chunk)
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParseError, match=r"t\.csv:5: could not convert string to float"):
            read_table(path)
        path.write_bytes(newline.join(lines[:4]) + newline + b"5,8")
        assert read_table(path)[1].tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 8.0]]


def test_read_table_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1.0,2.0\n\n   \n3.0, 4.0 \n")
    header, data = read_table(path)
    assert header == ("a", "b")
    assert np.array_equal(data, [[1.0, 2.0], [3.0, 4.0]])
    single = tmp_path / "single.csv"
    single.write_text("x\n5.0\n")
    assert read_table(single)[1].shape == (1, 1)


def test_read_table_drops_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    for newline in (b"\n", b"\r\n", b"\r"):
        plain.write_bytes(newline.join([b"epoch,a", b"0,1.5", b"1,2.5", b""]))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        header, data = read_table(marked)
        assert header == ("a",)
        assert data.tobytes() == read_table(plain)[1].tobytes()


def test_read_table_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="no data rows"):
        read_table(empty)

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_table(header_only)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        read_table(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,oops\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2"):
        read_table(bad)

    with pytest.raises(ParseError, match="cannot read"):
        read_table(tmp_path / "missing.csv")


# ------------------------------------------------- tables split across parts

needs_fork = pytest.mark.skipif(
    not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")),
    reason="tables are split only where os.fork, sched_getaffinity and "
           "memfd_create exist")


def split_into(mp, cpus, part=1):
    """Split tables across up to cpus parts of at least part values when
    written, or part bytes when read; cpus=1 is the one-part path."""
    mp.setattr(modelfile, "_PART_VALUES", part)
    mp.setattr(modelfile, "_PART_BYTES", part)
    mp.setattr(modelfile.os, "sched_getaffinity", lambda pid: set(range(cpus)),
               raising=False)


def counted_forks(mp):
    """A list that collects the pid of every child forked from now on."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(modelfile.os, "fork", fork)
    return pids


def counted_runs(mp):
    """A list that collects (parts, whether it finished) for every
    _run_parts call from now on; a failed split is redone as one part."""
    runs, real = [], modelfile._run_parts

    def run(parts, *args):
        runs.append([parts, False])
        result = real(parts, *args)
        runs[-1][1] = True
        return result

    mp.setattr(modelfile, "_run_parts", run)
    return runs


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def read_outcome(path):
    try:
        header, data = read_table(path)
    except ParseError as exc:
        return str(exc)
    return header, data.shape, data.tobytes()


SPECIALS = [-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e308, 2.0 ** 53]


@st.composite
def split_cases(draw):
    cols = draw(st.integers(1, 4))
    # rows on, around and between 4096-row blocks and the part cuts they make
    rows = draw(st.sampled_from([0, 1, 2, 3, 4095, 4096, 4097, 8191, 8192, 8193,
                                 12287, 12289]) | st.integers(0, 200))
    cpus = draw(st.integers(2, 4))
    part = draw(st.integers(1, max(1, rows * cols // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
    for v in SPECIALS if rows else ():
        values[rng.integers(rows), rng.integers(cols)] = v
    blanks = draw(st.lists(st.tuples(st.floats(0.0, 1.0),
                                     st.sampled_from(["", "  ", "\r"])),
                           max_size=4))
    return values, cpus, part, blanks, draw(st.booleans()), draw(st.booleans())


@needs_fork
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=split_cases())
def test_split_tables_match_the_one_part_path(tmp_path, case):
    values, cpus, part, blanks, crlf, no_final_newline = case
    header = tuple(f"c{j}" for j in range(values.shape[1]))
    one, split = tmp_path / "one.csv", tmp_path / "split.csv"
    parts = min(cpus, values.size // part) if values.size >= 2 * part else 1
    with pytest.MonkeyPatch.context() as mp:
        split_into(mp, 1)
        write_table(one, header, values)
        split_into(mp, cpus, part)
        pids, runs = counted_forks(mp), counted_runs(mp)
        write_table(split, header, values)
    assert split.read_bytes() == one.read_bytes()
    assert len(pids) == parts - 1
    assert runs == [[parts, True]]
    assert_reaped(pids)

    lines = one.read_bytes().split(b"\n")[:-1]
    one.unlink()
    for at, blank in blanks:
        lines.insert(1 + int(at * (len(lines) - 1)), blank.encode())
    newline = b"\r\n" if crlf else b"\n"
    text = newline.join(lines) + (b"" if no_final_newline else newline)
    one.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        split_into(mp, 1)
        want = read_outcome(one)
        split_into(mp, cpus, part)
        pids, runs = counted_forks(mp), counted_runs(mp)
        got = read_outcome(one)
    assert got == want
    assert all(done for _, done in runs)
    assert len(pids) <= cpus - 1
    assert_reaped(pids)
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "split.csv"]
    for path in (one, split):
        path.unlink()       # rewriting a file in place can stall on writeback


BOM = b"\xef\xbb\xbf"
CELLS = [b"0", b"7", b"-1.5", b"2e-3", b"1e400", b"nan", b"-inf", b" 4 "]
JUNK = [*(b"%d" % d for d in range(10)), b".", b"-", b"e", b",", b" ", b"x",
        b"\xff", BOM, b"nan", b"inf"]
NEWLINES = [b"\n", b"\r\n", b"\r"]


@st.composite
def csv_files(draw):
    """A CSV of 1-3 columns, maybe after a byte order mark: rows of numbers
    with a few junk lines drawn from digits, ".-e,", spaces, "x", a byte
    that is never UTF-8, a byte order mark, "nan" and "inf"; with the parts
    and chunk bytes to read it in."""
    cols = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(CELLS), min_size=cols, max_size=cols).map(b",".join)
    lines = [b",".join(b"c%d" % j for j in range(cols)),
             *draw(st.lists(row, max_size=40))]
    for at, junk in draw(st.lists(st.tuples(st.floats(0.0, 1.0),
                                            st.lists(st.sampled_from(JUNK), max_size=6)),
                                  max_size=3)):
        lines.insert(1 + int(at * (len(lines) - 1)), b"".join(junk))
    text = draw(st.sampled_from([b"", BOM])) + lines[0]
    for line in lines[1:]:
        text += draw(st.sampled_from(NEWLINES)) + line
    text += draw(st.sampled_from([b"", *NEWLINES]))
    return text, cols, draw(st.integers(2, 4)), draw(st.integers(1, 64)), \
        draw(st.integers(1, 64))


def line_by_line_parse(text, cols):
    """The rows of a CSV's text parsed one line at a time, whitespace-only
    lines skipped."""
    lines = [line.decode("utf-8") for line in text.removeprefix(BOM).splitlines()[1:]]
    rows = [np.loadtxt([line], delimiter=",", comments=None, ndmin=1)
            for line in lines if line.strip()]
    return np.array(rows).reshape(-1, cols)


@needs_fork
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_files())
def test_read_table_returns_the_one_part_table_or_a_parse_error(tmp_path, case):
    """Whatever the bytes, read_table gives the table a line-by-line parse
    of the whole file gives, or a ParseError naming a line (read_outcome
    lets any other error through), in one part as split into parts."""
    text, cols, cpus, part, chunk = case
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_CHUNK_BYTES", chunk)
        split_into(mp, 1)
        want = read_outcome(path)
        split_into(mp, cpus, part)
        pids = counted_forks(mp)
        got = read_outcome(path)
    path.unlink()
    assert got == want
    assert_reaped(pids)
    if isinstance(want, str):
        assert re.fullmatch(r".*t\.csv(:\d+)?: .+", want, re.S)
    else:
        assert want[0] == tuple(f"c{j}" for j in range(cols))
        assert want[2] == line_by_line_parse(text, cols).tobytes()


def whole_file_parse(path):
    """The rows of a CSV as one np.loadtxt call over the whole text reads
    them, the former one-part path."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("case", ["lf", "crlf", "blank", "lone cr", "single row"])
def test_read_table_gives_the_whole_file_parse_channel_major(tmp_path, monkeypatch,
                                                            cpus, case):
    """The bits of one parse of the whole file, across parts and chunks, in
    a table whose transpose is C-order memory: each channel is contiguous."""
    rows = 1 if case == "single row" else 9000
    values = np.random.default_rng(8).standard_normal((rows, 3)) * 1e3
    path = tmp_path / "t.csv"
    write_table(path, ("x", "y", "z"), values)
    lines = path.read_bytes().split(b"\n")[:-1]
    if case == "blank":
        for at in (1, 4000, 6001, len(lines)):
            lines.insert(at, b"")
    newline = {"crlf": b"\r\n", "lone cr": b"\r"}.get(case, b"\n")
    path.write_bytes(newline.join(lines) + newline)
    monkeypatch.setattr(modelfile, "_CHUNK_BYTES", 1 << 14)
    split_into(monkeypatch, cpus, 1 << 15)
    header, data = read_table(path)
    want = whole_file_parse(path)
    assert header == ("x", "y", "z")
    assert data.shape == want.shape == values.shape
    assert data.tobytes() == want.tobytes() == values.tobytes()
    assert data.strides[0] == data.itemsize
    assert data.T.flags.c_contiguous


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_read_table_scans_the_file_once(tmp_path, monkeypatch, newline):
    """A one-part read preads the file's bytes once to cut them into chunks
    at line breaks and once to parse them, and at most 1 kB for a short
    header."""
    values = np.random.default_rng(10).standard_normal((9000, 3)) * 1e3
    path = tmp_path / "t.csv"
    write_table(path, ("x", "y", "z"), values)
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    monkeypatch.setattr(modelfile, "_CHUNK_BYTES", 1 << 14)
    split_into(monkeypatch, 1)
    sizes, real = [], os.pread

    def pread(fd, n, offset):
        sizes.append(len(raw := real(fd, n, offset)))
        return raw

    monkeypatch.setattr(modelfile.os, "pread", pread)
    assert read_table(path)[1].tobytes() == values.tobytes()
    assert sum(sizes) <= 2 * path.stat().st_size + (1 << 10)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("width", [6, 1021, 1022, 1023, 1024, 1025, 5000])
def test_a_header_is_read_in_preads_that_grow_until_it_ends(tmp_path, monkeypatch,
                                                            newline, width):
    """The header line is read from a first pread of 1 kB, then of twice
    as many bytes until one holds its break; a "\r" at the end of a read
    may start a "\r\n", so that read does not end it."""
    names = [f"c{j}" for j in range(width // 4)]
    names[-1] += "x" * (width - len(",".join(names)) - 1)
    text = ",".join(names)
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode() + newline + b",".join([b"1"] * len(names)) + newline)
    offsets, real = [], os.pread

    def pread(fd, n, offset):
        offsets.append((offset, len(raw := real(fd, n, offset))))
        return raw

    monkeypatch.setattr(modelfile.os, "pread", pread)
    header, data = read_table(path)
    assert header == tuple(names) and data.tolist() == [[1.0] * len(names)]
    # the first pread at 0 is the scan's; the others read the header
    head = [n for offset, n in offsets if offset == 0][1:]
    assert head[0] == min(1024, path.stat().st_size)
    assert sum(head) <= 1024 + 4 * (len(text) + len(newline))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_read_table_reads_a_pipe(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("a,b\n1,2\n\n3,4\n",))
    writer.start()
    try:
        header, data = read_table(fifo)
    finally:
        writer.join(60.0)
    assert header == ("a", "b")
    assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert data.T.flags.c_contiguous


def test_read_table_names_the_bad_line_of_a_pipe(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("a,b\n1,2\n3,x\n",))
    writer.start()
    try:
        with pytest.raises(ParseError, match=":3: could not convert string to float"):
            read_table(fifo)
    finally:
        writer.join(60.0)


@pytest.mark.parametrize("case", ["lf", "spaces", "lone cr"])
def test_read_table_peak_memory_near_its_table(tmp_path, monkeypatch, case):
    # one part: a forked part's shared mapping is not traced
    values = np.random.default_rng(9).standard_normal((100_000, 8))
    path = tmp_path / "t.csv"
    write_table(path, tuple(f"c{j}" for j in range(8)), values)
    lines = path.read_bytes().split(b"\n")
    if case == "spaces":    # np.loadtxt rejects its chunk, parsed line by line
        lines.insert(50_001, b"  ")
    path.write_bytes((b"\r" if case == "lone cr" else b"\n").join(lines))
    split_into(monkeypatch, 1)
    assert traced_peak(lambda: read_table(path)) < 1.2 * values.nbytes


@needs_fork
def test_a_bad_value_in_a_later_part_names_its_line(tmp_path, monkeypatch):
    path = tmp_path / "late.csv"
    write_table(path, ("a", "b", "c", "d"), np.arange(40000.0).reshape(-1, 4))
    lines = path.read_text().splitlines()
    lines[9000] = "1,2,oops,4"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(modelfile, "_CHUNK_BYTES", 1 << 12)    # chunks in every part
    split_into(monkeypatch, 1)
    with pytest.raises(ParseError) as one:
        read_table(path)
    split_into(monkeypatch, 4, 1000)
    pids = counted_forks(monkeypatch)
    with pytest.raises(ParseError) as split:
        read_table(path)
    assert str(split.value) == str(one.value)
    assert "late.csv:9001: " in str(one.value) and "'oops'" in str(one.value)
    assert len(pids) == 3
    assert_reaped(pids)


def _fail_in_children(mp, name, error):
    """modelfile's name raises error in forked children only."""
    parent = os.getpid()
    real = getattr(modelfile, name, None) or getattr(builtins, name)

    def flaky(*args, **kwargs):
        if os.getpid() != parent:
            raise error
        return real(*args, **kwargs)

    mp.setattr(modelfile, name, flaky, raising=False)


def _fail_once_in_parent(mp, name, error):
    """modelfile's name raises error on its first call in this process."""
    parent, real, calls = os.getpid(), getattr(modelfile, name), []

    def flaky(*args, **kwargs):
        if os.getpid() == parent and not calls:
            calls.append(1)
            raise error
        return real(*args, **kwargs)

    mp.setattr(modelfile, name, flaky)


def _fork_twice(mp):
    """os.fork works twice, then fails as it does when out of processes."""
    forks = [os.fork, os.fork]

    def fork():
        if forks:
            return forks.pop()()
        raise BlockingIOError("fork: resource temporarily unavailable")

    mp.setattr(modelfile.os, "fork", fork)


@needs_fork
@pytest.mark.parametrize("failure", ["child", "fork", "parent"])
def test_a_failed_part_redoes_the_table_as_one_part(tmp_path, monkeypatch, failure):
    values = np.random.default_rng(3).standard_normal((9000, 3))
    header = ("x", "y", "z")
    want, path = tmp_path / "want.csv", tmp_path / "t.csv"
    write_table(want, header, values)
    fds = len(os.listdir("/proc/self/fd"))
    split_into(monkeypatch, 4, 1000)
    pids, runs = counted_forks(monkeypatch), counted_runs(monkeypatch)
    # a ValueError from np.loadtxt is a bad line, parsed again line by line
    # in its own chunk; a part fails on any other error
    if failure == "child":
        _fail_in_children(monkeypatch, "open", OSError("no room"))
        _fail_in_children(monkeypatch, "_load_rows", OSError("bad"))
    elif failure == "fork":
        _fork_twice(monkeypatch)
    else:
        # after the parts have run when writing, while they run when reading
        _fail_once_in_parent(monkeypatch, "_append", OSError("disk full"))
        _fail_once_in_parent(monkeypatch, "_load_rows", OSError("bad"))
    write_table(path, header, values)
    header_back, data = read_table(path)
    assert path.read_bytes() == want.read_bytes()
    assert header_back == header and data.tobytes() == values.tobytes()
    # a write appends its part files once _run_parts has returned
    assert runs == [[4, failure == "parent"], [1, True], [4, False], [1, True]]
    assert len(pids) == {"child": 6, "fork": 2, "parent": 6}[failure]
    assert_reaped(pids)
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "want.csv"]
    assert len(os.listdir("/proc/self/fd")) == fds


@needs_fork
@pytest.mark.parametrize("failure", ["child", "fork", "parent"])
def test_a_failed_part_makes_the_rows_again_as_one_part(tmp_path, monkeypatch, failure):
    """A table made in blocks, written or reduced in parts, is made again
    from its first row, as one part, when any part fails."""
    from tailfolio import events

    model = CopulaModel(marginals=(ExponentialMarginal(m=0.0, chi=1.0),) * 3,
                        correlation=CorrelationMatrix.from_matrix(np.eye(3)),
                        channels=("a", "b", "c"))
    monkeypatch.setattr(events, "_BLOCK_VALUES", 3000)
    dx = events.sample_events(model, 9000, 5)
    want, path = tmp_path / "want.csv", tmp_path / "t.csv"
    write_series_csv(want, dx, model.channels, index_name="event_index")
    fds = len(os.listdir("/proc/self/fd"))
    split_into(monkeypatch, 4, 1000)
    pids, runs = counted_forks(monkeypatch), counted_runs(monkeypatch)
    parent, raised = os.getpid(), []

    def reduce(rows):
        if failure == "child" and os.getpid() != parent:
            raise OSError("no room")
        if failure == "parent" and not raised:     # in the parent's first block
            raised.append(1)
            raise OSError("no room")
        return rows[:, 0] - rows[:, 2]

    if failure == "child":
        _fail_in_children(monkeypatch, "open", OSError("no room"))
    elif failure == "fork":
        _fork_twice(monkeypatch)
    else:
        _fail_once_in_parent(monkeypatch, "_append", OSError("disk full"))
    batch = events.EventBatch(model, 9000, 5)
    write_series_csv(path, batch, model.channels, index_name="event_index")
    got = modelfile.reduce_rows(batch, reduce)
    assert path.read_bytes() == want.read_bytes()
    assert got.tobytes() == (dx[:, 0] - dx[:, 2]).tobytes()
    # a write appends its part files once _run_parts has returned
    assert runs == [[4, failure == "parent"], [1, True], [4, False], [1, True]]
    assert len(pids) == {"child": 6, "fork": 2, "parent": 6}[failure]
    assert_reaped(pids)
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "want.csv"]
    assert len(os.listdir("/proc/self/fd")) == fds


def _split_batch(mp):
    """An events.EventBatch of 9 blocks, and the one-part bytes of its
    events CSV, its table read back and a reduction of it; tables split into
    4 parts from now on, with chunks in every part when read."""
    from tailfolio import events

    model = CopulaModel(marginals=(ExponentialMarginal(m=0.0, chi=1.0),) * 3,
                        correlation=CorrelationMatrix.from_matrix(np.eye(3)),
                        channels=("a", "b", "c"))
    mp.setattr(events, "_BLOCK_VALUES", 3000)
    dx = events.sample_events(model, 9000, 5)
    text = io.StringIO()
    text.write("event_index,a,b,c\n")
    for i, row in enumerate(dx):
        text.write(",".join(fmt(v) for v in (i, *row)) + "\n")
    mp.setattr(modelfile, "_CHUNK_BYTES", 1 << 14)
    split_into(mp, 4, 1000)
    return (events.EventBatch(model, 9000, 5), text.getvalue().encode(), dx,
            dx[:, 0] - dx[:, 2])


def _write_read_reduce(batch, path):
    write_series_csv(path, batch, ("a", "b", "c"), index_name="event_index")
    return (path.read_bytes(), read_table(path)[1],
            modelfile.reduce_rows(batch, lambda rows: rows[:, 0] - rows[:, 2]))


@needs_fork
def test_a_split_runs_once_with_sigchld_ignored(tmp_path, monkeypatch):
    """Under SIGCHLD ignored a child is reaped as it exits, and waitpid
    finds none to wait for; no part's outcome is read from its exit status,
    so a split write, read and reduction each still run once, in parts."""
    batch, *want = _split_batch(monkeypatch)
    pids, runs = counted_forks(monkeypatch), counted_runs(monkeypatch)
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        text, table, reduced = _write_read_reduce(batch, tmp_path / "t.csv")
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert text == want[0]
    assert table.tobytes() == want[1].tobytes()
    assert reduced.tobytes() == want[2].tobytes()
    assert runs == [[4, True]] * 3 and len(pids) == 9
    assert_reaped(pids)


@needs_fork
def test_only_a_split_write_makes_part_files(tmp_path, monkeypatch):
    """A written part formats its text into an in-memory file; a read or
    reduced part fills shared memory and needs none."""
    batch, *want = _split_batch(monkeypatch)
    runs = counted_runs(monkeypatch)
    real, calls = os.memfd_create, []

    def memfd_create(*args):
        calls.append(len(runs))
        return real(*args)

    monkeypatch.setattr(modelfile.os, "memfd_create", memfd_create)
    text, table, reduced = _write_read_reduce(batch, tmp_path / "t.csv")
    assert text == want[0]
    assert table.tobytes() == want[1].tobytes()
    assert reduced.tobytes() == want[2].tobytes()
    assert runs == [[4, True]] * 3
    assert calls == [0, 0, 0]   # all before the write's _run_parts


@needs_fork
@pytest.mark.parametrize("path_of", [lambda d: d, lambda d: d / "missing" / "t.csv"],
                         ids=["a-directory", "under-a-missing-directory"])
def test_a_table_path_that_cannot_be_made_fails_before_its_parts(tmp_path, monkeypatch,
                                                                path_of):
    """A path that cannot be opened for writing is an input fault: a
    ParseError naming it, before any part runs and without the redo as one
    part."""
    split_into(monkeypatch, 4)
    runs, pids = counted_runs(monkeypatch), counted_forks(monkeypatch)
    (tmp_path / "t.csv").mkdir()
    path = path_of(tmp_path / "t.csv")
    with pytest.raises(ParseError, match=f"^cannot write {re.escape(str(path))}: "):
        write_table(path, ("x", "y"), np.ones((400, 2)))
    assert runs == [] and pids == []


def test_a_table_is_one_part_without_memfd_create(tmp_path, monkeypatch):
    split_into(monkeypatch, 4)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    assert modelfile._part_count(10 ** 9, 1) == 1
    pids = counted_forks(monkeypatch) if hasattr(os, "fork") else []
    path = tmp_path / "t.csv"
    write_table(path, ("x", "y"), np.arange(20000.0).reshape(-1, 2))
    assert read_table(path)[1].tobytes() == np.arange(20000.0).reshape(-1, 2).tobytes()
    assert pids == []


def test_a_table_is_one_part_while_another_thread_runs(tmp_path, monkeypatch):
    """fork copies only the calling thread, so no part is forked while
    another thread might hold a lock; the table keeps its bytes and bits."""
    header = ("a", "b", "c", "d")
    values = np.random.default_rng(4).standard_normal((modelfile._PART_VALUES // 2, 4))
    one, path = tmp_path / "one.csv", tmp_path / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        split_into(mp, 1)
        write_table(one, header, values)
    pids = counted_forks(monkeypatch) if hasattr(os, "fork") else []
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60.0,))
    other.start()
    try:
        write_table(path, header, values)
        header_back, data = read_table(path)
    finally:
        done.set()
        other.join(60.0)
    assert not other.is_alive()
    assert pids == []
    assert path.read_bytes() == one.read_bytes()
    assert header_back == header and data.tobytes() == values.tobytes()
    if modelfile.fork_cpus("memfd_create") > 1:     # split again once it joined
        write_table(path, header, values)
        assert read_table(path)[1].tobytes() == values.tobytes()
        assert len(pids) >= 2
        assert_reaped(pids)


@needs_fork
def test_a_failed_second_part_file_leaves_one_part(tmp_path, monkeypatch):
    values = np.random.default_rng(4).standard_normal((9000, 3))
    header = ("x", "y", "z")
    want, path = tmp_path / "want.csv", tmp_path / "t.csv"
    write_table(want, header, values)
    fds = len(os.listdir("/proc/self/fd"))
    split_into(monkeypatch, 4, 1000)
    pids = counted_forks(monkeypatch)
    real, calls = os.memfd_create, []

    def memfd_create(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("out of memory")
        return real(*args)

    monkeypatch.setattr(modelfile.os, "memfd_create", memfd_create)
    write_table(path, header, values)
    assert path.read_bytes() == want.read_bytes()
    # the part files are all made before any fork; a read makes none
    assert len(calls) == 2 and pids == []
    calls.clear()
    header_back, data = read_table(path)
    assert header_back == header and data.tobytes() == values.tobytes()
    assert len(calls) == 0 and len(pids) == 3
    assert_reaped(pids)
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "want.csv"]
    assert len(os.listdir("/proc/self/fd")) == fds


@needs_fork
def test_a_part_of_partial_rows_is_refused(tmp_path, monkeypatch):
    values = np.random.default_rng(5).standard_normal((9000, 3))
    path = tmp_path / "t.csv"
    write_table(path, ("x", "y", "z"), values)
    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(modelfile, "_CHUNK_BYTES", 1 << 14)    # chunks in every part
    split_into(monkeypatch, 4, 1000)
    pids, runs = counted_forks(monkeypatch), counted_runs(monkeypatch)
    parent, real = os.getpid(), modelfile._load_rows
    # each of the 3 children parses a chunk as one row of 2 values, no whole
    # 3-value row, which does not fit its columns: the split fails, and the
    # table is read again as one part
    monkeypatch.setattr(modelfile, "_load_rows", lambda stream, width: (
        real(stream, width) if os.getpid() == parent else np.zeros((1, 2))))
    _, data = read_table(path)
    assert data.tobytes() == values.tobytes()
    assert runs == [[4, False], [1, True]] and len(pids) == 3
    assert_reaped(pids)
    assert len(os.listdir("/proc/self/fd")) == fds


@needs_fork
def test_sample_prints_its_stdout_once(tmp_path):
    # stdout to a pipe is block-buffered: a child that flushed the parent's
    # buffer on exit would print "before" twice
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(marginals=(ExponentialMarginal(m=0.0, chi=1.0),) * 2,
                                  correlation=CorrelationMatrix.from_matrix(np.eye(2)),
                                  channels=("a", "b")))
    script = (
        "import os, sys\n"
        "from tailfolio import cli, events, modelfile\n"
        "modelfile._PART_VALUES = modelfile._PART_BYTES = 1000\n"
        "events._BLOCK_VALUES = 1000\n"     # a part is a run of whole row blocks
        "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "forks, real = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or real()\n"
        "fds = len(os.listdir('/proc/self/fd'))\n"
        "print('before')\n"
        f"code = cli.main(['sample', {str(model)!r}, '--n', '5000', '--out', {str(tmp_path / 'o')!r}])\n"
        "print('forks', len(forks), 'exit', code)\n"
        f"code = cli.main(['fit-marginals', {str(tmp_path / 'o' / 'events.csv')!r}, "
        f"'--out', {str(tmp_path / 'f')!r}])\n"
        "print('forks', len(forks), 'exit', code, 'fds', len(os.listdir('/proc/self/fd')) - fds)\n")
    # -X dev with ResourceWarning as an error: a part file left open fails
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert proc.stdout.count("before") == 1
    assert proc.stdout.count("sampled 5000 events") == 1
    # the forked count includes children that exited before printing
    assert lines[3] == "forks 3 exit 0"
    assert proc.stdout.count("fitted 2 channel(s) from 5000 rows") == 1
    assert lines[-1] == "forks 6 exit 0 fds 0"
    assert os.listdir(tmp_path / "o") == ["events.csv"]


def test_series_csv_index_column(tmp_path):
    path = tmp_path / "series.csv"
    values = np.array([[1.5, -2.5], [0.25, 0.75], [3.0, 4.0]])
    write_series_csv(path, values, ("Fz", "Cz"))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,Fz,Cz"
    assert lines[1].startswith("0,")
    names, data = read_table(path)
    assert names == ("Fz", "Cz")
    assert np.array_equal(data, values)


@needs_fork
def test_series_csv_matches_the_whole_table_index_form(tmp_path, monkeypatch):
    """The index column, made per formatting block, gives the bytes of the
    former whole-table column_stack, across blocks and part cuts."""
    block = modelfile._BLOCK_VALUES // 5
    values = np.random.default_rng(6).standard_normal((3 * block + 11, 4))
    header = ("event_index", "a", "b", "c", "d")
    want, path = tmp_path / "want.csv", tmp_path / "events.csv"
    with pytest.MonkeyPatch.context() as mp:
        split_into(mp, 1)
        write_table(want, header, np.column_stack([np.arange(len(values)), values]))
    split_into(monkeypatch, 2, 1000)
    pids = counted_forks(monkeypatch)
    # the part cut at row 1.5 blocks falls inside a formatting block
    write_series_csv(path, values, header[1:], index_name="event_index")
    assert path.read_bytes() == want.read_bytes()
    assert len(pids) == 1
    assert_reaped(pids)


def test_series_csv_peak_memory_is_a_block(tmp_path):
    values = np.random.default_rng(7).standard_normal((200_000, 8))
    peak = traced_peak(lambda: write_series_csv(tmp_path / "e.csv", values,
                                                [f"c{j}" for j in range(8)]))
    assert peak < 0.3 * values.nbytes


@pytest.mark.parametrize("values", [np.zeros(3), np.zeros((3, 1)), np.zeros((3, 3))])
def test_series_csv_refuses_values_that_do_not_fit_its_columns(tmp_path, values):
    path = tmp_path / "series.csv"
    with pytest.raises(ParseError, match="row width does not match header") as info:
        write_series_csv(path, values, ("a", "b"))
    assert exit_code_for(info.value) == 2
    assert not path.exists()


def test_series_csv_plain_header_kept(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n1.0,2.0\n")
    names, data = read_table(path)
    assert names == ("x", "y")
    assert data.shape == (1, 2)


def test_bins_csv(tmp_path):
    dist = fit_bins(np.random.default_rng(1).laplace(0, 1, 500))
    path = tmp_path / "bins.csv"
    write_bins_csv(path, dist)
    header, data = read_table(path)
    assert header == ("edge_low", "edge_high", "count")
    assert data.shape == (201, 3)
    assert int(data[:, 2].sum()) == 500
    assert np.array_equal(data[:, 0], dist.bin_edges[:-1])
    assert np.array_equal(data[:, 1], dist.bin_edges[1:])


def test_json_round_trip_numpy(tmp_path):
    path = tmp_path / "x.json"
    save_json(path, {"a": np.float64(0.1), "b": np.int64(3),
                     "c": np.array([1.5, 2.5]), "d": (1, 2)})
    back = load_json(path)
    assert back == {"a": 0.1, "b": 3, "c": [1.5, 2.5], "d": [1, 2]}
    assert path.read_text().endswith("\n")


def test_save_json_writes_the_bytes_of_the_whole_text(tmp_path):
    payload = {"kind": "copula_model", "f": np.float64(0.1), "i": np.int64(-3),
               "b": np.bool_(True), "m": np.random.default_rng(2).normal(size=(3, 4)),
               "nested": [{"v": np.arange(3), "t": (1.5, None)}], "s": "x\u00e9"}
    path = tmp_path / "x.json"
    save_json(path, payload)
    text = json.dumps(payload, indent=2, default=modelfile._numpy_to_json)
    assert path.read_bytes() == (text + "\n").encode("utf-8")


def test_load_json_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "a": 1,\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_json(bad)
    with pytest.raises(ParseError, match="cannot read"):
        load_json(tmp_path / "gone.json")


def test_json_files_load_after_a_byte_order_mark(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"marginal_window": 3, "anneal": {"seed": 5}}))
    model, net = tmp_path / "model.json", tmp_path / "net.json"
    save_model(model, make_model())
    save_net(net, two_site_net(weight=0.07, delay=2))
    plain = read_config(config), load_model(model), load_net(net)
    for path in (config, model, net):
        path.write_bytes(BOM + path.read_bytes())
    marked = read_config(config), load_model(model), load_net(net)
    assert marked[0] == plain[0] and marked[2] == plain[2]
    assert marked[1].channels == plain[1].channels
    assert marked[1].marginals == plain[1].marginals
    assert np.array_equal(marked[1].correlation.matrix, plain[1].correlation.matrix)


def make_model():
    return CopulaModel(
        marginals=(ExponentialMarginal(m=0.1, chi=0.5),
                   ExponentialMarginal(m=-0.2, chi=1.5,
                                       chi_minus=1.0, chi_plus=2.0)),
        correlation=CorrelationMatrix.from_matrix([[1.0, 0.25], [0.25, 1.0]]),
        channels=("spx", "bond"),
    )


def test_model_round_trip(tmp_path):
    path = tmp_path / "model.json"
    model = make_model()
    save_model(path, model)
    back = load_model(path)
    assert back.channels == model.channels
    assert back.marginals == model.marginals
    assert np.array_equal(back.correlation.matrix, model.correlation.matrix)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "copula_model"
    assert payload["marginals"][0]["channel"] == "spx"
    assert payload["marginals"][1]["chi_minus"] == 1.0


def test_load_model_errors(tmp_path):
    path = tmp_path / "model.json"
    save_json(path, {"kind": "something_else"})
    with pytest.raises(ParseError, match="copula_model"):
        load_model(path)
    save_json(path, {"kind": "copula_model", "channels": ["a"]})
    with pytest.raises(ParseError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize("names, first", [(["b", "a"], "marginal 0 names channel 'b', "
                                                    "expected 'a'"),
                                          (["a", "zz"], "marginal 1 names channel 'zz', "
                                                        "expected 'b'")])
def test_load_model_requires_marginals_in_channel_order(tmp_path, names, first):
    path = tmp_path / "model.json"
    save_json(path, {"kind": "copula_model", "channels": ["a", "b"],
                     "marginals": [{"channel": name, "m": 0.0, "chi": chi}
                                   for name, chi in zip(names, (2.0, 1.0))],
                     "correlation": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ParseError, match=first) as info:
        load_model(path)
    assert exit_code_for(info.value) == 2


def test_net_round_trip(tmp_path):
    path = tmp_path / "net.json"
    net = two_site_net(weight=0.07, delay=2)
    save_net(path, net)
    back = load_net(path)
    assert back == net
    payload = json.loads(path.read_text())
    assert payload["kind"] == "region_net"
    assert payload["couplings"][0]["delay"] == 2


def test_json_key_order_pinned(tmp_path):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net(weight=0.07, delay=2))
    net = json.loads(net_path.read_text())
    assert list(net) == ["kind", "dt_ms", "denominator_approx", "columns",
                         "sites", "couplings"]
    assert list(net["columns"]) == [
        "n_e", "n_i", "tau_ms", "threshold", "gain", "background", "pol_mean",
        "pol_var", "lr_count", "lr_gain", "lr_background"]
    assert list(net["sites"][0]) == ["name", "offset", "gain_e", "gain_i",
                                     "trough_slope"]
    assert list(net["couplings"][0]) == ["source", "target", "weight", "delay"]

    model_path = tmp_path / "model.json"
    save_model(model_path, make_model())
    model = json.loads(model_path.read_text())
    assert list(model) == ["kind", "channels", "marginals", "correlation"]
    assert list(model["marginals"][0]) == ["channel", "m", "chi", "chi_minus",
                                           "chi_plus"]


def edited_net_file(tmp_path, edit):
    """A saved two-site net with edit applied to its JSON payload."""
    path = tmp_path / "net.json"
    save_net(path, two_site_net(weight=0.07, delay=2))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("tau", [0.0, -5.0, float("inf"), float("nan")])
def test_columns_reject_nonpositive_or_nonfinite_tau(tmp_path, tau):
    with pytest.raises(OutOfDomain, match="tau_ms"):
        ColumnParams(tau_ms=tau)
    path = edited_net_file(tmp_path, lambda d: d["columns"].update(tau_ms=tau))
    with pytest.raises(OutOfDomain, match="tau_ms") as info:
        load_net(path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("key", ["n_e", "n_i", "lr_count", "dt_ms"])
@pytest.mark.parametrize("value", ["1e400", "NaN"])
def test_net_rejects_a_nonfinite_column_count_or_step(tmp_path, key, value):
    with pytest.raises(OutOfDomain, match=f"'{key}' must be finite"):
        if key == "dt_ms":
            replace(two_site_net(), dt_ms=float(value))
        else:
            ColumnParams(**{key: float(value)})
    path = edited_net_file(tmp_path, lambda d: (d if key == "dt_ms" else d["columns"])
                           .update({key: "@"}))
    path.write_text(path.read_text().replace('"@"', value))   # JSON loads it as inf
    with pytest.raises(OutOfDomain, match=f"'{key}' must be finite") as info:
        load_net(path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("delay", [1.7, -1, "2", float("inf")])
def test_load_net_rejects_a_delay_it_would_truncate(tmp_path, delay):
    path = edited_net_file(tmp_path, lambda d: d["couplings"][0].update(delay=delay))
    with pytest.raises(ParseError, match="malformed net block"):
        load_net(path)
    path = edited_net_file(tmp_path, lambda d: d["couplings"][0].update(delay=2.0))
    assert load_net(path).couplings[0].delay == 2


@pytest.mark.parametrize("approx", ["false", 0.5])
def test_load_net_reads_denominator_approx_as_a_json_boolean(tmp_path, approx):
    path = edited_net_file(tmp_path, lambda d: d.update(denominator_approx=approx))
    with pytest.raises(ParseError, match="denominator_approx") as info:
        load_net(path)
    assert exit_code_for(info.value) == 2
    path = edited_net_file(tmp_path, lambda d: d.update(denominator_approx=False))
    assert load_net(path).denominator_approx is False
    path = edited_net_file(tmp_path, lambda d: d.pop("denominator_approx"))
    assert load_net(path).denominator_approx is True


def test_load_net_kind_guard(tmp_path):
    path = tmp_path / "net.json"
    save_json(path, {"kind": "copula_model"})
    with pytest.raises(ParseError, match="region_net"):
        load_net(path)


def _anneal_block(tmp_path, block) -> AnnealConfig:
    """A config's anneal block as the CLI reads it, through read_config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"anneal": block}))
    return AnnealConfig(**read_config(path)["anneal"])


def test_anneal_block_reads_to_an_anneal_config(tmp_path):
    cfg = _anneal_block(tmp_path, {"t0": 2.0, "max_trials": 500.0,
                                   "seed": 3.0, "x0": [0.5, 0.25]})
    assert cfg == AnnealConfig(t0=2.0, max_trials=500, seed=3, x0=(0.5, 0.25))
    assert isinstance(cfg.max_trials, int)
    with pytest.raises(ParseError, match="unknown annealer option"):
        _anneal_block(tmp_path, {"temperature": 1.0})
    for bad in ({"max_trials": 2.9}, {"regen_attempts": "5"},
                {"reanneal_interval": float("nan")}, {"seed": float("inf")}):
        with pytest.raises(ParseError, match="must be an integer"):
            _anneal_block(tmp_path, bad)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ParseError, match="u64"):
            _anneal_block(tmp_path, {"seed": seed})
    assert _anneal_block(tmp_path, {"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
    for key in ("t0", "c", "accept_t0", "accept_c"):
        for bad in ("1e400", "-1e400", "NaN", "null", '"hot"'):
            if key == "accept_t0" and bad == "null":
                continue        # null keeps the default acceptance temperature
            block = json.loads(f'{{"{key}": {bad}}}')
            with pytest.raises(ParseError, match=f"'{key}' must be a finite number"):
                _anneal_block(tmp_path, block)
    assert _anneal_block(tmp_path, {"accept_t0": None}).accept_t0 is None


def test_ensure_out_dir(tmp_path):
    target = tmp_path / "a" / "b"
    got = modelfile.ensure_out_dir(target)
    assert got == str(target)
    assert target.is_dir()
    # second call is a no-op
    assert modelfile.ensure_out_dir(target) == str(target)
