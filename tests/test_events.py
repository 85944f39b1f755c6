import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfolio import events
from tailfolio.copula import CopulaModel, CorrelationMatrix, from_gaussian
from tailfolio.errors import OutOfDomain
from tailfolio.events import sample_events
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import read_table, write_series_csv
from tailfolio.rng import NormalStream

from helpers import SRC, traced_peak


def make_model():
    return CopulaModel(
        marginals=(
            ExponentialMarginal(m=0.1, chi=0.5),
            ExponentialMarginal(m=-0.2, chi=1.5),
            ExponentialMarginal(m=0.0, chi=0.05),
        ),
        correlation=CorrelationMatrix.from_matrix([
            [1.0, 0.5, -0.3],
            [0.5, 1.0, 0.0],
            [-0.3, 0.0, 1.0],
        ]),
        channels=("alpha", "beta", "gamma"),
    )


def whitened(model, n, seed):
    """The batch's whitened draws dz, rebuilt from the seed."""
    return NormalStream(seed).draw(n * model.dim).reshape(n, model.dim)


def test_batch_deterministic():
    model = make_model()
    a = sample_events(model, 500, seed=7)
    b = sample_events(model, 500, seed=7)
    assert isinstance(a, np.ndarray)
    assert np.array_equal(a, b)
    c = sample_events(model, 500, seed=8)
    assert not np.array_equal(a, c)


@st.composite
def copula_models(draw):
    dim = draw(st.integers(1, 8))
    marginals = []
    for _ in range(dim):
        m = draw(st.floats(-2.0, 2.0))
        chi = draw(st.floats(0.05, 3.0))
        if draw(st.booleans()):
            sides = (draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0)))
            marginals.append(ExponentialMarginal(m, chi, *sides))
        else:
            marginals.append(ExponentialMarginal(m, chi))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(
        size=(dim, dim + 1))
    cov = g @ g.T + 0.1 * np.eye(dim)
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CopulaModel(marginals=tuple(marginals),
                       correlation=CorrelationMatrix.from_matrix(corr),
                       channels=tuple(f"c{j}" for j in range(dim)))


@settings(max_examples=100, deadline=None)
@given(model=copula_models(), n=st.integers(0, 3000),
       seed=st.integers(0, 2 ** 63 - 1))
def test_batch_is_the_seed_normals_colored_and_mapped_per_column(model, n, seed):
    dx = sample_events(model, n, seed)
    assert dx.shape == (n, model.dim)
    # one stream, row by row: dz is the seed's first n*N normals
    dy = whitened(model, n, seed) @ model.correlation.cholesky.T
    for j, marg in enumerate(model.marginals):
        assert np.array_equal(dx[:, j], from_gaussian(marg, dy[:, j]))


def test_maps_run_in_the_calling_thread(monkeypatch):
    """No thread is started: modelfile and anneal fork only while no other
    thread runs, so a sampling thread would turn off forked CSV parts and
    the EEG cost worker."""
    model = _model_of_dim(3)
    caller, before = threading.current_thread(), threading.active_count()
    seen = []

    def recording(marginal, dy):
        seen.append((threading.current_thread() is caller,
                     threading.active_count()))
        return from_gaussian(marginal, dy)

    monkeypatch.setattr(events, "from_gaussian", recording)
    n = 3 * (events._BLOCK_VALUES // 3) + 5     # four row blocks
    sample_events(model, n, 4)
    for _ in events.EventBatch(model, n, 4).blocks():
        pass
    assert len(seen) == 2 * 3 * len(events.EventBatch(model, n, 4).cuts[1:])
    assert set(seen) == {(True, before)}


def _model_of_dim(dim, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim + 1))
    cov = g @ g.T + 0.1 * np.eye(dim)
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CopulaModel(
        marginals=tuple(ExponentialMarginal(rng.uniform(-1, 1), rng.uniform(0.1, 2))
                        for _ in range(dim)),
        correlation=CorrelationMatrix.from_matrix(corr))


@pytest.mark.parametrize("dim", [1, 3, 8, 64])
@pytest.mark.parametrize("extra", [-1, 0, 1, "3 blocks + 7"])
def test_row_blocks_match_the_one_call_reference_bitwise(dim, extra):
    """Around and across the row-block cuts, the blocked draw, coloring and
    maps give the bits of one draw, one product and one map per channel."""
    block = events._BLOCK_VALUES // dim
    n = 3 * block + 7 if extra == "3 blocks + 7" else block + extra
    model = _model_of_dim(dim)
    want = whitened(model, n, 17) @ model.correlation.cholesky.T
    for j, marg in enumerate(model.marginals):
        want[:, j] = from_gaussian(marg, want[:, j])
    assert sample_events(model, n, 17).tobytes() == want.tobytes()


def test_sample_peak_memory_near_its_table():
    # one (n, N) table plus a row block of draws and map temporaries
    model = _model_of_dim(8)
    n = 200_000
    assert traced_peak(lambda: sample_events(model, n, 3)) < 1.35 * 8 * 8 * n


def test_coloring_and_marginal_map_exact():
    from tailfolio.copula import from_gaussian

    model = make_model()
    dx = sample_events(model, 200, seed=5)
    dy = whitened(model, 200, 5) @ model.correlation.cholesky.T
    for j, marg in enumerate(model.marginals):
        assert np.array_equal(dx[:, j], from_gaussian(marg, dy[:, j]))


def test_sample_statistics():
    model = make_model()
    dx = sample_events(model, 100000, seed=9)
    dy = whitened(model, 100000, 9) @ model.correlation.cholesky.T
    corr = np.corrcoef(dy.T)
    target = model.correlation.matrix
    assert np.max(np.abs(corr - target)) < 0.02
    for j, marg in enumerate(model.marginals):
        assert float(np.mean(dx[:, j])) == pytest.approx(marg.m, abs=0.02 * marg.chi * 4)


def test_zero_events():
    model = make_model()
    dx = sample_events(model, 0, seed=1)
    assert dx.shape == (0, 3)


def test_argument_guards():
    model = make_model()
    with pytest.raises(OutOfDomain):
        sample_events(model, -1, seed=0)


def test_csv_round_trip(tmp_path):
    model = make_model()
    dx = sample_events(model, 50, seed=13)
    path = tmp_path / "events.csv"
    write_series_csv(path, dx, model.channels, index_name="event_index")
    first = path.read_text().splitlines()[0]
    assert first == "event_index,alpha,beta,gamma"
    header, data = read_table(path)
    assert header == ("alpha", "beta", "gamma")
    assert np.array_equal(data, dx)


def streamed_mismatches(residues):
    """(N, n, rows that differ) for each case where the risk command's
    streamed returns differ from the whole-table sample_events(...) @ w,
    at N = 1, 3, 8 and 64 and n of each residue mod 8 around 3 row blocks."""
    from tailfolio import cli
    from tailfolio.risk import LinearPortfolio

    block_values = events._BLOCK_VALUES
    found = []
    for dim in (1, 3, 8, 64):
        model = _model_of_dim(dim)
        weights = tuple(np.random.default_rng(dim).uniform(-1.0, 1.0, dim))
        portfolio = LinearPortfolio(weights=weights, offsets=(0.0,) * dim)
        edge = 8 * (3 * block_values // dim // 8)
        for n in [edge + 8 + r for r in residues] + [edge - 8 + r for r in residues]:
            want = sample_events(model, n, 23) @ np.asarray(weights)
            got = cli._streamed_returns(model, n, 23, portfolio)
            if got.tobytes() != want.tobytes():
                found.append((dim, n, int(np.sum(got != want))))
    return found


@pytest.mark.parametrize("threads, residues", [("1", "range(8)"), ("2", "[0]")])
def test_streamed_returns_match_the_whole_table_product(threads, residues):
    """On one BLAS thread the whole-table product computes every row in its
    kernel's 4-row groups; on two it splits the rows at ceil(n / 2), which
    keeps them in those groups for n a multiple of 8. There the streamed
    returns give its bits. A block cut off a multiple of 4 rows puts rows
    outside those groups, and fails here."""
    code = ("from tailfolio import events\n"
            "from test_events import streamed_mismatches\n"
            "events._BLOCK_VALUES = 1 << 14\n"
            f"print(streamed_mismatches({residues}))\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=tests,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                               "PYTHONPATH": os.pathsep.join([SRC, tests])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def part_mismatches(tmp):
    """(N, n, parts, what) for each case where sample's CSV or risk's
    returns, made in 2 or 3 forked parts, differ from those of one part,
    or one part's from the whole-table sample_events; then the forks made.
    N = 1, 3, 8 and 64, and n at -1, 0, +1 and +7 rows around 1 and 3 row
    blocks of 2^12 values, whose cuts are the part cuts."""
    from tailfolio import cli, modelfile
    from tailfolio.risk import LinearPortfolio, portfolio_returns

    events._BLOCK_VALUES = 1 << 12
    modelfile._PART_VALUES = 1
    forks, fork = [], os.fork
    os.fork = lambda: forks.append(1) or fork()
    found = []
    for dim in (1, 3, 8, 64):
        model = _model_of_dim(dim)
        weights = tuple(np.random.default_rng(dim).uniform(-1.0, 1.0, dim))
        portfolio = LinearPortfolio(weights=weights, offsets=(0.0,) * dim)
        block = events._BLOCK_VALUES // dim
        for n in [k * block + d for k in (1, 3) for d in (-1, 0, 1, 7)]:
            path = os.path.join(tmp, "want.csv")
            dx = sample_events(model, n, 29)
            os.sched_getaffinity = lambda pid: {0}
            write_series_csv(path, dx, model.channels, index_name="event_index")
            want = (Path(path).read_bytes(), portfolio_returns(dx, portfolio).tobytes())
            for parts in (1, 2, 3):
                os.sched_getaffinity = lambda pid, parts=parts: set(range(parts))
                write_series_csv(path, events.EventBatch(model, n, 29), model.channels,
                                 index_name="event_index")
                got = (Path(path).read_bytes(),
                       cli._streamed_returns(model, n, 29, portfolio).tobytes())
                found += [(dim, n, parts, what) for what, a, b
                          in zip(("sample", "risk"), got, want) if a != b]
    return found, len(forks)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_parts_make_the_bytes_of_one_part(tmp_path, threads):
    """Each forked part draws its run of row blocks from a stream started
    at its first row, so the part count never changes a byte of sample's
    CSV or a bit of risk's returns, on one BLAS thread or two."""
    code = ("import sys\n"
            "from test_events import part_mismatches\n"
            "print(part_mismatches(sys.argv[1]))\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, timeout=300, cwd=tests,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                               "PYTHONPATH": os.pathsep.join([SRC, tests])})
    assert proc.returncode == 0, proc.stderr
    found, forks = ast.literal_eval(proc.stdout)
    assert found == []
    # of each N's 8 n, 2 make one block (no fork at any part count), 2 make
    # two (one fork at 2 and at 3 parts) and 4 make three or four (one fork
    # at 2 parts, two at 3); the CSV and the returns fork alike
    assert forks == 4 * 2 * (2 * 2 + 4 * 3)
