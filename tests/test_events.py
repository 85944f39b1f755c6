import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfolio import events
from tailfolio.copula import CopulaModel, CorrelationMatrix, from_gaussian
from tailfolio.errors import OutOfDomain
from tailfolio.events import sample_events
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import read_series_csv, write_series_csv
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
       seed=st.integers(0, 2 ** 63 - 1), lanes=st.integers(1, 8))
def test_lanes_never_change_the_batch(model, n, seed, lanes):
    single = sample_events(model, n, seed, lanes=1)
    dx = sample_events(model, n, seed, lanes=lanes)
    assert dx.shape == (n, model.dim)
    assert dx.tobytes() == single.tobytes()
    # one stream, row by row: dz is the seed's first n*N normals
    dy = whitened(model, n, seed) @ model.correlation.cholesky.T
    for j, marg in enumerate(model.marginals):
        assert np.array_equal(dx[:, j], from_gaussian(marg, dy[:, j]))


def test_lane_zero_is_prefix_of_single_lane_run():
    model = make_model()
    multi = sample_events(model, 999, seed=21, lanes=3)
    single = sample_events(model, 999, seed=21, lanes=1)
    # lanes split the channels of each row block, never the rows, so a row
    # prefix of the three-lane batch is that of the one-lane batch
    assert np.array_equal(multi[:333], single[:333])


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
    for lanes in (1, 2):
        assert sample_events(model, n, 17, lanes=lanes).tobytes() == want.tobytes()


def test_sample_peak_memory_near_its_table():
    # one (n, N) table plus a row block of draws and map temporaries
    model = _model_of_dim(8)
    n = 200_000
    assert traced_peak(lambda: sample_events(model, n, 3, lanes=2)) < 1.35 * 8 * 8 * n


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
    with pytest.raises(OutOfDomain):
        sample_events(model, 10, seed=0, lanes=0)


def test_csv_round_trip(tmp_path):
    model = make_model()
    dx = sample_events(model, 50, seed=13)
    path = tmp_path / "events.csv"
    write_series_csv(path, dx, model.channels, index_name="event_index")
    first = path.read_text().splitlines()[0]
    assert first == "event_index,alpha,beta,gamma"
    header, data = read_series_csv(path)
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
