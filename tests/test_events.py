import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfolio.copula import CopulaModel, CorrelationMatrix, from_gaussian
from tailfolio.errors import OutOfDomain
from tailfolio.events import sample_events
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import read_series_csv, write_series_csv
from tailfolio.rng import NormalStream


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
    head = 333  # lane 0 holds ceil(999/3) rows
    assert np.array_equal(multi[:head], single[:head])


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
