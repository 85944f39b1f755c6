import numpy as np
import pytest

from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.errors import OutOfDomain
from tailfolio.events import _lane_chunk, sample_events
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import read_series_csv


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


def test_batch_deterministic():
    model = make_model()
    a = sample_events(model, 500, seed=7)
    b = sample_events(model, 500, seed=7)
    assert np.array_equal(a.dx, b.dx)
    assert np.array_equal(a.dz, b.dz)
    c = sample_events(model, 500, seed=8)
    assert not np.array_equal(a.dx, c.dx)


def test_serial_matches_parallel():
    model = make_model()
    pooled = sample_events(model, 10007, seed=3, lanes=3)
    # lanes take 3336, 3336 and 3335 rows, merged in lane order
    parts = [_lane_chunk(model, count, 3, lane)
             for lane, count in enumerate((3336, 3336, 3335))]
    serial = [np.concatenate([p[k] for p in parts], axis=0) for k in range(3)]
    assert np.array_equal(serial[0], pooled.dz)
    assert np.array_equal(serial[1], pooled.dy)
    assert np.array_equal(serial[2], pooled.dx)


def test_lane_zero_is_prefix_of_single_lane_run():
    model = make_model()
    multi = sample_events(model, 999, seed=21, lanes=3)
    single = sample_events(model, 999, seed=21, lanes=1)
    head = 333  # lane 0 holds ceil(999/3) rows
    assert np.array_equal(multi.dz[:head], single.dz[:head])
    assert np.array_equal(multi.dx[:head], single.dx[:head])


def test_coloring_and_marginal_map_exact():
    from tailfolio.copula import from_gaussian

    model = make_model()
    batch = sample_events(model, 200, seed=5)
    c = model.correlation.cholesky
    assert np.array_equal(batch.dy, batch.dz @ c.T)
    for j, marg in enumerate(model.marginals):
        assert np.array_equal(batch.dx[:, j], from_gaussian(marg, batch.dy[:, j]))


def test_sample_statistics():
    model = make_model()
    batch = sample_events(model, 100000, seed=9)
    corr = np.corrcoef(batch.dy.T)
    target = model.correlation.matrix
    assert np.max(np.abs(corr - target)) < 0.02
    for j, marg in enumerate(model.marginals):
        assert float(np.mean(batch.dx[:, j])) == pytest.approx(marg.m, abs=0.02 * marg.chi * 4)


def test_zero_events():
    model = make_model()
    batch = sample_events(model, 0, seed=1)
    assert batch.n == 0
    assert batch.dx.shape == (0, 3)


def test_argument_guards():
    model = make_model()
    with pytest.raises(OutOfDomain):
        sample_events(model, -1, seed=0)
    with pytest.raises(OutOfDomain):
        sample_events(model, 10, seed=0, lanes=0)


def test_csv_round_trip(tmp_path):
    model = make_model()
    batch = sample_events(model, 50, seed=13)
    path = tmp_path / "events.csv"
    batch.write_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == "event_index,alpha,beta,gamma"
    header, data = read_series_csv(path)
    assert header == ("alpha", "beta", "gamma")
    assert np.array_equal(data, batch.dx)
