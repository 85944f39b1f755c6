import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr
from scipy.stats import norm

from tailfolio import copula, marginals
from tailfolio.copula import (CopulaModel, CorrelationMatrix, cholesky_lower,
                              estimate_correlation, from_gaussian, to_gaussian)
from tailfolio.errors import IllConditioned, OutOfDomain
from tailfolio.marginals import ExponentialMarginal


def test_to_gaussian_matches_normal_quantile_of_cdf():
    mg = ExponentialMarginal(m=0.3, chi=0.8)
    x = np.linspace(0.3 - 4.0, 0.3 + 4.0, 801)
    expected = norm.ppf(marginals.cdf(mg, x))
    got = to_gaussian(mg, x)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_to_gaussian_center_and_sides():
    mg = ExponentialMarginal(m=1.5, chi=1.0, chi_minus=0.5, chi_plus=2.0)
    assert to_gaussian(mg, 1.5) == 0.0
    lo = to_gaussian(mg, 1.5 - 0.5)
    hi = to_gaussian(mg, 1.5 + 2.0)
    # one width out on either side lands on the same |dy|
    assert lo == pytest.approx(-hi)
    assert hi == pytest.approx(float(norm.ppf(1.0 - 0.5 * np.exp(-1.0))))


def test_to_gaussian_clamps_deep_tail():
    mg = ExponentialMarginal(m=0.0, chi=1.0)
    assert to_gaussian(mg, 200.0) == 8.0
    assert to_gaussian(mg, -200.0) == -8.0


def test_round_trip_increments():
    mg = ExponentialMarginal(m=-0.7, chi=0.03)
    x = np.linspace(-0.7 - 10 * 0.03, -0.7 + 10 * 0.03, 2001)
    back = from_gaussian(mg, to_gaussian(mg, x))
    assert np.max(np.abs(back - x)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(m=st.floats(-5.0, 5.0), chi_minus=st.floats(0.01, 20.0),
       chi_plus=st.floats(0.01, 20.0), symmetric=st.booleans(),
       widths=st.floats(-30.0, 30.0))
def test_round_trip_out_to_30_widths(m, chi_minus, chi_plus, symmetric, widths):
    if symmetric:
        mg = ExponentialMarginal(m=m, chi=chi_minus)
    else:
        mg = ExponentialMarginal(m=m, chi=chi_minus, chi_minus=chi_minus,
                                 chi_plus=chi_plus)
    x = m + widths * (mg.width_below() if widths < 0.0 else mg.width_above())
    back = from_gaussian(mg, to_gaussian(mg, x))
    assert abs(back - x) < 1e-10


@pytest.mark.parametrize("mg", [
    ExponentialMarginal(m=0.4, chi=0.7),
    ExponentialMarginal(m=-1.2, chi=1.0, chi_minus=0.05, chi_plus=3.0),
])
def test_to_gaussian_tail_mass_identity(mg):
    # log P(Y < -|dy|) must equal the marginal's log tail mass ln(1/2) - |t|/chi
    x = np.concatenate([mg.m - mg.width_below() * np.linspace(30.0, 0.0, 3001),
                        mg.m + mg.width_above() * np.linspace(0.0, 30.0, 3001)])
    t = x - mg.m
    chi = np.where(t < 0.0, mg.width_below(), mg.width_above())
    expected = np.log(0.5) - np.abs(t) / chi
    got = log_ndtr(-np.abs(to_gaussian(mg, x)))
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-13


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    g = a @ a.T + 6 * np.eye(6)
    c = cholesky_lower(g)
    assert np.allclose(c, np.linalg.cholesky(g), atol=1e-12)
    assert np.allclose(c @ c.T, g, atol=1e-12)


def test_cholesky_rejects_indefinite():
    g = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IllConditioned, match="pivot"):
        cholesky_lower(g)
    with pytest.raises(OutOfDomain, match="matrix must be square"):
        cholesky_lower(np.ones((2, 3)))


def test_cholesky_names_first_pivot_below_floor():
    # rows 0 and 1 are nearly collinear: LAPACK factors it, but the pivot at
    # index 1 is about 2e-13, positive and below the floor
    g = np.array([[1.0, 1.0 - 1e-13, 0.0],
                  [1.0 - 1e-13, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    np.linalg.cholesky(g)
    with pytest.raises(IllConditioned, match="pivot .* at index 1 not above"):
        cholesky_lower(g, pivot_floor=1e-10)
    with pytest.raises(IllConditioned, match="pivot .* at index 2 not above"):
        cholesky_lower([[4.0, 0.0, 2.0], [0.0, 1.0, 3.0], [2.0, 3.0, 1.0]])


def test_correlation_matrix_validation():
    with pytest.raises(OutOfDomain, match="symmetric"):
        CorrelationMatrix.from_matrix([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(OutOfDomain, match="unit diagonal"):
        CorrelationMatrix.from_matrix([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(OutOfDomain, match=r"must be square, got shape \(2, 3\)"):
        CorrelationMatrix.from_matrix(np.ones((2, 3)))


@pytest.mark.parametrize("g, error, message", [
    ([[1.0, np.nan], [np.nan, 1.0]], OutOfDomain,
     r"entries must lie in \[-1, 1\], got nan at \(0, 1\)"),
    ([[np.nan, 0.0], [0.0, 1.0]], OutOfDomain,
     r"must have unit diagonal, got nan at \(0, 0\)"),
    ([[1.0, np.inf], [np.inf, 1.0]], OutOfDomain,
     r"entries must lie in \[-1, 1\], got inf"),
    ([[1.0, -np.inf], [-np.inf, 1.0]], OutOfDomain,
     r"entries must lie in \[-1, 1\], got -inf"),
    ([[1.0, 0.0], [0.0, -np.inf]], OutOfDomain,
     r"must have unit diagonal, got -inf at \(1, 1\)"),
    ([[1.0, 1.5], [1.5, 1.0]], OutOfDomain,
     r"entries must lie in \[-1, 1\], got 1.5 at \(0, 1\)"),
    ([[1.0, 0.5], [0.2, 1.0]], OutOfDomain,
     r"must be symmetric, got 0.5 at \(0, 1\)"),
    (np.ones((3, 2)), OutOfDomain, r"must be square, got shape \(3, 2\)"),
], ids=["nan", "nan-diagonal", "inf", "minus-inf", "minus-inf-diagonal", "1.5",
        "asymmetric", "not-square"])
def test_correlation_matrix_names_the_bad_entry(g, error, message):
    with pytest.raises(error, match="'correlation' " + message):
        CorrelationMatrix.from_matrix(g)


def test_correlation_matrix_factors_consistent():
    g = np.array([
        [1.0, 0.5, -0.3],
        [0.5, 1.0, 0.0],
        [-0.3, 0.0, 1.0],
    ])
    corr = CorrelationMatrix.from_matrix(g)
    assert np.allclose(corr.cholesky @ corr.cholesky.T, g, atol=1e-12)
    # factor orientation: C is the lower factor
    assert np.array_equal(corr.cholesky, np.tril(corr.cholesky))


def test_correlation_high_dimension_stays_finite():
    rng = np.random.default_rng(800)
    a = rng.normal(size=(800, 810))
    cov = a @ a.T
    d = np.sqrt(np.diag(cov))
    g = cov / np.outer(d, d)
    corr = CorrelationMatrix.from_matrix(g)
    assert np.allclose(corr.cholesky @ corr.cholesky.T, g, atol=1e-12)


def test_copula_model_channel_names():
    mgs = (ExponentialMarginal(m=0.0, chi=1.0), ExponentialMarginal(m=0.0, chi=1.0))
    eye2 = CorrelationMatrix.from_matrix(np.eye(2))
    model = CopulaModel(marginals=mgs, correlation=eye2)
    assert model.channels == ("ch0", "ch1")
    with pytest.raises(OutOfDomain, match="channel name count must match"):
        CopulaModel(marginals=mgs, correlation=eye2, channels=("a",))
    with pytest.raises(OutOfDomain, match="marginal count must match correlation"):
        CopulaModel(marginals=mgs, correlation=CorrelationMatrix.from_matrix(np.eye(3)))


def test_estimate_correlation_recovers_target():
    rho = 0.6
    c = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    rng = np.random.default_rng(11)
    z = rng.normal(size=(2, 60000))
    y = c @ z
    corr = estimate_correlation(y, pre_average_window=3)
    assert corr.matrix[0, 1] == pytest.approx(rho, abs=0.03)
    assert corr.matrix[0, 0] == 1.0


def test_estimate_correlation_window_guards():
    with pytest.raises(OutOfDomain, match="2 epochs cannot support window 3"):
        estimate_correlation(np.zeros((2, 2)), pre_average_window=3)
    # 5 epochs smooth to 3, not more than 3 channels
    with pytest.raises(OutOfDomain, match="3 pre-averaged epochs for 3 channels"):
        estimate_correlation(np.random.default_rng(0).normal(size=(3, 5)),
                             pre_average_window=3)
    with pytest.raises(OutOfDomain, match="'pre_average_window' must be >= 1, got 0"):
        estimate_correlation(np.zeros((2, 10)), pre_average_window=0)
    with pytest.raises(OutOfDomain, match="y_series must be 2-D"):
        estimate_correlation(np.zeros(10))


def test_estimate_correlation_degenerate_channels():
    rng = np.random.default_rng(3)
    base = rng.normal(size=50)
    dup = np.stack([base, base])
    with pytest.raises(IllConditioned):
        estimate_correlation(dup)
    flat = np.stack([base, np.zeros(50)])
    with pytest.raises(IllConditioned):
        estimate_correlation(flat)


def _former_estimate(y, w):
    """estimate_correlation as one whole-row np.convolve per channel into a
    new array, then centred into another."""
    kernel = np.ones(w) / w
    avg = np.stack([np.convolve(r, kernel, mode="valid") for r in y])
    centered = avg - avg.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / avg.shape[1]
    d = np.sqrt(np.diag(cov))
    return CorrelationMatrix.from_matrix(np.clip(cov / np.outer(d, d), -1.0, 1.0))


@pytest.mark.parametrize("n, t, w", [(3, 1000, 5), (8, 3 * (1 << 16) + 5, 3),
                                     (2, (1 << 16) + 1, 1), (40, 2000, 17)])
def test_correlation_in_place_gives_the_estimate_bits(n, t, w):
    """Across the moving-average blocks, on the rows of a channel-major
    table's transpose (rows not adjacent in memory), the in-place kernel
    gives the entries whose CorrelationMatrix has the bits of
    estimate_correlation and of the former whole-row form;
    estimate_correlation leaves its argument as it was."""
    table = np.random.default_rng(t).standard_normal((t + 4, n + 1))
    y = np.ascontiguousarray(table.T)[1:, 4:]     # (n, t), row stride t + 4
    before = y.copy()
    want = estimate_correlation(y, pre_average_window=w)
    assert y.tobytes() == before.tobytes()
    assert want.matrix.tobytes() == _former_estimate(before, w).matrix.tobytes()
    got = CorrelationMatrix.from_matrix(copula.correlation_in_place(y, w))
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.cholesky.tobytes() == want.cholesky.tobytes()
    assert not np.array_equal(y, before)    # the rows were overwritten
