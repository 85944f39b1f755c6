import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr
from scipy.stats import norm

from tailfolio import copula, marginals
from tailfolio.copula import (CopulaModel, CorrelationMatrix, cholesky_lower,
                              copula_density, effective_action,
                              estimate_correlation, from_gaussian,
                              identity_correlation, joint_density, to_gaussian,
                              transform_to_gaussian)
from tailfolio.errors import (DimensionMismatch, IllConditioned,
                              NotPositiveDefinite, OutOfDomain, WindowTooShort)
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
    assert to_gaussian(mg, 200.0, y_max=5.0) == 5.0


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
    back = from_gaussian(mg, to_gaussian(mg, x, y_max=np.inf))
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
    got = log_ndtr(-np.abs(to_gaussian(mg, x, y_max=np.inf)))
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
    with pytest.raises(NotPositiveDefinite, match="pivot"):
        cholesky_lower(g)
    with pytest.raises(DimensionMismatch):
        cholesky_lower(np.ones((2, 3)))


def test_cholesky_names_first_pivot_below_floor():
    # rows 0 and 1 are nearly collinear: LAPACK factors it, but the pivot at
    # index 1 is about 2e-13, positive and below the floor
    g = np.array([[1.0, 1.0 - 1e-13, 0.0],
                  [1.0 - 1e-13, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    np.linalg.cholesky(g)
    with pytest.raises(NotPositiveDefinite, match="pivot .* at index 1 not above"):
        cholesky_lower(g, pivot_floor=1e-10)
    with pytest.raises(NotPositiveDefinite, match="pivot .* at index 2 not above"):
        cholesky_lower([[4.0, 0.0, 2.0], [0.0, 1.0, 3.0], [2.0, 3.0, 1.0]])


def test_correlation_matrix_validation():
    with pytest.raises(OutOfDomain, match="symmetric"):
        CorrelationMatrix.from_matrix([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(OutOfDomain, match="unit diagonal"):
        CorrelationMatrix.from_matrix([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        CorrelationMatrix.from_matrix(np.ones((2, 3)))


def test_correlation_matrix_factors_consistent():
    g = np.array([
        [1.0, 0.5, -0.3],
        [0.5, 1.0, 0.0],
        [-0.3, 0.0, 1.0],
    ])
    corr = CorrelationMatrix.from_matrix(g)
    assert np.allclose(corr.cholesky @ corr.cholesky.T, g, atol=1e-12)
    assert np.allclose(corr.inverse, np.linalg.inv(g), atol=1e-12)
    assert corr.logdet == pytest.approx(np.linalg.slogdet(g)[1], rel=1e-12)
    # factor orientation: C' G^{-1} C = I
    ident = corr.cholesky.T @ corr.inverse @ corr.cholesky
    assert np.allclose(ident, np.eye(3), atol=1e-10)


def test_correlation_high_dimension_stays_finite():
    rng = np.random.default_rng(800)
    a = rng.normal(size=(800, 810))
    cov = a @ a.T
    d = np.sqrt(np.diag(cov))
    g = cov / np.outer(d, d)
    corr = CorrelationMatrix.from_matrix(g)
    sign, logdet = np.linalg.slogdet(g)
    assert sign == 1.0 and logdet < -745.0   # det G underflows a double
    assert corr.logdet == pytest.approx(logdet, rel=1e-12)
    dy = corr.cholesky @ rng.normal(size=800)
    dens = copula_density(corr, dy)
    action = effective_action(corr, dy, 0.5)
    assert np.isfinite(dens) and dens > 0.0
    assert np.isfinite(action)


def test_identity_correlation():
    corr = identity_correlation(4)
    assert corr.logdet == pytest.approx(0.0)
    assert np.allclose(corr.inverse, np.eye(4))


def test_copula_density_identity_is_one():
    corr = identity_correlation(3)
    assert copula_density(corr, np.array([0.4, -1.0, 2.0])) == pytest.approx(1.0)


def test_copula_density_frozen_value():
    corr = CorrelationMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
    val = copula_density(corr, np.array([1.0, 1.0]))
    assert val == pytest.approx(1.6115144186156802, rel=1e-14)


def test_copula_density_batched():
    corr = CorrelationMatrix.from_matrix([[1.0, -0.2], [-0.2, 1.0]])
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]])
    batch = copula_density(corr, pts)
    single = [copula_density(corr, p) for p in pts]
    assert np.allclose(batch, single, rtol=1e-14)
    with pytest.raises(DimensionMismatch):
        copula_density(corr, np.zeros(3))


def test_joint_density_normalizes():
    model = CopulaModel(
        marginals=(
            ExponentialMarginal(m=0.0, chi=1.0),
            ExponentialMarginal(m=0.5, chi=0.7),
        ),
        correlation=CorrelationMatrix.from_matrix([[1.0, 0.4], [0.4, 1.0]]),
    )
    # Gauss-Legendre per quadrant; axes split at each marginal's location so
    # the integrand stays smooth on every panel.
    nodes, weights = np.polynomial.legendre.leggauss(96)

    def axis(m, chi):
        span = 30.0 * chi
        xs, ws = [], []
        for lo, hi in ((m - span, m), (m, m + span)):
            half = 0.5 * (hi - lo)
            xs.append(0.5 * (lo + hi) + half * nodes)
            ws.append(half * weights)
        return np.concatenate(xs), np.concatenate(ws)

    x1, w1 = axis(0.0, 1.0)
    x2, w2 = axis(0.5, 0.7)
    grid = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
    dens = joint_density(model, grid)
    total = float(np.einsum("i,j,ij->", w1, w2, dens))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_transform_to_gaussian_shapes():
    model = CopulaModel(
        marginals=(
            ExponentialMarginal(m=0.0, chi=1.0),
            ExponentialMarginal(m=0.0, chi=2.0),
        ),
        correlation=identity_correlation(2),
    )
    dy = transform_to_gaussian(model, np.zeros((5, 2)))
    assert dy.shape == (5, 2)
    assert np.all(dy == 0.0)
    with pytest.raises(DimensionMismatch):
        transform_to_gaussian(model, np.zeros((5, 3)))


def test_copula_model_channel_names():
    mgs = (ExponentialMarginal(m=0.0, chi=1.0), ExponentialMarginal(m=0.0, chi=1.0))
    model = CopulaModel(marginals=mgs, correlation=identity_correlation(2))
    assert model.channels == ("ch0", "ch1")
    with pytest.raises(DimensionMismatch):
        CopulaModel(marginals=mgs, correlation=identity_correlation(2),
                    channels=("a",))
    with pytest.raises(DimensionMismatch):
        CopulaModel(marginals=mgs, correlation=identity_correlation(3))


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
    with pytest.raises(WindowTooShort):
        estimate_correlation(np.zeros((2, 2)), pre_average_window=3)
    # 5 epochs smooth to 3, not more than 3 channels
    with pytest.raises(WindowTooShort):
        estimate_correlation(np.random.default_rng(0).normal(size=(3, 5)),
                             pre_average_window=3)
    with pytest.raises(OutOfDomain, match="'pre_average_window' must be >= 1, got 0"):
        estimate_correlation(np.zeros((2, 10)), pre_average_window=0)
    with pytest.raises(DimensionMismatch):
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


def test_effective_action_manual():
    corr = identity_correlation(2)
    dy = np.array([1.0, 2.0])
    dt = 0.5
    lagr = 5.0 / (2.0 * dt * dt)
    expected = lagr * dt + 0.0 + 1.0 * np.log(2.0 * np.pi * dt)
    assert effective_action(corr, dy, dt) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(OutOfDomain):
        effective_action(corr, dy, 0.0)
    with pytest.raises(DimensionMismatch):
        effective_action(corr, np.zeros(3), 1.0)


def test_effective_action_uses_correlation():
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    corr = CorrelationMatrix.from_matrix(g)
    dy = np.array([1.0, 1.0])
    dt = 1.0
    quad = float(dy @ np.linalg.inv(g) @ dy)
    expected = quad / 2.0 + 0.5 * np.log(np.linalg.det(g)) + np.log(2.0 * np.pi)
    assert effective_action(corr, dy, dt) == pytest.approx(expected, rel=1e-13)
