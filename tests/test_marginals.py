import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfolio import marginals
from tailfolio.errors import DegenerateData, OutOfDomain
from tailfolio.marginals import ExponentialMarginal, fit_exponential


def test_fit_matches_moment_equations():
    x = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 0.1])
    mg = fit_exponential(x)
    assert mg.m == pytest.approx(float(np.mean(x)), abs=0)
    var = float(np.mean((x - np.mean(x)) ** 2))
    assert mg.chi == pytest.approx(np.sqrt(var / 2.0), abs=0)
    assert mg.chi_minus is None and mg.chi_plus is None


def test_fit_asymmetric_one_sided_moments():
    x = np.array([-2.0, -0.5, -0.1, 0.2, 0.3, 0.6, 3.0])
    mg = fit_exponential(x, asymmetric=True)
    m = float(np.mean(x))
    below = x[x < m] - m
    above = x[x > m] - m
    assert mg.chi_minus == pytest.approx(np.sqrt(np.mean(below ** 2) / 2.0))
    assert mg.chi_plus == pytest.approx(np.sqrt(np.mean(above ** 2) / 2.0))


def test_fit_degenerate_cases():
    with pytest.raises(DegenerateData):
        fit_exponential(np.full(100, 3.25))
    with pytest.raises(DegenerateData):
        fit_exponential(np.array([1.0]))
    with pytest.raises(OutOfDomain):
        fit_exponential(np.array([1.0, np.nan, 2.0]))


def test_marginal_validation():
    with pytest.raises(OutOfDomain, match="'chi' must be finite and > 0, got 0.0"):
        ExponentialMarginal(m=0.0, chi=0.0)
    with pytest.raises(OutOfDomain, match="'m' must be finite, got inf"):
        ExponentialMarginal(m=np.inf, chi=1.0)
    with pytest.raises(OutOfDomain, match="'chi_minus' and 'chi_plus'"):
        ExponentialMarginal(m=0.0, chi=1.0, chi_minus=0.5, chi_plus=None)
    with pytest.raises(OutOfDomain, match="'chi_minus' must be finite and > 0, got -0.5"):
        ExponentialMarginal(m=0.0, chi=1.0, chi_minus=-0.5, chi_plus=0.5)
    with pytest.raises(OutOfDomain, match="'chi_plus' must be finite and > 0, got inf"):
        ExponentialMarginal(m=0.0, chi=1.0, chi_minus=0.5, chi_plus=np.inf)


def test_cdf_closed_form_and_midpoint():
    mg = ExponentialMarginal(m=-2.0, chi=2.0)
    assert marginals.cdf(mg, -2.0) == 0.5
    assert marginals.cdf(mg, 0.0) == pytest.approx(1.0 - 0.5 * np.exp(-1.0))
    assert marginals.cdf(mg, -4.0) == pytest.approx(0.5 * np.exp(-1.0))
    # total mass
    assert marginals.cdf(mg, -2.0 + 80.0) == pytest.approx(1.0, abs=1e-12)
    assert marginals.cdf(mg, -2.0 - 80.0) == pytest.approx(0.0, abs=1e-12)


def test_cdf_monotone():
    mg = ExponentialMarginal(m=0.3, chi=0.7, chi_minus=0.4, chi_plus=1.1)
    x = np.linspace(-8, 8, 4001)
    f = marginals.cdf(mg, x)
    assert np.all(np.diff(f) >= 0.0)


def test_quantile_inverts_cdf():
    mg = ExponentialMarginal(m=0.1, chi=0.25)
    x = np.linspace(0.1 - 2.0, 0.1 + 2.0, 501)
    back = marginals.quantile(mg, marginals.cdf(mg, x))
    assert np.max(np.abs(back - x)) < 1e-12


def test_quantile_asymmetric_sides():
    mg = ExponentialMarginal(m=0.0, chi=1.0, chi_minus=0.5, chi_plus=2.0)
    # u = 1/2 e^{-1} on the lower side sits one lower-width below m
    u_lo = 0.5 * np.exp(-1.0)
    assert marginals.quantile(mg, u_lo) == pytest.approx(-0.5)
    u_hi = 1.0 - 0.5 * np.exp(-1.0)
    assert marginals.quantile(mg, u_hi) == pytest.approx(2.0)


def test_quantile_domain():
    mg = ExponentialMarginal(m=0.0, chi=1.0)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(OutOfDomain):
            marginals.quantile(mg, bad)


def test_sample_deterministic_and_calibrated():
    mg = ExponentialMarginal(m=0.4, chi=0.05)
    a = marginals.sample(mg, 50000, seed=3)
    b = marginals.sample(mg, 50000, seed=3)
    assert np.array_equal(a, b)
    assert float(np.mean(a)) == pytest.approx(0.4, abs=4 * 0.05 * np.sqrt(2 / 50000))
    assert float(np.std(a)) == pytest.approx(0.05 * np.sqrt(2), rel=0.05)


def _where_width(marginal, t):
    """The full-size side width that side_width gave before a symmetric
    marginal returned its chi as a float."""
    return np.where(t < 0.0, marginal.width_below(), marginal.width_above())


_VALUES = st.lists(st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0]),
                   min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(m=st.floats(-2.0, 2.0), chi=st.floats(0.01, 3.0),
       sides=st.none() | st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
       values=_VALUES)
def test_the_side_width_keeps_every_map_bitwise(m, chi, sides, values):
    """A symmetric marginal's width is one float; each map multiplies or
    divides by it, so its values keep the bits of the full-size width."""
    from tailfolio.copula import from_gaussian, to_gaussian

    mg = ExponentialMarginal(m, chi, *(sides or (None, None)))
    x = np.asarray(values)
    # from_gaussian takes normal coordinates, which to_gaussian clamps to 8
    cases = ((to_gaussian, x), (from_gaussian, x * 0.16), (marginals.cdf, x))
    got = [np.asarray(f(mg, v)).tobytes() for f, v in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExponentialMarginal, "side_width", _where_width)
        want = [np.asarray(f(mg, v)).tobytes() for f, v in cases]
    assert got == want
    if sides is None:
        assert mg.side_width(x) == chi
