"""End-to-end tail check of sampled events: the counts beyond far quantiles
of a fixed-seed two-channel model against the model's own tail masses.

A marginal's mass beyond m + k chi_plus (or below m - k chi_minus) is
e^-k / 2, and the copula's joint upper-orthant mass beyond the quantiles of
mass p on both channels is the bivariate normal's P(Y1 > z, Y2 > z) with
z = -ndtri(p). Each count is held to a two-sided binomial test, with the
level split over every test made (Bonferroni). A 400-channel model checks
the correlation and the refit marginals at high dimension.
"""

import numpy as np
from scipy.special import ndtri
from scipy.stats import binomtest, multivariate_normal

from tailfolio.copula import CopulaModel, CorrelationMatrix, estimate_correlation, to_gaussian
from tailfolio.events import sample_events
from tailfolio.marginals import ExponentialMarginal, fit_exponential

N_EVENTS = 2_000_000
RHO = 0.6
MASSES = (1e-2, 1e-3, 1e-4, 1e-5)
JOINT_MASSES = (1e-2, 1e-3, 1e-4)
ALPHA = 0.01


def test_sampled_tails_hold_the_model_tail_masses():
    model = CopulaModel(
        marginals=(ExponentialMarginal(m=0.1, chi=0.5),
                   ExponentialMarginal(m=-0.2, chi=1.5, chi_minus=1.2, chi_plus=1.8)),
        correlation=CorrelationMatrix.from_matrix([[1.0, RHO], [RHO, 1.0]]))
    dx = sample_events(model, N_EVENTS, seed=11)
    counts = []     # (what, count, mass)
    for j, mg in enumerate(model.marginals):
        for p in MASSES:
            k = np.log(0.5 / p)
            counts.append((f"ch{j} above, mass {p}",
                           np.count_nonzero(dx[:, j] > mg.m + k * mg.width_above()), p))
            counts.append((f"ch{j} below, mass {p}",
                           np.count_nonzero(dx[:, j] < mg.m - k * mg.width_below()), p))
    for p in JOINT_MASSES:
        k = np.log(0.5 / p)
        z = -ndtri(p)
        joint = multivariate_normal.cdf([-z, -z], mean=[0.0, 0.0],
                                        cov=[[1.0, RHO], [RHO, 1.0]])
        above = np.ones(N_EVENTS, dtype=bool)
        for j, mg in enumerate(model.marginals):
            above &= dx[:, j] > mg.m + k * mg.width_above()
        counts.append((f"joint upper orthant, marginal mass {p}",
                       np.count_nonzero(above), joint))
    pvalues = {what: binomtest(int(count), N_EVENTS, mass).pvalue
               for what, count, mass in counts}
    assert len(pvalues) == 19
    assert {what: p for what, p in pvalues.items() if p < ALPHA / len(pvalues)} == {}


HIGH_DIM, HIGH_DIM_EVENTS = 400, 20_000


def test_a_high_dimension_one_factor_model_is_recovered():
    """A 400-channel one-factor model (loadings U(0.2, 0.7)): the correlation
    of the sampled events' normal coordinates holds each G_ij within its
    sampling error (1 - G_ij^2) / sqrt(n), and the refit m and chi of every
    channel lie within their standard errors chi sqrt(2/n) and
    chi sqrt(1.25/n) (Laplace kurtosis 6); Bonferroni at 0.01 over the pairs,
    and over the 2 x 400 refit values."""
    rng = np.random.default_rng(11)
    loads = rng.uniform(0.2, 0.7, HIGH_DIM)
    g = np.outer(loads, loads)
    np.fill_diagonal(g, 1.0)
    m, chi = rng.uniform(-0.002, 0.002, HIGH_DIM), rng.uniform(0.005, 0.03, HIGH_DIM)
    model = CopulaModel(marginals=tuple(map(ExponentialMarginal, m, chi)),
                        correlation=CorrelationMatrix.from_matrix(g))
    n = HIGH_DIM_EVENTS
    dx = sample_events(model, n, seed=11)

    y = np.stack([to_gaussian(mg, dx[:, j]) for j, mg in enumerate(model.marginals)])
    est = estimate_correlation(y, pre_average_window=1).matrix
    pairs = np.triu_indices(HIGH_DIM, 1)
    z = (est[pairs] - g[pairs]) / ((1.0 - g[pairs] ** 2) / np.sqrt(n))
    assert np.abs(z).max() < -ndtri(ALPHA / z.size / 2)

    fits = [fit_exponential(dx[:, j]) for j in range(HIGH_DIM)]
    z_m = (np.array([f.m for f in fits]) - m) / (chi * np.sqrt(2.0 / n))
    z_chi = (np.array([f.chi for f in fits]) - chi) / (chi * np.sqrt(1.25 / n))
    bound = -ndtri(ALPHA / (2 * HIGH_DIM) / 2)
    assert np.abs(z_m).max() < bound and np.abs(z_chi).max() < bound
