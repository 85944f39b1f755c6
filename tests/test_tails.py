"""End-to-end tail check of sampled events: the counts beyond far quantiles
of a fixed-seed two-channel model against the model's own tail masses.

A marginal's mass beyond m + k chi_plus (or below m - k chi_minus) is
e^-k / 2, and the copula's joint upper-orthant mass beyond the quantiles of
mass p on both channels is the bivariate normal's P(Y1 > z, Y2 > z) with
z = -ndtri(p). Each count is held to a two-sided binomial test, with the
level split over every test made (Bonferroni).
"""

import numpy as np
from scipy.special import ndtri
from scipy.stats import binomtest, multivariate_normal

from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.events import sample_events
from tailfolio.marginals import ExponentialMarginal

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
