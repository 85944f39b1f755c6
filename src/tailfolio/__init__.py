"""Tail-risk portfolio engine over copula-joined indicator streams.

Two-tailed exponential marginals joined by a Gaussian copula feed event
sampling, tail-risk reporting, and position optimization by adaptive
simulated annealing; a regional EEG model supplies fitted indicator
streams for the same machinery.
"""

from . import anneal, copula, eeg, events, indicators, marginals, modelfile, risk, rng
from .anneal import AnnealConfig, OptResult, local_refine, minimize
from .copula import (CopulaModel, CorrelationMatrix, cholesky_lower, copula_density,
                     effective_action, estimate_correlation, from_gaussian,
                     identity_correlation, joint_density, to_gaussian,
                     transform_to_gaussian)
from .eeg import (ColumnParams, Coupling, ElectrodeSite, FitResult, RegionNet,
                  centering_check, centering_shift, fit_net, innovation_stream,
                  joint_loglikelihood, simulate, threshold_factor)
from .errors import EngineError
from .events import sample_events
from .indicators import MethodStream, indicator_report, stream_from_net, stream_from_values
from .marginals import ExponentialMarginal, fit_exponential
from .risk import (ContractPortfolio, LinearPortfolio, PortfolioDistribution,
                   PositionOptimization, RiskConfig, RiskReport,
                   bhattacharyya_overlap, expected_tail_loss, fit_bins,
                   implied_width, optimize_positions, portfolio_returns,
                   q_analytic, q_empirical, returns_from_contracts, risk_report)

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig", "ColumnParams", "ContractPortfolio", "CopulaModel",
    "CorrelationMatrix", "Coupling", "ElectrodeSite", "EngineError",
    "ExponentialMarginal", "FitResult", "LinearPortfolio",
    "MethodStream", "OptResult", "PortfolioDistribution",
    "PositionOptimization", "RegionNet", "RiskConfig", "RiskReport",
    "anneal", "bhattacharyya_overlap", "centering_check", "centering_shift",
    "cholesky_lower", "copula", "copula_density", "eeg", "effective_action",
    "estimate_correlation", "events", "expected_tail_loss", "fit_bins",
    "fit_exponential", "fit_net", "from_gaussian", "identity_correlation",
    "implied_width", "indicator_report", "indicators", "innovation_stream",
    "joint_density", "joint_loglikelihood", "local_refine", "marginals",
    "minimize", "modelfile", "optimize_positions", "portfolio_returns",
    "q_analytic", "q_empirical", "returns_from_contracts", "risk",
    "risk_report", "rng", "sample_events", "simulate", "stream_from_net",
    "stream_from_values", "threshold_factor", "to_gaussian",
    "transform_to_gaussian",
]
