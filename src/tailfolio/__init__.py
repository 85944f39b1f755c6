"""Tail-risk portfolio engine over copula-joined indicator streams.

Two-tailed exponential marginals joined by a Gaussian copula feed event
sampling, tail-risk reporting, and position optimization by adaptive
simulated annealing; a regional EEG model supplies fitted indicator
streams for the same machinery.

Each public name is loaded on first access (PEP 562), so that importing a
submodule, as every command of tailfolio.cli does, loads no other layer.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_HOMES = {
    "anneal": ("AnnealConfig", "OptResult", "local_refine", "minimize"),
    "copula": ("CopulaModel", "CorrelationMatrix", "cholesky_lower",
               "estimate_correlation", "from_gaussian", "to_gaussian"),
    "eeg": ("ColumnParams", "Coupling", "ElectrodeSite", "FitResult", "RegionNet",
            "centering_check", "centering_shift", "fit_net", "innovation_stream",
            "joint_loglikelihood", "simulate"),
    "errors": ("EngineError",),
    "events": ("sample_events",),
    "indicators": ("MethodStream", "indicator_report", "stream_from_net"),
    "marginals": ("ExponentialMarginal", "fit_exponential"),
    "modelfile": (),
    "risk": ("ContractPortfolio", "LinearPortfolio", "PortfolioDistribution",
             "PositionOptimization", "RiskConfig", "RiskReport",
             "bhattacharyya_overlap", "expected_tail_loss", "fit_bins",
             "optimize_positions", "portfolio_returns", "q_analytic",
             "q_empirical", "returns_from_contracts", "risk_report"),
    "rng": (),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

# the public names: every name above, and every module but errors
__all__ = sorted(_HOME_OF.keys() | _HOMES.keys() - {"errors"})


def __getattr__(name):
    """A public name of __all__, loaded from its submodule on first access;
    importing a submodule binds it here as the import system does."""
    home = name if name in _HOMES else _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime reports, as it
    # does not report importlib.import_module
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if name == home:
        return module
    globals()[name] = value = getattr(module, name)
    return value
