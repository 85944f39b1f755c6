"""Tail-risk portfolio engine over copula-joined indicator streams.

Two-tailed exponential marginals joined by a Gaussian copula feed event
sampling, tail-risk reporting, and position optimization by adaptive
simulated annealing; a regional EEG model supplies fitted indicator
streams for the same machinery. Each public name is imported from the
module that defines it, so importing the package loads no layer.
"""

__version__ = "0.1.0"
