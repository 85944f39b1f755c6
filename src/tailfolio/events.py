"""Correlated event sampling through the copula.

A batch of n events over N channels takes n·N whitened draws dz, row by row,
from one deterministic normal stream of the seed, colors them by the Cholesky
factor (dy rows = dz rows times C'), and pushes each dy column through the
inverse marginal map to produce increments dx. The batch is a pure function
of (model, n, seed). The per-channel maps are elementwise and run on up to
`lanes` threads, so the lane count never changes a byte.

Only dx is returned. dz and dy are rebuilt from the seed, bit for bit, as
dz = NormalStream(seed).draw(n * N).reshape(n, N) and
dy = dz @ model.correlation.cholesky.T.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .copula import CopulaModel, from_gaussian
from .errors import OutOfDomain
from .rng import NormalStream


def sample_events(model: CopulaModel, n: int, seed: int, lanes: int = 1) -> np.ndarray:
    """Draw n correlated events as the (n, N) increment array dx, fixed by
    (model, n, seed).

    lanes sets how many threads run the per-channel marginal maps; it never
    changes the result.
    """
    n, lanes, seed = int(n), int(lanes), int(seed)
    if n < 0:
        raise OutOfDomain("n must be non-negative")
    if lanes < 1:
        raise OutOfDomain("lanes must be >= 1")
    # the whitened draws stay a temporary, freed before the marginal maps
    dx = (NormalStream(seed).draw(n * model.dim).reshape(n, model.dim)
          @ model.correlation.cholesky.T)

    def to_marginal(j: int) -> None:
        dx[:, j] = from_gaussian(model.marginals[j], dx[:, j])

    with ThreadPoolExecutor(max_workers=min(lanes, model.dim)) as pool:
        list(pool.map(to_marginal, range(model.dim)))
    return dx
