"""Correlated event sampling through the copula.

A batch of n events over N channels takes n·N whitened draws dz, row by row,
from one deterministic normal stream of the seed, colors them by the Cholesky
factor (dy rows = dz rows times C'), and pushes each dy column through the
inverse marginal map to produce increments dx. The batch is a pure function
of (model, n, seed). The per-channel maps are elementwise and run on up to
`lanes` threads, so the lane count never changes a byte. A batch keeps only
dx; dz and dy are recomputed from the seed when asked for.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .copula import CopulaModel, from_gaussian
from .errors import OutOfDomain
from .rng import NormalStream


@dataclass(frozen=True, eq=False)
class EventBatch:
    """One batch of sampled events with its provenance."""

    dx: np.ndarray            # increments per channel, shape (n, N)
    model: CopulaModel
    seed: int

    @property
    def n(self) -> int:
        return self.dx.shape[0]

    @property
    def channels(self) -> tuple[str, ...]:
        return self.model.channels

    @property
    def dz(self) -> np.ndarray:
        """Whitened draws, recomputed from the seed."""
        return _whitened(self.model, self.n, self.seed)

    @property
    def dy(self) -> np.ndarray:
        """Correlated normals dz @ C', recomputed from the seed."""
        return self.dz @ self.model.correlation.cholesky.T


def _whitened(model: CopulaModel, n: int, seed: int) -> np.ndarray:
    return NormalStream(seed).draw(n * model.dim).reshape(n, model.dim)


def sample_events(model: CopulaModel, n: int, seed: int, lanes: int = 1) -> EventBatch:
    """Draw n correlated events, fixed by (model, n, seed).

    lanes sets how many threads run the per-channel marginal maps; it never
    changes the batch.
    """
    n, lanes, seed = int(n), int(lanes), int(seed)
    if n < 0:
        raise OutOfDomain("n must be non-negative")
    if lanes < 1:
        raise OutOfDomain("lanes must be >= 1")
    dx = _whitened(model, n, seed) @ model.correlation.cholesky.T

    def to_marginal(j: int) -> None:
        dx[:, j] = from_gaussian(model.marginals[j], dx[:, j])

    with ThreadPoolExecutor(max_workers=min(lanes, model.dim)) as pool:
        list(pool.map(to_marginal, range(model.dim)))
    return EventBatch(dx=dx, model=model, seed=seed)
