"""Correlated event sampling through the copula.

Whitened draws dz come from the deterministic normal stream, are colored by
the Cholesky factor (dy rows = dz rows times C'), and each dy column is pushed
through the inverse marginal map to produce increments dx. Batches are
reproducible bit for bit from (model, n, seed, lanes): lane j consumes stream
index j of the seed, and lanes run on a thread pool but are merged in lane
order, so the batch equals a serial loop's.
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

    dz: np.ndarray            # whitened draws, shape (n, N)
    dy: np.ndarray            # correlated normals, dz @ C'
    dx: np.ndarray            # increments per channel
    seed: int
    lanes: int
    channels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.dz.shape[0]

    def write_csv(self, path) -> None:
        from .modelfile import write_events_csv
        write_events_csv(path, self)


def _lane_chunk(model: CopulaModel, count: int, seed: int, lane: int):
    dim = model.dim
    dz = NormalStream(seed, stream=lane).draw(count * dim).reshape(count, dim)
    dy = dz @ model.correlation.cholesky.T
    dx = np.empty_like(dy)
    for j, marg in enumerate(model.marginals):
        dx[:, j] = from_gaussian(marg, dy[:, j])
    return dz, dy, dx


def sample_events(model: CopulaModel, n: int, seed: int, lanes: int = 1) -> EventBatch:
    """Draw n correlated events; identical output for any execution schedule."""
    n = int(n)
    lanes = int(lanes)
    if n < 0:
        raise OutOfDomain("n must be non-negative")
    if lanes < 1:
        raise OutOfDomain("lanes must be >= 1")
    if lanes == 1:
        dz, dy, dx = _lane_chunk(model, n, seed, 0)
    else:
        counts = [n // lanes + (1 if i < n % lanes else 0) for i in range(lanes)]
        with ThreadPoolExecutor(max_workers=min(lanes, 8)) as pool:
            parts = list(pool.map(
                lambda i: _lane_chunk(model, counts[i], seed, i), range(lanes)))
        dz, dy, dx = (np.concatenate(arrays, axis=0) for arrays in zip(*parts))
    return EventBatch(dz=dz, dy=dy, dx=dx, seed=int(seed), lanes=lanes,
                      channels=model.channels)
