"""Correlated event sampling through the copula.

A batch of n events over N channels takes n·N whitened draws dz, row by row,
from one deterministic normal stream of the seed, colors them by the Cholesky
factor (dy rows = dz rows times C'), and pushes each dy column through the
inverse marginal map to produce increments dx. The batch is a pure function
of (model, n, seed). The per-channel maps are elementwise and run on up to
`lanes` threads, so the lane count never changes a byte.

The batch is built in place in one (n, N) array, in row blocks of about
_BLOCK_VALUES values cut evenly from (n, N) alone: each block's draws are
colored into its rows with one gemm call, then mapped. Only dx is returned.
dz and dy are rebuilt from the seed, bit for bit, as
dz = NormalStream(seed).draw(n * N).reshape(n, N) and
dy = dz @ model.correlation.cholesky.T.
The blocked product equals that one-call product on this build (the tests
check it across block boundaries); a BLAS whose gemm kernel changed its
bits with the row count would still give deterministic bytes for one
build, since the cuts depend on (n, N) alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .copula import CopulaModel, from_gaussian
from .errors import OutOfDomain
from .rng import NormalStream

_BLOCK_VALUES = 1 << 18


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
    dim = model.dim
    dx = np.empty((n, dim))
    blocks = max(1, -(-n * dim // _BLOCK_VALUES))
    cuts = [n * i // blocks for i in range(blocks + 1)]
    normals = NormalStream(seed)

    def to_marginal(rows: np.ndarray, j: int) -> None:
        rows[:, j] = from_gaussian(model.marginals[j], rows[:, j])

    with ThreadPoolExecutor(max_workers=min(lanes, dim)) as pool:
        for a, b in zip(cuts, cuts[1:]):
            rows = dx[a:b]
            np.matmul(normals.draw((b - a) * dim).reshape(b - a, dim),
                      model.correlation.cholesky.T, out=rows)
            list(pool.map(to_marginal, [rows] * dim, range(dim)))
    return dx
