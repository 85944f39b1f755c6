"""Correlated event sampling through the copula.

A batch of n events over N channels takes n·N whitened draws dz, row by row,
from one deterministic normal stream of the seed, colors them by the Cholesky
factor (dy rows = dz rows times C'), and pushes each dy column through the
inverse marginal map to produce increments dx. The batch is a pure function
of (model, n, seed).

The batch is made in row blocks of about _BLOCK_VALUES values by one
generator, row_blocks: each block's draws are colored into its rows with one
gemm call, then mapped in the calling thread, one channel column after
another. sample_events fills one (n, N) array from it; `risk` reduces each
block to its portfolio returns and never holds the table. The cuts depend
on (n, N) alone, and every cut but the last (n) is a multiple of 8 rows:
OpenBLAS's matrix-vector kernel takes rows in groups of 4 and gives a row
outside them other last bits, and on two threads it splits a block's rows
in half, so only 8-row blocks give every row the bits of one product over
the whole table. gemm keeps its bits for blocks of more than a few rows.
dz and dy are rebuilt from the seed, bit for bit, as
dz = NormalStream(seed).draw(n * N).reshape(n, N) and
dy = dz @ model.correlation.cholesky.T; the tests check both products
across block boundaries.
"""

from __future__ import annotations

import numpy as np

from .copula import CopulaModel, from_gaussian
from .errors import OutOfDomain
from .rng import NormalStream

_BLOCK_VALUES = 1 << 18
_ALIGN = 8      # rows; every cut but the last is a multiple


def _cuts(n: int, dim: int) -> list[int]:
    """Row cuts from 0 to n: blocks of about _BLOCK_VALUES values, cut
    evenly in _ALIGN-row groups so that no block is tiny."""
    groups = n // _ALIGN
    blocks = max(1, min(groups, -(-n * dim // _BLOCK_VALUES)))
    return [_ALIGN * (groups * i // blocks) for i in range(blocks)] + [n]


def row_blocks(model: CopulaModel, n: int, seed: int, out=None):
    """Yield (a, rows) for each row block [a, a + len(rows)) of the batch
    sample_events(model, n, seed) returns, in order; rows holds its dx.

    Each block is out[a:b] when out, an (n, N) float array, is given, else a
    new array of the block's rows.
    """
    n, seed = int(n), int(seed)
    if n < 0:
        raise OutOfDomain("n must be non-negative")
    dim = model.dim
    cuts = _cuts(n, dim)
    normals = NormalStream(seed)
    for a, b in zip(cuts, cuts[1:]):
        rows = np.empty((b - a, dim)) if out is None else out[a:b]
        np.matmul(normals.draw((b - a) * dim).reshape(b - a, dim),
                  model.correlation.cholesky.T, out=rows)
        for j, marginal in enumerate(model.marginals):
            rows[:, j] = from_gaussian(marginal, rows[:, j])
        yield a, rows


def sample_events(model: CopulaModel, n: int, seed: int) -> np.ndarray:
    """Draw n correlated events as the (n, N) increment array dx, fixed by
    (model, n, seed), filled in place from row_blocks."""
    dx = np.empty((max(int(n), 0), model.dim))     # row_blocks rejects n < 0
    for _ in row_blocks(model, n, seed, out=dx):
        pass
    return dx
