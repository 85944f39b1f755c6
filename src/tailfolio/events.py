"""Correlated event sampling through the copula.

A batch of n events over N channels takes n·N whitened draws dz, row by row,
from one deterministic normal stream of the seed, colors them by the Cholesky
factor (dy rows = dz rows times C'), and pushes each dy column through the
inverse marginal map to produce increments dx. The batch is a pure function
of (model, n, seed).

An EventBatch is that batch made on demand, in row blocks of about
_BLOCK_VALUES values. A run of its blocks is drawn from a stream started
at the run's first row (NormalStream's start), so each forked part of a
bulk command makes only the blocks it handles (modelfile.write_table,
modelfile.reduce_rows) and no process holds the (n, N) table;
sample_events fills one (n, N) array. Each block is drawn in place,
colored by one gemm call per chunk of about _GEMM_ROWS rows, and then
mapped one channel column after another. At 8 channels a chunk is 2^17
multiply-adds, which OpenBLAS runs on the calling thread (it threads a
gemm above 2^18 of them), so that two parts drawing at once do not wake
its worker threads against each other; from 12 channels on a chunk is
threaded, and past about 128 a block is one chunk.

The cuts of blocks and of the chunks within them depend on (n, N) alone,
and every cut but the last (n) is a multiple of 8 rows: OpenBLAS's
matrix-vector kernel (the product at N = 1, and risk's returns) takes rows
in groups of 4 and gives a row outside them other last bits, and on two
threads it splits its rows in half, so only 8-row cuts give every row the
bits of one product over the whole table. gemm keeps its bits for chunks
of 8 rows and more. dz and dy are rebuilt from the seed, bit for bit, as
dz = NormalStream(seed).draw(n * N).reshape(n, N) and
dy = dz @ model.correlation.cholesky.T; the tests check both products
across block and chunk boundaries.
"""

from __future__ import annotations

import numpy as np

from .copula import CopulaModel, from_gaussian
from .errors import OutOfDomain
from .rng import NormalStream

_BLOCK_VALUES = 1 << 18
_GEMM_ROWS = 2048       # rows per coloring call
_ALIGN = 8              # rows; every cut but the last is a multiple


def row_cuts(n: int, width: int, values: int) -> list[int]:
    """Row cuts from 0 to n of an (n, width) table: pieces of about values
    values, cut evenly in _ALIGN-row groups so that none is shorter than
    _ALIGN rows (unless n is)."""
    groups = n // _ALIGN
    pieces = max(1, min(groups, -(-n * width // values)))
    return [_ALIGN * (groups * i // pieces) for i in range(pieces)] + [n]


class EventBatch:
    """The batch sample_events(model, n, seed) returns, made on demand:
    block k holds rows [cuts[k], cuts[k + 1]) and is drawn only when read."""

    def __init__(self, model: CopulaModel, n: int, seed: int):
        n = int(n)
        if n < 0:
            raise OutOfDomain("n must be non-negative")
        self.model, self.seed = model, int(seed)
        self.shape = (n, model.dim)
        self.cuts = row_cuts(n, model.dim, _BLOCK_VALUES)

    def blocks(self, first: int = 0, last: int | None = None, out=None):
        """Yield (a, rows) for blocks first .. last - 1 (to the end when
        last is None), in order; rows holds the dx of rows [a, a + len(rows)).

        Each block is out[a:b] when out, a C-order (n, N) float array, is
        given; else it is one array, reused, so a block is valid only until
        the next one is made.
        """
        dim = self.shape[1]
        cuts = self.cuts[first:None if last is None else last + 1]
        normals = NormalStream(self.seed, start=cuts[0] * dim)
        cholesky_t = self.model.correlation.cholesky.T
        spans = list(zip(cuts, cuts[1:]))
        buf = None if out is not None else np.empty(
            (max((b - a for a, b in spans), default=0), dim))
        for a, b in spans:
            rows = out[a:b] if buf is None else buf[:b - a]
            normals.draw(rows.size, out=rows.reshape(-1))
            chunks = row_cuts(b - a, 1, _GEMM_ROWS)
            for c, d in zip(chunks, chunks[1:]):
                np.matmul(rows[c:d], cholesky_t, out=rows[c:d])
            for j, marginal in enumerate(self.model.marginals):
                rows[:, j] = from_gaussian(marginal, rows[:, j])
            yield a, rows


def sample_events(model: CopulaModel, n: int, seed: int) -> np.ndarray:
    """Draw n correlated events as the (n, N) increment array dx, fixed by
    (model, n, seed), made in place block by block."""
    batch = EventBatch(model, n, seed)
    dx = np.empty(batch.shape)
    for _ in batch.blocks(out=dx):
        pass
    return dx
