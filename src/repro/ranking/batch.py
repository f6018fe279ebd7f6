"""Blocked multi-restart power iteration (topic-sensitive-style batching).

Every precomputation family in this package — per-keyword [BHP04] vectors,
per-topic [Hav02] vectors, the per-keyword fixpoints of Equation 16 — runs
the *same* fixpoint

    r = d A r + (1 - d) s                                   (Equation 4 shape)

over the *same* CSR matrix, varying only the restart vector ``s``.  Running
them one at a time re-streams the matrix once per vector.  This module takes
the ``k`` base sets (node indices and weights) behind an ``(n, k)`` restart
block ``S`` and iterates

    R <- d · A @ R + (1 - d) · S

so one pass over the matrix advances every column at once (the classic
blocked fixpoint of topic-sensitive PageRank precomputation).  ``S`` itself
is never laid out: its mass sits on the base-set rows, which each chunk packs
into a row-compacted jump term.  Columns
converge independently: a converged column's scores are captured at its
convergence iteration, copied out as its own contiguous array, and it leaves
the residual check, then coasts in the block until the chunk's last column
converges.

This is a performance change, not an approximation: per column, the blocked
engine performs bit-for-bit the same floating-point operations in the same
order as the single-vector loop :func:`repro.ranking.pagerank.iterate`
under a :class:`~repro.ranking.pagerank.Tolerance` stop — same scores, same
iteration counts.  (A CSR matrix–block product accumulates each output
column in the same nonzero order as the matrix–vector product, and a
convergence decision that falls near the tolerance is re-checked with the
serial engine's exact contiguous reduction, so every column converges on
exactly the serial iteration.)  Only the recorded residual *traces* are
computed in a different summation order (the kernel's sequential row-order
sum, or a vectorized axis-0 reduction on the scipy path, instead of the
serial pairwise sum) and may differ from the serial trace by a few ulps —
``O(n · eps)`` relative, far below any tolerance in use.

Columns are processed in cache-sized chunks (``DEFAULT_BLOCK_WIDTH`` = 32),
one after the other in this process, rather than one giant block: the CSR
matrix and a ~32-column slab stay resident in cache while a full-vocabulary
block would stream from DRAM every iteration and lose to the serial loop
outright.  Every chunk reuses the same two slabs, so a run holds its
output plus two ``n × 32`` slabs, however many columns it has.  When a C
compiler is
available, each chunk step runs through a width-specialized compiled kernel
(:mod:`repro.ranking._native`) that keeps the per-row accumulators in
registers and fuses the residual sums into the matrix pass.

:func:`repro.ranking.core.rank` is the one caller: it hands two or more base
sets here and checks ``damping`` and ``max_iterations`` first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.ranking import _native
from repro.ranking.convergence import PowerIterationResult
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)


class BatchedPowerIterationResult:
    """Per-column outcomes of one blocked power-iteration run.

    ``columns[j]`` is the fixpoint of base set ``j``, one contiguous ``(n,)``
    array handed out when its chunk ended (no chunk slab outlives its
    chunk).  ``iterations``/``converged`` are per-column, matching what the
    serial engine would have reported for that restart vector alone.
    """

    def __init__(
        self,
        columns: list[np.ndarray],
        iterations: np.ndarray,
        converged: np.ndarray,
        residuals: list[list[float]],
    ) -> None:
        self.columns = columns
        self.iterations = iterations
        self.converged = converged
        self.residuals = residuals

    @property
    def num_columns(self) -> int:
        return len(self.iterations)

    def column(self, j: int) -> PowerIterationResult:
        """Column ``j`` as a serial-engine result (its scores, not a copy)."""
        return PowerIterationResult(
            scores=self.columns[j],
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
            residuals=list(self.residuals[j]),
        )


#: Columns iterated together per chunk.  Sized so the CSR matrix plus a
#: working set (block, new block) of this width stays in cache on ordinary
#: hardware, and matching a register-specialized width of the compiled
#: kernel; wider blocks spill accumulators and stream from DRAM.
DEFAULT_BLOCK_WIDTH = 32

#: Relative safety band around the tolerance inside which a convergence
#: decision is re-checked with the serial engine's exact reduction.  The fast
#: axis-0 residual differs from the exact pairwise sum by at most ~``n·eps``
#: relative (≈1e-11 at a million nodes), five orders below this band, so a
#: decision taken outside the band provably agrees with the serial engine.
_EXACT_CHECK_BAND = 1e-6


def _padded_width(k: int) -> int:
    """Next specialized kernel width, when padding beats the generic body.

    The compiled kernel's runtime-width fallback is 1.2-1.8x slower per
    column than its unrolled widths (see :data:`_native.SPECIALIZED_WIDTHS`),
    so a near-miss chunk (e.g. the 29-column tail of a vocabulary) is
    cheaper to pad up to the next specialized width than to run as-is.
    Only pads within 25% extra work.
    """
    if k in _native.SPECIALIZED_WIDTHS:
        return k
    for width in _native.SPECIALIZED_WIDTHS:
        if k < width <= k * 1.25:
            return width
    return k


def _iterate_chunk(
    matrix: sparse.csr_matrix,
    bases: list[tuple[np.ndarray, np.ndarray]],
    width: int,
    slabs: tuple[np.ndarray, np.ndarray],
    init: np.ndarray | None,
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, list[list[float]]]:
    """Run the blocked fixpoint on one chunk of base sets, ``width`` wide.

    The chunk's block and the kernel's output ping-pong between the two
    flat ``slabs``, shared by every chunk of the run.  ``init`` may be
    ``None`` for the default uniform ``1/n`` start.
    Residuals for all columns come fused out of the kernel's matrix
    pass (or from one vectorized ``|new - old|`` pass on the scipy
    fallback); a live column whose fast residual lands inside
    ``_EXACT_CHECK_BAND`` of the tolerance is re-reduced over a contiguous
    copy — the serial engine's pairwise summation — so iteration counts
    match serial bit-for-bit.

    A converged column's scores are copied out, contiguous, at its
    convergence iteration; the column then *coasts* in the block (its values
    keep refining harmlessly, out of the residual check) until the last
    column converges.  The block keeps its width: narrowing it as columns
    finish measured no faster (DESIGN §5).
    """
    n = matrix.shape[0]
    k = len(bases)
    # Pad with copies of base set 0 so the extra columns trace exactly the
    # same (already-sparse) iteration sequence as a real column instead of
    # adding new jump rows or a slow-converging straggler.
    bases = bases + bases[:1] * (width - k)

    # Restart mass sits on a few base-set rows; the kernel takes the jump
    # term row-compacted, built straight from the base sets, so no dense
    # restart slab exists.  A row mask lists the rows, a row -> slot map
    # places every base set's weights in one scatter.
    rows = np.concatenate([nodes for nodes, _ in bases])
    cols = np.repeat(np.arange(width), [nodes.size for nodes, _ in bases])
    listed = np.zeros(n, dtype=bool)
    listed[rows] = True
    jump_rows = np.flatnonzero(listed).astype(np.int32)
    slot = np.empty(n, dtype=np.intp)
    slot[jump_rows] = np.arange(jump_rows.size)
    packed_jump = np.zeros((jump_rows.size, width))
    packed_jump[slot[rows], cols] = (1.0 - damping) * np.concatenate(
        [weights for _, weights in bases]
    )

    columns: list = [None] * k
    iterations = np.full(width, max_iterations, dtype=np.int64)
    converged = np.zeros(width, dtype=bool)

    live = np.ones(width, dtype=bool)  # not yet converged
    block, spare = (slab[: n * width].reshape(n, width) for slab in slabs)
    if init is None:
        block.fill(1.0 / n if n else 0.0)
    else:
        block[:] = init[:, None]
    step = _native.bind_blocked_step(matrix, (block, spare), jump_rows, packed_jump, damping)
    # Row i - 1 holds iteration i's residuals.  A column is live up to and
    # including the iteration it converges on, so its trace is the first
    # ``iterations[col]`` entries of its column: no per-iteration live mask.
    trace = np.empty((min(max_iterations, 64), width))
    for iteration in range(1, max_iterations + 1):
        if not live.any():
            break
        if iteration > trace.shape[0]:
            trace = np.concatenate((trace, np.empty_like(trace)))
        res = trace[iteration - 1]
        if step is not None:
            new_block, fast_residuals = step()
            res[:] = fast_residuals
        else:  # no compiled kernel: same score ops through scipy
            new_block = spare
            np.copyto(new_block, matrix @ block)  # kept in the slab, not a new block
            new_block *= damping
            new_block[jump_rows] += packed_jump
            delta = new_block - block
            np.abs(delta, out=delta)
            delta.sum(axis=0, out=res)
            spare = block  # recycled as the next step's output buffer
        near = np.abs(res - tolerance) <= _EXACT_CHECK_BAND * (res + tolerance)
        for col in np.flatnonzero(near & live):
            res[col] = np.abs(new_block[:, col] - block[:, col]).sum()
        newly = np.flatnonzero(live & (res < tolerance))
        for col in newly[newly < k]:
            columns[col] = new_block[:, col].copy()
        live[newly] = False
        iterations[newly] = iteration
        converged[newly] = True
        block = new_block

    for col in np.flatnonzero(live[:k]):
        columns[col] = block[:, col].copy()
    residuals = [trace[: iterations[col], col].tolist() for col in range(k)]
    return columns, iterations[:k], converged[:k], residuals


def _base_set(nodes, weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One base set as ``(node indices, float64 weights)``, its zero
    weights left out: a row carries jump mass only where a weight does."""
    nodes = np.asarray(nodes)
    weights = np.asarray(weights, dtype=np.float64)
    if nodes.ndim != 1 or nodes.shape != weights.shape:
        raise ValueError(
            f"a base set is two aligned 1-D arrays, got shapes "
            f"{nodes.shape} and {weights.shape}"
        )
    if nodes.size and (nodes.dtype.kind not in "iu" or nodes.min() < 0 or nodes.max() >= n):
        raise ValueError(f"base-set node indices must be integers in [0, {n})")
    listed = weights != 0
    if not listed.all():
        nodes, weights = nodes[listed], weights[listed]
    return nodes, weights


def batched_power_iteration(
    matrix: sparse.spmatrix,
    bases: Sequence[tuple[np.ndarray, np.ndarray]],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> BatchedPowerIterationResult:
    """Iterate ``R <- d A R + (1 - d) S`` with per-column convergence.

    ``bases`` holds one base set per column: ``(nodes, weights)``, node
    indices (each listed once) and the restart weights on them.  Column
    ``j`` of ``S`` is base set ``j``'s weights on its nodes and zero
    elsewhere; it is never laid out.
    ``init`` is one ``(n,)`` start broadcast to every column; the default
    is the serial engine's uniform ``1/n`` start.
    Columns are processed in chunks of :data:`DEFAULT_BLOCK_WIDTH` so the
    matrix and the working slab stay cache-resident; every chunk reuses the
    same two slabs, and a converged column coasts in its chunk until the
    chunk's last column converges.

    Each column's scores and iteration count are identical to a serial
    :func:`~repro.ranking.pagerank.iterate` run with the same
    restart column and init; the residual trace matches to ``O(n·eps)``
    relative (see :data:`_EXACT_CHECK_BAND`).
    """
    matrix = matrix.tocsr()
    n = matrix.shape[0]
    bases = [_base_set(nodes, weights, n) for nodes, weights in bases]
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (n,):
            raise ValueError(f"init has shape {init.shape}, expected ({n},)")

    # Column independence makes any chunking exact: each chunk runs its own
    # blocked iteration, one after the other.
    chunks = _column_chunks(len(bases))
    kernel = _native.available()
    widths = [_padded_width(len(chunk)) if kernel else len(chunk) for chunk in chunks]
    # The block and the kernel's result buffer, ping-ponged by every chunk: a
    # fresh multi-MB allocation per step (or per chunk) costs more in page
    # faults than the step itself, and it would hold a second slab per chunk.
    capacity = n * max(widths, default=0)
    slabs = (np.empty(capacity), np.empty(capacity))
    columns: list[np.ndarray] = []
    iterations = [np.zeros(0, dtype=np.int64)]
    converged = [np.zeros(0, dtype=bool)]
    residuals: list[list[float]] = []
    for chunk, width in zip(chunks, widths):
        part = _iterate_chunk(
            matrix, [bases[j] for j in chunk], width, slabs,
            init, damping, tolerance, max_iterations,
        )
        columns += part[0]
        iterations.append(part[1])
        converged.append(part[2])
        residuals += part[3]
    return BatchedPowerIterationResult(
        columns, np.concatenate(iterations), np.concatenate(converged), residuals
    )
def _column_chunks(k: int) -> list[np.ndarray]:
    """Split ``k`` column indices into cache-sized contiguous chunks.

    Every chunk except possibly the last is exactly
    :data:`DEFAULT_BLOCK_WIDTH` wide — full-width chunks hit the compiled
    kernel's width-specialized fast path, so the remainder is concentrated
    in one trailing chunk rather than spread across several slightly-narrow
    ones (``np.array_split`` balance).
    """
    width = DEFAULT_BLOCK_WIDTH
    return [np.arange(i, min(i + width, k)) for i in range(0, k, width)]

