"""Blocked multi-restart power iteration (topic-sensitive-style batching).

Every precomputation family in this package — per-keyword [BHP04] vectors,
per-topic [Hav02] vectors, the per-keyword fixpoints of Equation 16 — runs
the *same* fixpoint

    r = d A r + (1 - d) s                                   (Equation 4 shape)

over the *same* CSR matrix, varying only the restart vector ``s``.  Running
them one at a time re-streams the matrix once per vector.  This module stacks
the ``k`` restart vectors into an ``(n, k)`` block ``S`` and iterates

    R <- d · A @ R + (1 - d) · S

so one pass over the matrix advances every column at once (the classic
blocked fixpoint of topic-sensitive PageRank precomputation).  Columns
converge independently: a converged column's scores are captured at its
convergence iteration and it leaves the residual check, then coasts in the
block until the chunk's last column converges.

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
outright.  When a C compiler is
available, each chunk step runs through a width-specialized compiled kernel
(:mod:`repro.ranking._native`) that keeps the per-row accumulators in
registers and fuses the residual sums into the matrix pass.

:func:`repro.ranking.core.rank` is the one caller: it runs a block of two or
more restart columns here and checks ``damping`` and ``max_iterations``
first.
"""

from __future__ import annotations

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

    ``scores`` is ``(n, k)`` — column ``j`` is the fixpoint of restart column
    ``j``.  ``iterations``/``converged`` are per-column, matching what the
    serial engine would have reported for that restart vector alone.

    After a chunked run the scores live in per-chunk slabs; :meth:`column`
    serves a column straight from its owning chunk (one copy) and the full
    ``(n, k)`` matrix is only assembled — once, lazily — if ``scores`` is
    actually read.  :func:`repro.ranking.core.rank`, which fans the block
    back out into per-column results, never pays for the big scatter.
    """

    def __init__(
        self,
        scores: np.ndarray | None,
        iterations: np.ndarray,
        converged: np.ndarray,
        residuals: list[list[float]],
        *,
        parts: list[tuple[int, np.ndarray]] | None = None,
        num_rows: int = 0,
    ) -> None:
        self.iterations = iterations
        self.converged = converged
        self.residuals = residuals
        self._scores = scores
        self._parts = parts  # [(first column id, (n, chunk) scores)]
        self._num_rows = int(scores.shape[0]) if scores is not None else num_rows

    @property
    def scores(self) -> np.ndarray:
        if self._scores is None:
            assembled = np.empty((self._num_rows, len(self.iterations)))
            for first, part in self._parts or []:
                assembled[:, first : first + part.shape[1]] = part
            self._scores = assembled
        return self._scores

    @property
    def num_columns(self) -> int:
        return len(self.iterations)

    def column(self, j: int) -> PowerIterationResult:
        """Column ``j`` repackaged as a serial-engine result."""
        scores = None
        if self._scores is None and self._parts is not None:
            for first, part in self._parts:
                if first <= j < first + part.shape[1]:
                    scores = np.ascontiguousarray(part[:, j - first])
                    break
        if scores is None:
            scores = np.ascontiguousarray(self.scores[:, j])
        return PowerIterationResult(
            scores=scores,
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
            residuals=list(self.residuals[j]) if self.residuals else [],
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


def _iterate_block(
    matrix: sparse.csr_matrix,
    restarts: np.ndarray,
    scores: np.ndarray | None,
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Run the blocked fixpoint on one ``(n, k)`` block.

    ``scores`` may be ``None`` for the default uniform ``1/n`` start — the
    chunk fills its own slab instead of the caller materializing a
    full-width init.
    Residuals for all columns come fused out of the kernel's matrix
    pass (or from one vectorized ``|new - old|`` pass on the scipy
    fallback); a live column whose fast residual lands inside
    ``_EXACT_CHECK_BAND`` of the tolerance is re-reduced over a contiguous
    copy — the serial engine's pairwise summation — so iteration counts
    match serial bit-for-bit.

    A converged column's scores are captured into ``out`` at its
    convergence iteration; the column then *coasts* in the block (its values
    keep refining harmlessly, out of the residual check) until the last
    column converges.  The block keeps its width: narrowing it as columns
    finish measured no faster (DESIGN §5).
    """
    n, k = restarts.shape
    requested = k
    padded = _padded_width(k) if _native.available() else k
    if padded != k:
        # Pad with copies of column 0 so the extra columns trace exactly the
        # same (already-sparse) iteration sequence as a real column instead
        # of adding new jump rows or a slow-converging straggler.
        extra = padded - k
        restarts = np.concatenate(
            [restarts, np.repeat(restarts[:, :1], extra, axis=1)], axis=1
        )
        if scores is not None:
            scores = np.concatenate(
                [scores, np.repeat(scores[:, :1], extra, axis=1)], axis=1
            )
        k = padded

    jump = (1.0 - damping) * restarts
    out = np.empty((n, k), dtype=np.float64)
    iterations = np.full(k, max_iterations, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]

    live = np.ones(k, dtype=bool)  # not yet converged
    block = np.empty((n, k))
    if scores is None:
        block.fill(1.0 / n if n else 0.0)
    else:
        block[:] = scores
    # Restart mass sits on a few base-set rows; the kernel takes the jump
    # term row-compacted so the mostly-zero dense slab is never streamed.
    jump_rows = np.flatnonzero(restarts.any(axis=1)).astype(np.int32)
    packed_jump = np.ascontiguousarray(jump[jump_rows])
    # Kernel result buffers, ping-ponged with `block`: a fresh multi-MB
    # allocation per step costs more in page faults than the step itself.
    spare: np.ndarray | None = None  # the kernel allocates it on step one
    resid_buf = np.empty(k)
    # Per-iteration (live mask, residuals); the per-column trace lists are
    # filled from this after the loop so the hot path stays vectorized
    # instead of appending k python floats per iteration.
    trace: list[tuple[np.ndarray, np.ndarray]] = []
    for iteration in range(1, max_iterations + 1):
        if not live.any():
            break
        step = _native.blocked_step(
            matrix, block, jump_rows, packed_jump, damping,
            out=spare, resid=resid_buf,
        )
        if step is not None:
            new_block, fast_residuals = step
            spare = block  # recycled as the next step's output buffer
        else:  # no compiled kernel: same score ops through scipy
            new_block = matrix @ block
            new_block *= damping
            new_block += jump
            delta = new_block - block
            np.abs(delta, out=delta)
            fast_residuals = delta.sum(axis=0)
        res = fast_residuals.copy()  # resid_buf is recycled next step
        near = np.abs(res - tolerance) <= _EXACT_CHECK_BAND * (res + tolerance)
        for col in np.flatnonzero(near & live):
            res[col] = np.abs(new_block[:, col] - block[:, col]).sum()
        trace.append((live.copy(), res))
        newly = np.flatnonzero(live & (res < tolerance))
        if newly.size:
            out[:, newly] = new_block[:, newly]
            live[newly] = False
            iterations[newly] = iteration
            converged[newly] = True
        block = new_block

    out[:, live] = block[:, live]
    for live_mask, res in trace:
        for col in np.flatnonzero(live_mask):
            residuals[col].append(float(res[col]))
    if k != requested:
        return (
            out[:, :requested],
            iterations[:requested],
            converged[:requested],
            residuals[:requested],
        )
    return out, iterations, converged, residuals


def batched_power_iteration(
    matrix: sparse.spmatrix,
    restarts: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> BatchedPowerIterationResult:
    """Iterate ``R <- d A R + (1 - d) S`` with per-column convergence.

    ``restarts`` is ``(n, k)`` — one restart distribution per column.
    ``init`` is one ``(n,)`` start broadcast to every column; the default
    is the serial engine's uniform ``1/n`` start.
    Columns are processed in chunks of :data:`DEFAULT_BLOCK_WIDTH` so the
    matrix and the working slab stay cache-resident; a converged column
    coasts in its chunk until the chunk's last column converges.

    Each column's scores and iteration count are identical to a serial
    :func:`~repro.ranking.pagerank.iterate` run with the same
    restart column and init; the residual trace matches to ``O(n·eps)``
    relative (see :data:`_EXACT_CHECK_BAND`).
    """
    restarts = np.asarray(restarts, dtype=np.float64)
    if restarts.ndim != 2:
        raise ValueError(f"restarts must be (n, k), got shape {restarts.shape}")
    n, k = restarts.shape
    if matrix.shape[0] != n:
        raise ValueError(
            f"matrix has {matrix.shape[0]} rows, restart block has {n}"
        )
    matrix = matrix.tocsr()

    if init is None:
        scores = None  # each chunk fills its own uniform 1/n slab
    else:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (n,):
            raise ValueError(f"init has shape {init.shape}, expected ({n},)")
        scores = np.repeat(init[:, None], k, axis=1)

    if k == 0:
        return BatchedPowerIterationResult(
            scores=np.empty((n, 0)),
            iterations=np.zeros(0, dtype=np.int64),
            converged=np.zeros(0, dtype=bool),
            residuals=[],
        )

    chunks = _column_chunks(k)
    if len(chunks) == 1:
        out, iterations, converged, residuals = _iterate_block(
            matrix, restarts, scores, damping, tolerance, max_iterations
        )
        return BatchedPowerIterationResult(out, iterations, converged, residuals)

    # Column independence makes any chunking exact: each chunk runs its own
    # blocked iteration, one after the other.
    iterations = np.empty(k, dtype=np.int64)
    converged = np.empty(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]
    score_parts: list[tuple[int, np.ndarray]] = []
    for columns in chunks:
        part_scores, part_iters, part_conv, part_res = _iterate_block(
            matrix,
            np.ascontiguousarray(restarts[:, columns]),
            None if scores is None else np.ascontiguousarray(scores[:, columns]),
            damping,
            tolerance,
            max_iterations,
        )
        iterations[columns] = part_iters
        converged[columns] = part_conv
        for local, col in enumerate(columns):
            residuals[col] = part_res[local]
        score_parts.append((int(columns[0]), part_scores))
    # Chunk scores stay in their slabs; the (n, k) matrix assembles lazily.
    return BatchedPowerIterationResult(
        None, iterations, converged, residuals, parts=score_parts, num_rows=n
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

