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
converge independently: a converged column is *frozen* (its scores stop
changing and it leaves the residual check) and dropped from the active
block so late stragglers don't pay for finished columns.

This is a performance change, not an approximation: per column, the blocked
engine performs bit-for-bit the same floating-point operations in the same
order as :func:`repro.ranking.pagerank.power_iteration` — same scores, same
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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse

from repro.errors import EmptyBaseSetError
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ranking import _native
from repro.ir.scoring import Scorer
from repro.ranking.convergence import PowerIterationResult, RankedResult
from repro.ranking.objectrank2 import weighted_base_set
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    restart_distribution,
)

if TYPE_CHECKING:  # avoid a circular import: repro.query depends on ranking
    from repro.query.query import QueryVector


class BatchedPowerIterationResult:
    """Per-column outcomes of one blocked power-iteration run.

    ``scores`` is ``(n, k)`` — column ``j`` is the fixpoint of restart column
    ``j``.  ``iterations``/``converged`` are per-column, matching what the
    serial engine would have reported for that restart vector alone.

    After a chunked run the scores live in per-chunk slabs; :meth:`column`
    serves a column straight from its owning chunk (one copy) and the full
    ``(n, k)`` matrix is only assembled — once, lazily — if ``scores`` is
    actually read.  Consumers that fan the block back out into per-column
    results (every ranker in this module) never pay for the big scatter.
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

    The compiled kernel's runtime-width fallback runs at roughly half the
    per-column speed of its unrolled widths, so a near-miss chunk (e.g. the
    29-column tail of a vocabulary) is cheaper to pad up to the next
    specialized width than to run as-is.  Only pads within 25% extra work.
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
    Residuals for all active columns come fused out of the kernel's matrix
    pass (or from one vectorized ``|new - old|`` pass on the scipy
    fallback); a column whose fast residual lands inside
    ``_EXACT_CHECK_BAND`` of the tolerance is re-reduced over a contiguous
    copy — the serial engine's pairwise summation — so iteration counts
    match serial bit-for-bit.

    A converged column's scores are captured into ``out`` immediately; the
    column then *coasts* in the block (its values keep refining harmlessly)
    until amortized compaction drops it, instead of paying a block copy per
    convergence event or a masked write per iteration.
    """
    n, k = restarts.shape
    requested = k
    use_native = _native.available()
    padded = _padded_width(k) if use_native else k
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

    def alloc(shape: tuple[int, int]) -> np.ndarray:
        # Kernel slabs go on hugepage-backed memory (TLB relief); the scipy
        # path allocates its own outputs, so plain buffers suffice there.
        return _native.slab_empty(shape) if use_native else np.empty(shape)

    jump = (1.0 - damping) * restarts
    out = np.empty((n, k), dtype=np.float64)
    iterations = np.full(k, max_iterations, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]

    active = np.arange(k)  # original column ids still in the block
    live = np.ones(k, dtype=bool)  # not yet converged
    block = alloc((n, k))
    if scores is None:
        block.fill(1.0 / n if n else 0.0)
    else:
        block[:] = scores
    block_jump = jump
    # Restart mass sits on a few base-set rows; the kernel takes the jump
    # term row-compacted so the mostly-zero dense slab is never streamed.
    jump_rows = np.flatnonzero(restarts.any(axis=1)).astype(np.int32)
    packed_jump = np.ascontiguousarray(block_jump[jump_rows])
    # Kernel result buffers, ping-ponged with `block`: a fresh multi-MB
    # allocation per step costs more in page faults than the step itself.
    spare: np.ndarray | None = None
    resid_buf: np.ndarray | None = None
    # Per-iteration (active ids, live mask, residuals); the per-column trace
    # lists are filled from this after the loop so the hot path stays
    # vectorized instead of appending k python floats per iteration.
    trace: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for iteration in range(1, max_iterations + 1):
        if active.size == 0 or not live[active].any():
            break
        if spare is None or spare.shape != block.shape:
            spare = alloc(block.shape)
            resid_buf = np.empty(block.shape[1])
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
            new_block += block_jump
            delta = new_block - block
            np.abs(delta, out=delta)
            fast_residuals = delta.sum(axis=0)
        live_local = live[active]
        res = fast_residuals.copy()  # resid_buf is recycled next step
        near = np.abs(res - tolerance) <= _EXACT_CHECK_BAND * (res + tolerance)
        for local in np.flatnonzero(near & live_local):
            res[local] = np.abs(new_block[:, local] - block[:, local]).sum()
        trace.append((active, live_local, res))
        newly = np.flatnonzero(live_local & (res < tolerance))
        if newly.size:
            cols = active[newly]
            out[:, cols] = new_block[:, newly]
            live[cols] = False
            iterations[cols] = iteration
            converged[cols] = True
        block = new_block
        dead = ~live[active]
        if dead.any() and 4 * int(dead.sum()) >= active.size:
            keep = ~dead
            active = active[keep]
            narrowed = alloc((n, int(active.size)))
            narrowed[:] = block[:, keep]
            block = narrowed
            block_jump = np.ascontiguousarray(block_jump[:, keep])
            packed_jump = np.ascontiguousarray(block_jump[jump_rows])
            spare = None  # width changed; reallocated next step

    for local, col in enumerate(active):
        if not converged[col]:
            out[:, col] = block[:, local]
    for active_ids, live_mask, res in trace:
        for local in np.flatnonzero(live_mask):
            residuals[active_ids[local]].append(float(res[local]))
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
    ``init`` seeds every column (``(n,)`` broadcast, or ``(n, k)`` per
    column); the default is the serial engine's uniform ``1/n`` start.
    Columns are processed in chunks of :data:`DEFAULT_BLOCK_WIDTH` so the
    matrix and the working slab stay cache-resident; converged columns are
    dropped from a chunk's active block.

    Each column's scores and iteration count are identical to a serial
    :func:`~repro.ranking.pagerank.power_iteration` run with the same
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
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    matrix = matrix.tocsr()
    if _native.available():
        # The CSR streams are re-read every iteration of every chunk; one
        # upfront copy onto hugepage-backed arrays cuts TLB pressure for
        # the whole run (a few ms against seconds of iteration).
        matrix = _native.hugepage_csr(matrix)

    if init is None:
        scores = None  # each chunk fills its own uniform 1/n slab
    else:
        init = np.asarray(init, dtype=np.float64)
        if init.ndim == 1:
            if init.shape != (n,):
                raise ValueError(f"init has shape {init.shape}, expected ({n},)")
            scores = np.repeat(init[:, None], k, axis=1)
        elif init.shape == (n, k):
            scores = init.copy()
        else:
            raise ValueError(f"init has shape {init.shape}, expected ({n},) or ({n}, {k})")

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


# -- graph-level batched rankers --------------------------------------------


def batched_objectrank(
    graph: AuthorityTransferDataGraph,
    base_sets: Sequence[Sequence[str]],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> list[RankedResult]:
    """One :func:`~repro.ranking.objectrank.objectrank` per base set, blocked.

    All base sets share one CSR matrix and one blocked fixpoint; each
    returned :class:`RankedResult` is identical to the serial call for its
    base set (scores, iteration count, residuals, uniform base weights).
    ``init`` seeds the iteration (``(n,)`` broadcast or ``(n, k)`` per base
    set) — the Section 6.2 warm start for incremental re-convergence.
    """
    if not base_sets:
        return []
    n = graph.num_nodes
    # Built transposed (one contiguous row per base set) so each write is a
    # contiguous fill; the engine's per-chunk column slices then read
    # contiguous rows of this F-ordered view.
    transposed = np.empty((len(base_sets), n), dtype=np.float64)
    for j, base_nodes in enumerate(base_sets):
        if not base_nodes:
            raise EmptyBaseSetError(())
        transposed[j] = restart_distribution(n, graph.indices_of(list(base_nodes)))
    outcome = batched_power_iteration(
        graph.matrix(), transposed.T, damping, tolerance, max_iterations, init=init
    )
    results = []
    for j, base_nodes in enumerate(base_sets):
        column = outcome.column(j)
        uniform = 1.0 / len(base_nodes)  # repro-lint: ignore[RL015] every base set was rejected as EmptyBaseSetError in the build loop above
        results.append(
            RankedResult(
                node_ids=graph.node_ids,
                scores=column.scores,
                iterations=column.iterations,
                converged=column.converged,
                base_weights={node_id: uniform for node_id in base_nodes},
                residuals=column.residuals,
            )
        )
    return results


def batched_keyword_vectors(
    graph: AuthorityTransferDataGraph,
    index,
    keywords: Sequence[str],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: dict[str, np.ndarray] | None = None,
) -> dict[str, RankedResult]:
    """Per-keyword ObjectRank for every keyword with a non-empty base set.

    The [BHP04]/[Hav02] precomputation core: one blocked run over the whole
    keyword family instead of ``|keywords|`` serial fixpoints.  Keywords that
    match no document are skipped (they have no authority vector).  ``init``
    optionally maps keywords to ``(n,)`` warm-start vectors (incremental
    refresh seeds dirty columns with their previous fixpoints); keywords not
    in the map start at the default uniform ``1/n``, exactly as with no
    ``init`` at all.
    """
    matched = [
        (keyword, index.documents_with_term(keyword))
        for keyword in dict.fromkeys(keywords)
    ]
    matched = [(keyword, base) for keyword, base in matched if base]
    block_init: np.ndarray | None = None
    if init is not None and matched:
        n = graph.num_nodes
        # Explicit uniform fill for unmapped columns is bit-identical to the
        # engine's own default start (`block[:] = scores` writes the same
        # floats `block.fill(1/n)` would).
        block_init = np.full((n, len(matched)), 1.0 / n if n else 0.0)
        for j, (keyword, _) in enumerate(matched):
            seed = init.get(keyword)
            if seed is not None:
                block_init[:, j] = seed
    results = batched_objectrank(
        graph,
        [base for _, base in matched],
        damping,
        tolerance,
        max_iterations,
        init=block_init,
    )
    return {keyword: result for (keyword, _), result in zip(matched, results)}


def batched_objectrank2(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vectors: Sequence["QueryVector"],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> list[RankedResult]:
    """One :func:`~repro.ranking.objectrank2.objectrank2` per query, blocked.

    The repeated-evaluation workhorse: training and benchmarking loops that
    evaluate many query vectors against one rate setting (one matrix) get all
    their IR-weighted fixpoints from a single blocked run.  ``init`` is the
    shared warm-start vector (e.g. global ObjectRank scores, Section 6.2).
    """
    if not query_vectors:
        return []
    bases = [weighted_base_set(scorer, vector) for vector in query_vectors]
    n = graph.num_nodes
    restarts = np.zeros((n, len(bases)), dtype=np.float64)
    for j, base in enumerate(bases):
        restarts[:, j] = graph.restart_vector(base)
    outcome = batched_power_iteration(
        graph.matrix(), restarts, damping, tolerance, max_iterations, init=init
    )
    results = []
    for j, base in enumerate(bases):
        column = outcome.column(j)
        results.append(
            RankedResult(
                node_ids=graph.node_ids,
                scores=column.scores,
                iterations=column.iterations,
                converged=column.converged,
                base_weights=base,
                residuals=column.residuals,
            )
        )
    return results
