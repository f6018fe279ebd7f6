"""Reference implementations for the ranking kernels — the test oracle.

The induced m×m transition submatrix the focused rerank used to build per
query, and the two power-iteration loops as they stood before they shared
one loop, :func:`repro.ranking.pagerank.iterate`, kept verbatim so the row
operator and the shared loop can be checked ``==`` against them
(``tests/ranking/test_focused.py``, ``test_pagerank.py``, ``test_topk.py``,
``tests/properties/test_sell_properties.py``,
``tests/properties/test_retrieval_properties.py``).  Focused ObjectRank2 —
the degenerate two-stage configuration, every document of ``S(Q)`` a
candidate — is kept here as the function the two-stage engine must
collapse onto, and uniform-base-set ObjectRank as the ranking the
explanation and reformulation properties start from.  The blocked engine as
it stood over a dense ``(n, k)`` restart block, with the dense uniform
builder that fed it, is the oracle of the base-set engine
(``tests/ranking/test_batch.py``).  Nothing in ``src`` calls these.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import EmptyBaseSetError
from repro.ranking import (
    Tolerance,
    rank,
    uniform_restarts,
    weighted_base_set,
    weighted_restarts,
)
from repro.ranking import _native
from repro.ranking.batch import DEFAULT_BLOCK_WIDTH, _EXACT_CHECK_BAND, _padded_width
from repro.ranking.convergence import PowerIterationResult
from repro.ranking.focused import FocusedResult, RowOperator, focused_neighborhood


def induced_transition_matrix(graph, nodes: np.ndarray) -> tuple[sparse.csr_matrix, int]:
    """Transition submatrix induced by ``nodes`` (sorted node indices).

    Sliced out of the full transition matrix by row/column selection, so the
    kept entries carry exactly the full matrix's floats (parallel edges
    already merged).  Returns the matrix and its positive-rate entry count.
    """
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.size, dtype=np.int64)
    full = graph.matrix()
    starts = full.indptr[nodes]
    counts = full.indptr[nodes + 1] - starts
    total = int(counts.sum())
    # Flat positions of the selected rows' entries: for entry j of row r the
    # position is starts[r] + j, built without any Python-level loop.
    row_offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    flat = np.repeat(starts - row_offsets, counts) + np.arange(total)
    columns = local[full.indices[flat]]
    values = full.data[flat]
    keep = (columns >= 0) & (values != 0)
    rows = np.repeat(np.arange(nodes.size), counts)[keep]
    row_counts = np.bincount(rows, minlength=nodes.size)
    indptr = np.concatenate(([0], np.cumsum(row_counts)))
    matrix = sparse.csr_matrix(
        (values[keep], columns[keep], indptr), shape=(nodes.size, nodes.size)
    )
    return matrix, int(matrix.nnz)


def reference_power_iteration(
    matrix, restart, damping=0.85, tolerance=0.0001, max_iterations=500, init=None
) -> PowerIterationResult:
    """``power_iteration`` with its own inline step."""
    n = matrix.shape[0]
    scores = np.full(n, 1.0 / n) if init is None else np.asarray(init, dtype=np.float64).copy()
    jump = (1.0 - damping) * restart
    matrix = matrix.tocsr()

    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_scores = damping * (matrix @ scores) + jump
        residual = float(np.abs(new_scores - scores).sum())
        residuals.append(residual)
        scores = new_scores
        if residual < tolerance:
            converged = True
            break
    return PowerIterationResult(scores, iterations, converged, residuals)


def reference_topk_power_iteration(
    matrix, restart, k, damping=0.85, stable_iterations=3, residual_guard=0.05,
    max_iterations=500, init=None,
) -> PowerIterationResult:
    """``topk_power_iteration`` with its own inline step."""
    n = matrix.shape[0]
    jump = (1.0 - damping) * restart
    scores = (
        np.full(n, 1.0 / max(n, 1))
        if init is None
        else np.asarray(init, dtype=np.float64).copy()
    )

    def top_ids(vector: np.ndarray) -> tuple[int, ...]:
        head = min(k, len(vector))
        if head == len(vector):
            candidates = np.arange(len(vector))
        else:
            candidates = np.argpartition(-vector, head - 1)[:head]
        order = candidates[np.argsort(-vector[candidates], kind="stable")]
        return tuple(int(i) for i in order)

    previous_top: tuple[int, ...] | None = None
    stable = 0
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_scores = damping * (matrix @ scores) + jump
        residual = float(np.abs(new_scores - scores).sum())
        residuals.append(residual)
        scores = new_scores
        if residual >= residual_guard:
            stable = 0
            previous_top = None
            continue
        current_top = top_ids(scores)
        if current_top == previous_top:
            stable += 1
            if stable >= stable_iterations:
                converged = True
                break
        else:
            stable = 0
        previous_top = current_top

    return PowerIterationResult(scores, iterations, converged, residuals)


def reference_induced_objectrank(
    graph, nodes, base, damping=0.85, tolerance=0.0001, max_iterations=500,
    early_k=None, stable_iterations=3, residual_guard=0.05,
) -> tuple[PowerIterationResult, int]:
    """``induced_objectrank`` over the built submatrix: the outcome (scores
    over ``nodes``) and the subgraph's edge count."""
    nodes = np.asarray(nodes, dtype=np.int64)
    matrix, edge_count = induced_transition_matrix(graph, nodes)
    restart = graph.restart_vector(base)[nodes]
    if early_k is None:
        outcome = reference_power_iteration(
            matrix, restart, damping, tolerance, max_iterations
        )
    else:
        outcome = reference_topk_power_iteration(
            matrix, restart, early_k, damping,
            stable_iterations, residual_guard, max_iterations,
        )
    return outcome, edge_count


def objectrank(graph, base_nodes, damping=0.85, tolerance=0.0001, init=None):
    """ObjectRank [BHP04] over a uniform base set: one builder, one ``rank``."""
    (ranked,) = rank(
        graph, uniform_restarts(graph, [base_nodes]), Tolerance(tolerance),
        damping=damping, init=init,
    )
    return ranked


def focused_objectrank2(
    graph, scorer, query_vector, horizon=3, damping=0.85, tolerance=0.0001,
    max_iterations=500,
) -> FocusedResult:
    """ObjectRank2 restricted to the base set's ``horizon``-hop neighborhood:
    full-length scores, exactly 0.0 outside the subgraph."""
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    base = weighted_base_set(scorer, query_vector, graph)
    if not base:
        raise EmptyBaseSetError(tuple(query_vector.terms))
    nodes = focused_neighborhood(graph, graph.indices_of(base), horizon)
    (ranked,) = rank(
        graph, weighted_restarts(graph, [base]), Tolerance(tolerance),
        damping=damping, max_iterations=max_iterations, support=nodes,
    )
    edge_count = RowOperator(graph.matrix(), nodes).edge_count()
    return FocusedResult(ranked, nodes, edge_count, horizon)


def column_base_sets(block: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each column of a dense ``(n, k)`` restart block as the base set the
    blocked engine takes: its non-zero rows and their weights."""
    block = np.asarray(block, dtype=np.float64)
    columns = []
    for j in range(block.shape[1]):
        nodes = np.flatnonzero(block[:, j])
        columns.append((nodes, block[nodes, j]))
    return columns


def dense_uniform_restarts(graph, id_sets) -> np.ndarray:
    """The ``(n, k)`` block ``uniform_restarts`` laid out when a restart
    carried a dense block: one ``np.add.at`` column per id set."""
    transposed = np.zeros((len(id_sets), graph.num_nodes))
    for row, ids in zip(transposed, id_sets):
        if not ids:
            raise EmptyBaseSetError(())
        np.add.at(row, graph.indices_of(ids), 1.0)
        row /= row.sum()
    return transposed.T


def dense_batched_power_iteration(
    matrix, restarts, damping=0.85, tolerance=0.0001, max_iterations=500, init=None
) -> list[PowerIterationResult]:
    """The blocked engine over a dense ``(n, k)`` restart block, one result
    per column: chunks of ``DEFAULT_BLOCK_WIDTH`` columns, each padded, run
    and kept whole until its columns are read."""
    restarts = np.asarray(restarts, dtype=np.float64)
    n, k = restarts.shape
    matrix = matrix.tocsr()
    scores = None if init is None else np.repeat(np.asarray(init)[:, None], k, axis=1)
    results = []
    for first in range(0, k, DEFAULT_BLOCK_WIDTH):
        columns = np.arange(first, min(first + DEFAULT_BLOCK_WIDTH, k))
        out, iterations, converged, residuals = _dense_iterate_block(
            matrix,
            np.ascontiguousarray(restarts[:, columns]),
            None if scores is None else np.ascontiguousarray(scores[:, columns]),
            damping,
            tolerance,
            max_iterations,
        )
        results.extend(
            PowerIterationResult(
                np.ascontiguousarray(out[:, j]),
                int(iterations[j]),
                bool(converged[j]),
                residuals[j],
            )
            for j in range(len(columns))
        )
    return results


def _dense_iterate_block(matrix, restarts, scores, damping, tolerance, max_iterations):
    """One chunk of :func:`dense_batched_power_iteration`."""
    n, k = restarts.shape
    requested = k
    padded = _padded_width(k) if _native.available() else k
    if padded != k:
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

    live = np.ones(k, dtype=bool)
    block = np.empty((n, k))
    if scores is None:
        block.fill(1.0 / n if n else 0.0)
    else:
        block[:] = scores
    jump_rows = np.flatnonzero(restarts.any(axis=1)).astype(np.int32)
    packed_jump = np.ascontiguousarray(jump[jump_rows])
    spare = None
    resid_buf = np.empty(k)
    trace = []
    for iteration in range(1, max_iterations + 1):
        if not live.any():
            break
        step = _native.blocked_step(
            matrix, block, jump_rows, packed_jump, damping,
            out=spare, resid=resid_buf,
        )
        if step is not None:
            new_block, fast_residuals = step
            spare = block
        else:
            new_block = matrix @ block
            new_block *= damping
            new_block += jump
            delta = new_block - block
            np.abs(delta, out=delta)
            fast_residuals = delta.sum(axis=0)
        res = fast_residuals.copy()
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
    return (
        out[:, :requested],
        iterations[:requested],
        converged[:requested],
        residuals[:requested],
    )
