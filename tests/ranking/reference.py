"""Reference implementations for the ranking kernels — the test oracle.

The induced m×m transition submatrix the focused rerank used to build per
query, and the two power-iteration loops as they stood before they shared
:func:`repro.ranking.pagerank.authority_step`, kept verbatim so the row
operator and the shared step can be checked ``==`` against them
(``tests/ranking/test_focused.py``, ``test_pagerank.py``, ``test_topk.py``,
``benchmarks/bench_two_stage.py --smoke``).  Nothing in ``src`` calls these.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.ranking.convergence import PowerIterationResult


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
