"""Top-k ObjectRank2 with early termination.

The interactive system only ever shows the user the top-k objects, so the
power iteration can stop as soon as the *identity and order* of the top-k is
stable, well before the scores themselves converge to the tolerance — the
classic iterative-ranking optimization in the ObjectRank family.

The stopping rule: after each iteration, compare the top-k id sequence to the
previous iteration's; after ``stable_iterations`` consecutive identical
sequences (and a residual below a loose guard), stop.  The guard prevents
declaring stability during the first flat iterations of a cold start.
"""

from __future__ import annotations

import numpy as np

from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.scoring import Scorer
from repro.query.query import QueryVector
from repro.ranking.convergence import PowerIterationResult, RankedResult
from repro.ranking.objectrank2 import weighted_base_set
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    TransitionOperator,
    iterate,
    live_operator,
)


def topk_power_iteration(
    matrix: TransitionOperator,
    restart: np.ndarray,
    k: int,
    damping: float = DEFAULT_DAMPING,
    stable_iterations: int = 3,
    residual_guard: float = 0.05,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> PowerIterationResult:
    """Power iteration that stops once the top-``k`` id sequence is stable.

    The matrix-agnostic core of :func:`objectrank2_topk`, reused by the
    two-stage engine's rerank stage on the rows of its neighbourhood.
    ``converged`` means "top-k stable", not "residual below tolerance".
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if stable_iterations < 1:
        raise ValueError(f"stable_iterations must be positive, got {stable_iterations}")

    def top_ids(vector: np.ndarray) -> tuple[int, ...]:
        head = min(k, len(vector))
        if head == len(vector):
            candidates = np.arange(len(vector))
        else:
            # argpartition is O(n); only the k candidates need full sorting.
            candidates = np.argpartition(-vector, head - 1)[:head]
        order = candidates[np.argsort(-vector[candidates], kind="stable")]
        return tuple(int(i) for i in order)

    previous_top: tuple[int, ...] | None = None
    stable = 0

    def top_k_is_stable(scores: np.ndarray, residual: float) -> bool:
        nonlocal previous_top, stable
        if residual >= residual_guard:
            # Stability cannot count yet; skip the top-k extraction entirely
            # so the guard phase costs nothing beyond the matvec.
            previous_top, stable = None, 0
            return False
        current_top = top_ids(scores)
        stable = stable + 1 if current_top == previous_top else 0
        previous_top = current_top
        return stable >= stable_iterations

    return iterate(matrix, restart, damping, max_iterations, init, top_k_is_stable)


def objectrank2_topk(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vector: QueryVector,
    k: int = 10,
    damping: float = DEFAULT_DAMPING,
    stable_iterations: int = 3,
    residual_guard: float = 0.05,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> RankedResult:
    """ObjectRank2 that stops once the top-``k`` ranking is stable.

    Returns the same :class:`RankedResult` shape as exact ObjectRank2; the
    scores are the (slightly unconverged) iterates, which is fine for
    ranking but not for flow explanation — explain with exact scores.
    """
    base = weighted_base_set(scorer, query_vector)
    outcome = topk_power_iteration(
        live_operator(graph),
        graph.restart_vector(base),
        k,
        damping,
        stable_iterations,
        residual_guard,
        max_iterations,
        init,
    )
    return RankedResult(
        node_ids=graph.node_ids,
        scores=outcome.scores,
        iterations=outcome.iterations,
        converged=outcome.converged,
        base_weights=base,
        residuals=outcome.residuals,
    )
