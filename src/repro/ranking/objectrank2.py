"""ObjectRank2: authority flow with an IR-weighted base set (Section 3).

The single change relative to ObjectRank [BHP04] is the base-set vector ``s``
of Equation 4: instead of 0/1 entries, ``s_i = IRScore(v_i, Q)`` for base-set
nodes, normalized to sum to one ("since they represent probabilities").  The
random surfer therefore jumps preferentially to base-set nodes whose text
matches the weighted query vector best — which is also what lets reformulated
(expanded, reweighted) queries of Section 5 influence the ranking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import EmptyBaseSetError
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.accumulate import score_postings
from repro.ir.scoring import Scorer

if TYPE_CHECKING:  # avoid a circular import: repro.query depends on ranking
    from repro.query.query import QueryVector
from repro.ranking.convergence import RankedResult
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    power_iteration,
)


def normalized_base_weights(doc_ids: list[str], raw: np.ndarray) -> dict[str, float]:
    """Raw IR scores -> jump probabilities, in the order given (Equation 4).

    Scores that degenerate to zero (e.g. a term present in every document)
    are lifted to the smallest positive score, so the base set never silently
    shrinks below ``S(Q)``; then everything is divided by the total.  The
    total is builtin ``sum`` over the adjusted floats in order — the one
    reduction here whose order and algorithm (compensated from Python 3.12
    on) the floats depend on.  Returns ``{}`` when there is nothing to
    normalize.
    """
    positive = raw[raw > 0]
    floor = positive.min() if positive.size else 1.0
    adjusted = np.where(raw > 0, raw, floor)
    total = sum(adjusted.tolist())
    # Every adjusted weight is strictly positive, so with a non-empty base
    # set the sum is too; ``<= 0.0`` keeps the (theoretical) subnormal
    # underflow from dividing below, same guard as PrecomputedRanker.
    if total <= 0.0:
        return {}
    return dict(zip(doc_ids, (adjusted / total).tolist()))


def weighted_base_set(scorer: Scorer, query_vector: QueryVector) -> dict[str, float]:
    """The IR-weighted base set: node id -> normalized jump probability.

    Nodes enter the base set when they contain at least one positive-weight
    query term; each node's raw weight is ``IRScore(v, Q)`` (Equation 2),
    accumulated term-at-a-time over the index's postings columns
    (:func:`repro.ir.accumulate.score_postings`), and the weights are
    normalized to sum to one (:func:`normalized_base_weights`).  Keys are in
    ``S(Q)`` first-hit order.
    """
    scored = score_postings(scorer, query_vector.weights)
    base = normalized_base_weights(scored.doc_ids.tolist(), scored.scores)
    if not base:
        raise EmptyBaseSetError(tuple(query_vector.terms))
    return base


def objectrank2(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vector: QueryVector,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> RankedResult:
    """Compute ObjectRank2 scores for a weighted query vector (Equation 4).

    ``init`` warm-starts the power iteration with a previous score vector
    (Section 6.2); the benchmarks for Figures 14b-17b use it to reproduce the
    iteration-count drop for reformulated queries.
    """
    base = weighted_base_set(scorer, query_vector)
    outcome = power_iteration(
        graph.matrix(), graph.restart_vector(base), damping, tolerance,
        max_iterations, init,
    )
    return RankedResult(
        node_ids=graph.node_ids,
        scores=outcome.scores,
        iterations=outcome.iterations,
        converged=outcome.converged,
        base_weights=base,
        residuals=outcome.residuals,
    )
