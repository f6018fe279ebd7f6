"""ObjectRank2: authority flow with an IR-weighted base set (Section 3).

The single change relative to ObjectRank [BHP04] is the base-set vector ``s``
of Equation 4: instead of 0/1 entries, ``s_i = IRScore(v_i, Q)`` for base-set
nodes, normalized to sum to one ("since they represent probabilities").  The
random surfer therefore jumps preferentially to base-set nodes whose text
matches the weighted query vector best — which is also what lets reformulated
(expanded, reweighted) queries of Section 5 influence the ranking.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import EmptyBaseSetError, ParameterError
from repro.fold import left_sum
from repro.graph.node_values import NodeValueView
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.accumulate import score_postings
from repro.ir.scoring import Scorer

if TYPE_CHECKING:  # avoid a circular import: repro.query depends on ranking
    from repro.query.query import QueryVector
from repro.ranking.convergence import RankedResult
from repro.ranking.core import rank, weighted_restarts
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    Tolerance,
)


def normalized_base_weights(raw: np.ndarray) -> np.ndarray:
    """Raw IR scores -> jump probabilities, in the order given (Equation 4).

    Scores that degenerate to zero (e.g. a term present in every document)
    are lifted to the smallest positive score, so the base set never silently
    shrinks below ``S(Q)``; then everything is divided by the total.  The
    total is one explicit left fold over the adjusted floats in order
    (:func:`~repro.fold.left_sum`), the same floats on every Python version.
    Returns an empty array when there is nothing to normalize, and raises
    :class:`ParameterError` when the total is not finite (query weights near
    the float limit overflow it, and every weight would divide to NaN or
    zero).
    """
    adjusted = raw
    if not (raw.size and raw.min() > 0):  # a score to lift, or none at all
        lifted = raw > 0
        floor = raw[lifted].min() if lifted.any() else 1.0
        adjusted = np.where(lifted, raw, floor)
    total = left_sum(adjusted)
    if not math.isfinite(total):
        raise ParameterError(
            f"the base-set weights sum to {total}: query weights too large"
        )
    # Every adjusted weight is strictly positive, so with a non-empty base
    # set the sum is too; ``<= 0.0`` keeps the (theoretical) subnormal
    # underflow from dividing below, same guard as PrecomputedRanker.
    if total <= 0.0:
        return np.zeros(0)
    return adjusted / total


def weighted_base_set(
    scorer: Scorer,
    query_vector: QueryVector,
    graph: AuthorityTransferDataGraph | None = None,
) -> NodeValueView:
    """The IR-weighted base set: node id -> normalized jump probability.

    Nodes enter the base set when they contain at least one positive-weight
    query term; each node's raw weight is ``IRScore(v, Q)`` (Equation 2),
    accumulated term-at-a-time over the index's postings columns
    (:func:`repro.ir.accumulate.score_postings`), and the weights are
    normalized to sum to one (:func:`normalized_base_weights`).  Keys are in
    ``S(Q)`` first-hit order.

    The mapping is a view over arrays: with ``graph``, over ``graph``'s node
    indices (what :func:`~repro.ranking.core.weighted_restarts` lays out),
    reached from the document ordinals by one gather
    (:meth:`~AuthorityTransferDataGraph.document_nodes`, which raises
    :class:`~repro.errors.UnknownNodeError` for a document with no node);
    without, over the index's document ordinals.
    """
    scored = score_postings(scorer, query_vector.weights)
    weights = normalized_base_weights(scored.scores)
    if not weights.size:
        raise EmptyBaseSetError(tuple(query_vector.terms))
    if graph is None:
        return NodeValueView(scored.ordinals, weights, scored.columns.doc_ids)
    return NodeValueView(
        graph.document_nodes(scored.columns, scored.ordinals), weights, graph.node_ids
    )


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
    return rank(
        graph,
        weighted_restarts(graph, [weighted_base_set(scorer, query_vector, graph)]),
        Tolerance(tolerance),
        damping=damping,
        max_iterations=max_iterations,
        init=init,
    )[0]
