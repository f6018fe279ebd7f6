"""ObjectRank [BHP04]: authority flow with an unweighted (0/1) base set.

The base set ``S(Q)`` of a keyword query is the set of nodes containing at
least one query keyword; the random surfer jumps back to a *uniformly* chosen
base-set node with probability ``1 - d``.  Section 6.1.1 of the paper compares
ObjectRank2 against a "slightly modified" multi-keyword ObjectRank that
combines per-keyword scores with a normalizing exponent (Equation 16); both
variants live here.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EmptyBaseSetError
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ranking.batch import batched_keyword_vectors
from repro.ranking.convergence import RankedResult
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    live_operator,
    personalized_pagerank,
    power_iteration,
)


def base_set(index: InvertedIndex, keywords: tuple[str, ...]) -> list[str]:
    """``S(Q)``: ids of nodes containing at least one query keyword."""
    return index.documents_with_any(keywords)


def objectrank(
    graph: AuthorityTransferDataGraph,
    base_nodes: list[str],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> RankedResult:
    """Query-specific ObjectRank with a uniform base set [BHP04]."""
    if not base_nodes:
        raise EmptyBaseSetError(())
    indices = graph.indices_of(base_nodes)
    outcome = personalized_pagerank(
        live_operator(graph), indices, None, damping, tolerance, max_iterations,
        init,
    )
    uniform = 1.0 / len(base_nodes)
    return RankedResult(
        node_ids=graph.node_ids,
        scores=outcome.scores,
        iterations=outcome.iterations,
        converged=outcome.converged,
        base_weights={node_id: uniform for node_id in base_nodes},
        residuals=outcome.residuals,
    )


def keyword_objectrank(
    graph: AuthorityTransferDataGraph,
    index: InvertedIndex,
    keyword: str,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> RankedResult:
    """ObjectRank for a single keyword: base set = nodes containing it."""
    nodes = index.documents_with_term(keyword)
    if not nodes:
        raise EmptyBaseSetError((keyword,))
    return objectrank(graph, nodes, damping, tolerance, max_iterations, init)


def global_objectrank(
    graph: AuthorityTransferDataGraph,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> RankedResult:
    """Global (query-independent) ObjectRank: base set = all nodes.

    Used as the warm-start seed for the very first user query (Section 6.2).
    """
    n = graph.num_nodes
    restart = np.full(n, 1.0 / n)
    outcome = power_iteration(
        live_operator(graph), restart, damping, tolerance, max_iterations
    )
    return RankedResult(
        node_ids=graph.node_ids,
        scores=outcome.scores,
        iterations=outcome.iterations,
        converged=outcome.converged,
        residuals=outcome.residuals,
    )


def normalizing_exponent(base_set_size: int) -> float:
    """``g(t) = 1 / log(|S(t)|)`` of Equation 16 (clamped for tiny base sets).

    The exponent damps the skew of popular keywords: a keyword matched by many
    objects gets a small exponent, so it cannot dominate the product.  For
    ``|S(t)| <= e`` the raw formula would blow up (or divide by zero), so the
    exponent is clamped at 1.
    """
    if base_set_size <= 0:
        raise ValueError("base set size must be positive")
    log_size = math.log(base_set_size)
    if log_size <= 1.0:
        return 1.0
    return 1.0 / log_size


def multi_keyword_objectrank(
    graph: AuthorityTransferDataGraph,
    index: InvertedIndex,
    keywords: tuple[str, ...],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> RankedResult:
    """Modified multi-keyword ObjectRank of Equation 16.

    Per-keyword ObjectRanks are combined multiplicatively, each raised to the
    normalizing exponent ``g(t_i)``; this is the ObjectRank side of the
    Table 2 comparison.  Keywords that match nothing are skipped (matching the
    OR semantics of the base set); if none match, the base set is empty.  The
    per-keyword fixpoints share one blocked run over the CSR matrix
    (:mod:`repro.ranking.batch`) instead of one serial iteration each.
    """
    matched = list(
        batched_keyword_vectors(
            graph, index, keywords, damping, tolerance, max_iterations
        ).items()
    )
    if not matched:
        raise EmptyBaseSetError(tuple(keywords))

    combined = np.ones(graph.num_nodes)
    iterations = 0
    converged = True
    base_weights: dict[str, float] = {}
    for keyword, result in matched:
        exponent = normalizing_exponent(len(result.base_weights))
        combined *= np.power(result.scores, exponent)
        iterations += result.iterations
        converged = converged and result.converged
        for node_id, weight in result.base_weights.items():
            base_weights[node_id] = base_weights.get(node_id, 0.0) + weight

    total = combined.sum()
    if total > 0:
        combined = combined / total
    return RankedResult(
        node_ids=graph.node_ids,
        scores=combined,
        iterations=iterations,
        converged=converged,
        base_weights=base_weights,
    )
