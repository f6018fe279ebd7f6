"""ObjectRank [BHP04]: authority flow with an unweighted (0/1) base set.

The base set ``S(Q)`` of a keyword query is the set of nodes containing at
least one query keyword; the random surfer jumps back to a *uniformly* chosen
base-set node with probability ``1 - d``.  Section 6.1.1 of the paper compares
ObjectRank2 against a "slightly modified" multi-keyword ObjectRank that
combines per-keyword scores with a normalizing exponent (Equation 16); both
the per-keyword vectors and that combination live here.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import EmptyBaseSetError
from repro.graph.node_values import NodeValueView
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ranking.convergence import RankedResult
from repro.ranking.core import rank, weighted_restarts
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    Tolerance,
)


def keyword_objectranks(
    graph: AuthorityTransferDataGraph,
    index: InvertedIndex,
    keywords: Sequence[str],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> dict[str, RankedResult]:
    """Per-keyword ObjectRank for every keyword with a non-empty base set.

    The [BHP04]/[Hav02] precomputation core: one :func:`rank` call over the
    whole keyword family, one uniform restart column per keyword (the
    blocked engine advances them together).  Keywords that match no
    document are skipped (they have no authority vector), a repeated keyword
    is ranked once.  Every column starts at the uniform ``1/n``.

    The index lists a document once per term, so a keyword's base set is
    its documents' node indices, each weighted ``1/|S|`` — bit for bit the
    weight :func:`~repro.ranking.core.uniform_restarts` gives a set without
    repeats, without its per-column merge of repeated ids.
    """
    matched, bases = [], []
    for keyword in dict.fromkeys(keywords):
        documents = index.documents_with_term(keyword)
        if documents:
            nodes = graph.indices_of(documents)
            weights = np.full(nodes.size, 1.0 / nodes.size)
            matched.append(keyword)
            bases.append(NodeValueView(nodes, weights, graph.node_ids))
    results = rank(
        graph,
        weighted_restarts(graph, bases),
        Tolerance(tolerance),
        damping=damping,
        max_iterations=max_iterations,
    )
    return dict(zip(matched, results))


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
    per-keyword fixpoints come from one :func:`keyword_objectranks` call.
    """
    matched = list(
        keyword_objectranks(
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
        base_weights=graph.base_set(base_weights),
    )
