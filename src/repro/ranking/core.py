"""One ranking core: restarts, a stop rule and one ``rank`` call.

Section 3 of the paper: ObjectRank [BHP04], global ObjectRank and ObjectRank2
all compute the Equation 4 fixpoint ``r = d A r + (1 - d) s`` and differ only
in the base-set vector ``s``.  So every variant here is two steps:

1. a **restart builder** gives ``s`` for one or more base sets as each
   base set's node indices and weights (:class:`Restarts`), never as a
   dense block — :func:`uniform_restarts` (0/1 base sets of node ids),
   :func:`weighted_restarts` (base sets already on node indices: the
   IR-weighted ones of :func:`repro.ranking.objectrank2.weighted_base_set`,
   and the precompute's per-keyword 0/1 sets, which
   :func:`repro.ranking.objectrank.keyword_objectranks` reads off the
   index) and :func:`global_restarts` (every node);
2. :func:`rank` iterates every restart column under a stop rule — a value,
   :class:`~repro.ranking.pagerank.Tolerance` or
   :class:`~repro.ranking.topk.TopKStable` — and is the one place a
   :class:`RankedResult` is assembled.

``rank`` picks the loop from the number of base sets, which it can see: one
runs the single-vector loop (:func:`repro.ranking.pagerank.iterate`) on its
one dense restart column over the live operator, or on the gathered rows of
a ``support`` for the two-stage rerank; more go, as base sets, to the
blocked engine (:func:`repro.ranking.batch.batched_power_iteration`), which
lays out no restart block.  Per column both give
the same scores, iteration counts and convergence flags; only the recorded
residual traces of the blocked engine are summed in another order (a few
ulps, :mod:`repro.ranking.batch`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import EmptyBaseSetError, ParameterError
from repro.graph.node_values import NodeValueView
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ranking.batch import batched_power_iteration
from repro.ranking.convergence import RankedResult
from repro.ranking.focused import RowOperator
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    Tolerance,
    check_damping,
    check_max_iterations,
    iterate,
    live_operator,
)
from repro.ranking.topk import TopKStable


class Restarts(NamedTuple):
    """Each restart column's base set; the ``(n, k)`` block is never laid out."""

    #: Column ``j``'s non-zero entries, in base-set order: its node indices
    #: and weights (``nodes``, ``values_array``) seen as node id -> weight.
    base_weights: list[NodeValueView]


def uniform_restarts(
    graph: AuthorityTransferDataGraph, id_sets: Sequence[Sequence[str]]
) -> Restarts:
    """One uniform (0/1, normalized) restart column per set of node ids.

    A node id listed twice accumulates twice the weight (as ``np.add.at``
    would into a dense column, not fancy assignment, which would keep one)
    and keeps its first position, so the weights always sum to one.  An
    empty id set raises :class:`~repro.errors.EmptyBaseSetError`.
    """
    base_weights = []
    for ids in id_sets:
        if not ids:
            raise EmptyBaseSetError(())
        indices = graph.indices_of(ids)
        nodes, first, counts = np.unique(indices, return_index=True, return_counts=True)
        order = np.argsort(first)
        # Each weight is its count over the id total, the exact (integer)
        # sum a dense column of counts would have been divided by.
        weights = counts[order] / len(indices)
        base_weights.append(NodeValueView(nodes[order], weights, graph.node_ids))
    return Restarts(base_weights)


def weighted_restarts(
    graph: AuthorityTransferDataGraph, bases: Sequence[NodeValueView]
) -> Restarts:
    """One restart column per weighted base set on ``graph``'s nodes
    (already normalized: :func:`~repro.ranking.objectrank2.weighted_base_set`
    with the graph, or :meth:`~AuthorityTransferDataGraph.base_set` of a
    node id -> weight mapping).

    The base sets are the restarts, as they are.  An empty base set raises
    :class:`~repro.errors.EmptyBaseSetError`; one over another graph's
    nodes (or over index ordinals) a :class:`~repro.errors.ParameterError`.
    """
    for base in bases:
        if not base:
            raise EmptyBaseSetError(())
        if base.ids is not graph.node_ids:
            raise ParameterError(
                "a base set must be over this graph's node indices "
                "(weighted_base_set with the graph, or graph.base_set)"
            )
    return Restarts(list(bases))


def global_restarts(graph: AuthorityTransferDataGraph) -> Restarts:
    """The global (query-independent) restart: uniform over every node.

    Global ObjectRank is the warm-start seed for the very first user query
    (Section 6.2).
    """
    return uniform_restarts(graph, [graph.node_ids])


def rank(
    graph: AuthorityTransferDataGraph,
    restarts: Restarts,
    stop: Tolerance | TopKStable,
    *,
    damping: float = DEFAULT_DAMPING,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
    support: np.ndarray | None = None,
) -> list[RankedResult]:
    """The Equation 4 fixpoint of every restart column, one result each.

    ``stop`` ends each column's iteration; :class:`TopKStable` needs a
    single column.  ``damping`` must be in ``(0, 1)`` and ``max_iterations``
    at least 1 (:class:`~repro.errors.ParameterError` otherwise, under every
    stop).  ``init`` is one ``(n,)`` start shared by every column; the
    previous query's scores are the warm-start trick of Section 6.2, which
    cuts the iteration count for reformulated queries.

    ``support`` (sorted node indices, single column only) runs the fixpoint
    on the subgraph those nodes induce, through
    :class:`~repro.ranking.focused.RowOperator`: ``init`` is then over the
    support, and every score outside it is exactly 0.0.
    """
    check_damping(damping)
    check_max_iterations(max_iterations)
    bases = restarts.base_weights
    k = len(bases)
    if k == 1:
        restart = graph.restart_vector(bases[0])
        if support is None:
            operator = live_operator(graph)
        else:
            operator = RowOperator(graph.matrix(), support)
            restart = restart[support]
        outcome = iterate(operator, restart, damping, max_iterations, init, stop.rule())
        if support is not None:
            scores = np.zeros(graph.num_nodes)
            scores[support] = outcome.scores
            outcome.scores = scores
        outcomes = [outcome]
    elif support is not None or not isinstance(stop, Tolerance):
        raise ParameterError(
            f"a {type(stop).__name__} stop or a support needs one restart "
            f"column, got {k}"
        )
    elif k == 0:
        return []
    else:
        batch = batched_power_iteration(
            graph.matrix(),
            [(base.nodes, base.values_array) for base in bases],
            damping,
            stop.tolerance,
            max_iterations,
            init,
        )
        outcomes = [batch.column(j) for j in range(k)]
    return [
        RankedResult(
            node_ids=graph.node_ids,
            scores=outcome.scores,
            iterations=outcome.iterations,
            converged=outcome.converged,
            base_weights=weights,
            residuals=outcome.residuals,
        )
        for outcome, weights in zip(outcomes, bases)
    ]

