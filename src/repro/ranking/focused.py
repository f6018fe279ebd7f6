"""Query-focused subgraph execution of ObjectRank2.

Section 6.2 lists "define focused subsets like DBLPtop and DS7cancer" as one
remedy for slow full-graph ObjectRank2; the related work cites the Hubs of
Knowledge project [SIY06], which "applies the PageRank algorithm on a
query-dependent subgraph of the original biological graph".  This module
implements that execution mode *per query*, with no offline subsetting:

1. expand the query's base set to its k-hop neighborhood (both edge
   directions, positive-rate edges only);
2. run the ObjectRank2 power iteration on the subgraph those nodes induce;
3. report scores for subgraph nodes (everything outside scores 0).

The approximation is good because authority decays geometrically with
distance from the base set (damping times per-edge rates < 1 per hop), so a
small horizon captures almost all the mass — the same locality that makes
the explaining subgraph's radius L=3 adequate.

No induced matrix is built.  What exists per topology is the transition
matrix (:meth:`AuthorityTransferDataGraph.matrix`); per query there is one
C-level gather of the neighborhood's rows, columns untouched, and a
full-length scratch vector that is exactly 0.0 outside the neighborhood
(:class:`RowOperator`).  A row's running sum then sees the induced
submatrix's products in the induced submatrix's order, plus ``rate * 0.0``
terms for the columns outside — and adding 0.0 cannot change a non-negative
float, so scores, residuals and iteration counts are bit for bit the induced
submatrix's (kept as the oracle in ``tests/ranking/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec, csr_row_index

from repro.errors import EmptyBaseSetError
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.scoring import Scorer
from repro.query.query import QueryVector
from repro.ranking.convergence import RankedResult
from repro.ranking.objectrank2 import weighted_base_set
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    power_iteration,
)
from repro.ranking.topk import topk_power_iteration

DEFAULT_HORIZON = 3


@dataclass
class FocusedResult:
    """A focused-execution ranking plus accounting about the subgraph."""

    ranked: RankedResult
    #: Sorted node indices of the subgraph; every score outside is exactly
    #: 0.0, so a page can be cut inside it (``select_top(..., support=)``).
    neighborhood: np.ndarray
    subgraph_edges: int
    horizon: int

    @property
    def subgraph_nodes(self) -> int:
        return int(self.neighborhood.size)

    @property
    def coverage(self) -> float:
        """Fraction of all graph nodes inside the focused subgraph."""
        total = len(self.ranked.node_ids)
        return self.subgraph_nodes / total if total else 0.0


def focused_neighborhood(
    graph: AuthorityTransferDataGraph,
    seed_indices: Iterable[int],
    horizon: int,
    expand_cap: int | None = None,
    node_budget: int | None = None,
    max_horizon: int | None = None,
) -> np.ndarray:
    """Node indices within ``horizon`` hops of the seeds (either direction),
    as a sorted array.

    Level-synchronous frontier expansion with vectorized incidence gathers
    (:meth:`AuthorityTransferDataGraph.out_edge_ids_many`): each hop costs
    numpy work proportional to the edges touched by the frontier, never a
    Python loop over nodes — what keeps focused and two-stage execution
    proportional to the answer neighborhood.

    ``expand_cap`` bounds which nodes the expansion passes *through*: a
    frontier node with transfer-edge degree above the cap is still included
    in the neighborhood, but its own neighbors are not enumerated.  On
    citation-style graphs a handful of hub nodes (years, venues) otherwise
    pull in a constant fraction of the corpus at hop 2, destroying the
    page-proportional cost the two-stage engine is built around; authority
    mass through such hubs is tiny anyway because their transfer rates are
    split over thousands of out-edges.  ``None`` (the default) expands
    everything — the exact semantics focused ObjectRank2 is specified with.

    ``node_budget`` with ``max_horizon`` makes the horizon *adaptively
    deeper*: the first ``horizon`` hops always run, then extra hops up to
    ``max_horizon`` run only while the neighborhood is still smaller than
    the budget.  Selective queries (a handful of seeds) then deepen for
    nearly free — shallow truncation is what biases their page — while hot
    queries whose base horizon already exceeds the budget never pay an
    extra hop.  The budget is soft: it is checked *between* hops, never
    mid-hop, so the last hop may overshoot it.  ``None`` keeps the
    fixed-horizon semantics.
    """
    visited = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.unique(np.asarray(list(seed_indices), dtype=np.int64))
    if frontier.size:
        visited[frontier] = True
    reached = int(frontier.size)
    degrees = graph.node_degrees() if expand_cap is not None else None
    deepen = node_budget is not None and max_horizon is not None
    total_hops = max(horizon, max_horizon) if deepen else horizon
    for hop in range(total_hops):
        if deepen and hop >= horizon and reached >= node_budget:
            break
        if degrees is not None and frontier.size:
            frontier = frontier[degrees[frontier] <= expand_cap]
        if frontier.size == 0:
            break
        out = graph.out_edge_ids_many(frontier)
        inc = graph.in_edge_ids_many(frontier)
        neighbors = np.concatenate(
            (
                graph.edge_target[out[graph.edge_rate[out] > 0]],
                graph.edge_source[inc[graph.edge_rate[inc] > 0]],
            )
        )
        # Deduplicate by scattering into a fresh mask instead of sorting the
        # (large, duplicate-heavy) neighbor array — O(nodes) beats O(E log E).
        fresh = np.zeros(graph.num_nodes, dtype=bool)
        fresh[neighbors] = True
        fresh &= ~visited
        visited |= fresh
        frontier = np.flatnonzero(fresh)
        reached += int(frontier.size)
    return np.flatnonzero(visited)


class RowOperator:
    """Rows ``nodes`` (sorted) of the square CSR ``matrix`` as an operator on
    vectors over ``nodes``: the induced submatrix's ``@``, floats included,
    without the submatrix (module docstring)."""

    def __init__(self, matrix: sparse.csr_matrix, nodes: np.ndarray) -> None:
        rows = nodes.astype(matrix.indptr.dtype, copy=False)
        self.nodes = nodes
        self.shape = (nodes.size, nodes.size)
        self.indptr = np.zeros(nodes.size + 1, dtype=rows.dtype)
        np.cumsum(matrix.indptr[rows + 1] - matrix.indptr[rows], out=self.indptr[1:])
        self.indices = np.empty(self.indptr[-1], dtype=rows.dtype)
        self.data = np.empty(self.indptr[-1])
        csr_row_index(
            nodes.size, rows, matrix.indptr, matrix.indices, matrix.data,
            self.indices, self.data,
        )
        self._scratch = np.zeros(matrix.shape[1])

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        # repro-lint: ignore[RL001] nodes is sorted-unique, no duplicate indices
        self._scratch[self.nodes] = vector
        product = np.zeros(self.nodes.size)
        csr_matvec(
            product.size, self._scratch.size, self.indptr, self.indices,
            self.data, self._scratch, product,
        )
        return product

    def edge_count(self) -> int:
        """The induced submatrix's ``nnz``: non-zero entries with both ends
        in ``nodes`` (parallel edges merged), in one mask pass."""
        inside = np.zeros(self._scratch.size, dtype=bool)
        # repro-lint: ignore[RL001] nodes is sorted-unique, no duplicate indices
        inside[self.nodes] = True
        return int(np.count_nonzero(inside.take(self.indices) & (self.data != 0)))


def induced_objectrank(
    graph: AuthorityTransferDataGraph,
    nodes: np.ndarray,
    base: dict[str, float],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    early_k: int | None = None,
) -> tuple[RankedResult, int]:
    """Run the ObjectRank2 fixpoint on the subgraph induced by ``nodes``
    (sorted indices): the ranking — full-length scores, exactly 0.0 outside
    ``nodes`` — and the subgraph's positive-rate entry count.

    ``base`` maps node ids (all inside ``nodes``) to restart weights.  This is
    the shared execution core of :func:`focused_objectrank2` and the two-stage
    engine's rerank stage — sharing it is what makes their degenerate configs
    bit-identical.  ``early_k`` switches the exact power iteration for the
    top-k-stability early exit of :func:`repro.ranking.topk.topk_power_iteration`;
    either loop iterates a :class:`RowOperator`.
    """
    operator = RowOperator(graph.matrix(), nodes)
    restart = graph.restart_vector(base)[nodes]
    if early_k is None:
        outcome = power_iteration(operator, restart, damping, tolerance, max_iterations)
    else:
        outcome = topk_power_iteration(
            operator, restart, early_k, damping, max_iterations=max_iterations
        )
    scores = np.zeros(graph.num_nodes)
    # repro-lint: ignore[RL001] nodes is sorted-unique, no duplicate indices
    scores[nodes] = outcome.scores
    ranked = RankedResult(
        node_ids=graph.node_ids,
        scores=scores,
        iterations=outcome.iterations,
        converged=outcome.converged,
        base_weights=base,
        residuals=outcome.residuals,
    )
    return ranked, operator.edge_count()


def focused_objectrank2(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vector: QueryVector,
    horizon: int = DEFAULT_HORIZON,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> FocusedResult:
    """ObjectRank2 restricted to the base set's ``horizon``-hop neighborhood.

    Returns full-length score vectors (zeros outside the subgraph) so results
    compose with everything else in the library.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    base = weighted_base_set(scorer, query_vector)
    if not base:
        raise EmptyBaseSetError(tuple(query_vector.terms))
    nodes = focused_neighborhood(graph, graph.indices_of(base), horizon)
    ranked, edge_count = induced_objectrank(
        graph, nodes, base, damping, tolerance, max_iterations
    )
    return FocusedResult(ranked, nodes, edge_count, horizon)
