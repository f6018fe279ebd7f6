"""Query-focused subgraph execution of ObjectRank2.

Section 6.2 lists "define focused subsets like DBLPtop and DS7cancer" as one
remedy for slow full-graph ObjectRank2; the related work cites the Hubs of
Knowledge project [SIY06], which "applies the PageRank algorithm on a
query-dependent subgraph of the original biological graph".  This module
implements that execution mode *per query*, with no offline subsetting:

1. expand the query's base set to its k-hop neighborhood (both edge
   directions, positive-rate edges only);
2. run the ObjectRank2 power iteration on the induced submatrix;
3. report scores for subgraph nodes (everything outside scores 0).

The approximation is good because authority decays geometrically with
distance from the base set (damping times per-edge rates < 1 per hop), so a
small horizon captures almost all the mass — the same locality that makes
the explaining subgraph's radius L=3 adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from repro.errors import EmptyBaseSetError
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.scoring import Scorer
from repro.query.query import QueryVector
from repro.ranking.convergence import PowerIterationResult, RankedResult
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
    subgraph_nodes: int
    subgraph_edges: int
    horizon: int

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


@dataclass
class InducedRun:
    """One ObjectRank2 power iteration over an induced subgraph."""

    outcome: PowerIterationResult
    #: Full-length score vector (zeros outside the subgraph).
    scores: np.ndarray
    #: Sorted node indices of the subgraph.
    nodes: np.ndarray
    #: Positive-rate transition entries inside (parallel edges merged).
    edge_count: int


def induced_transition_matrix(
    graph: AuthorityTransferDataGraph, nodes: np.ndarray
) -> tuple[sparse.csr_matrix, int]:
    """Transition submatrix induced by ``nodes`` (sorted node indices).

    Sliced out of the cached full transition matrix
    (:meth:`AuthorityTransferDataGraph.matrix`) by row/column selection, so
    the kept entries carry exactly the full matrix's floats (parallel edges
    already merged) and the build cost is C-level row gathering instead of a
    per-query COO sort.  Returns the matrix and its positive-rate entry
    count.
    """
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    # repro-lint: ignore[RL001] nodes is sorted-unique, no duplicate indices
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


def induced_objectrank(
    graph: AuthorityTransferDataGraph,
    nodes: np.ndarray,
    base: dict[str, float],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    early_k: int | None = None,
    stable_iterations: int = 3,
    residual_guard: float = 0.05,
) -> InducedRun:
    """Run the ObjectRank2 fixpoint on the subgraph induced by ``nodes``.

    ``base`` maps node ids (all inside ``nodes``) to restart weights.  This is
    the shared execution core of :func:`focused_objectrank2` and the two-stage
    engine's rerank stage — sharing it is what makes their degenerate configs
    bit-identical.  ``early_k`` switches the exact power iteration for the
    top-k-stability early exit of :func:`repro.ranking.topk.topk_power_iteration`.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    matrix, edge_count = induced_transition_matrix(graph, nodes)
    restart = graph.restart_vector(base)[nodes]
    if early_k is None:
        outcome = power_iteration(matrix, restart, damping, tolerance, max_iterations)
    else:
        outcome = topk_power_iteration(
            matrix, restart, early_k, damping,
            stable_iterations, residual_guard, max_iterations,
        )
    scores = np.zeros(graph.num_nodes)
    # repro-lint: ignore[RL001] nodes is sorted-unique, no duplicate indices
    scores[nodes] = outcome.scores
    return InducedRun(outcome, scores, nodes, edge_count)


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
    run = induced_objectrank(
        graph, np.asarray(nodes, dtype=np.int64), base,
        damping, tolerance, max_iterations,
    )
    ranked = RankedResult(
        node_ids=graph.node_ids,
        scores=run.scores,
        iterations=run.outcome.iterations,
        converged=run.outcome.converged,
        base_weights=base,
        residuals=run.outcome.residuals,
    )
    return FocusedResult(ranked, len(nodes), run.edge_count, horizon)
