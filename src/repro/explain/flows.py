"""Original (unadjusted) authority flows on edges (Section 4, Equation 5).

At the convergence state of ObjectRank2 for query ``Q``, the authority flow
on an edge ``v_i -> v_j`` of the authority transfer data graph is

    Flow_0(v_i -> v_j) = d * alpha(v_i -> v_j) * r^Q(v_i)       (Equation 5)

i.e. the damped share of ``v_i``'s converged score that the edge's transfer
rate sends onward.  The flow-adjustment stage of :mod:`repro.explain.adjustment`
then reduces these flows to the part that eventually reaches the target.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.transfer_graph import AuthorityTransferDataGraph

if TYPE_CHECKING:  # subgraph imports nothing from here; annotation only
    from repro.explain.subgraph import ExplainingSubgraph


def original_edge_flows(
    graph: AuthorityTransferDataGraph,
    scores: np.ndarray,
    damping: float,
    edge_ids: np.ndarray | None = None,
) -> np.ndarray:
    """``Flow_0`` for the given transfer edges (default: all edges).

    ``scores`` is the converged ObjectRank2 vector ``r^Q`` over all nodes.
    """
    if edge_ids is None:
        edge_ids = np.arange(graph.num_edges, dtype=np.int64)
    sources = graph.edge_source[edge_ids]
    return damping * graph.edge_rate[edge_ids] * scores[sources]


def node_outgoing_flow(
    graph: AuthorityTransferDataGraph,
    edge_ids: np.ndarray,
    flows: np.ndarray,
) -> np.ndarray:
    """Sum of ``flows`` grouped by edge source, over all graph nodes."""
    totals = np.zeros(graph.num_nodes)
    np.add.at(totals, graph.edge_source[edge_ids], flows)
    return totals


def node_incoming_flow(
    graph: AuthorityTransferDataGraph,
    edge_ids: np.ndarray,
    flows: np.ndarray,
) -> np.ndarray:
    """Sum of ``flows`` grouped by edge target, over all graph nodes."""
    totals = np.zeros(graph.num_nodes)
    np.add.at(totals, graph.edge_target[edge_ids], flows)
    return totals


def local_node_outgoing_flow(
    subgraph: "ExplainingSubgraph", flows: np.ndarray
) -> np.ndarray:
    """Per-node outgoing flow over *subgraph-local* indices.

    Aligned with ``subgraph.nodes``; allocates ``num_local`` floats instead of
    a dense ``graph.num_nodes`` array, which matters when content
    reformulation aggregates a small explanation per feedback object over a
    large graph.  ``np.bincount`` adds each node's flows in edge order from
    0.0, so totals are bit-identical to a sequential per-edge sum.
    """
    return np.bincount(
        subgraph.edge_src_local, weights=flows, minlength=subgraph.num_nodes
    )


def grouped_flow_totals(
    groups: np.ndarray, flows: np.ndarray, num_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Total of ``flows`` per group id: ``(groups present, their totals)``.

    The array form of the accumulation loop ``totals[g] = totals.get(g, 0.0)
    + flow``: ``np.bincount`` adds each bin's weights in input order starting
    from 0.0, so every total is bit-identical to the loop's, and the groups
    come back in first-seen order, which is the loop's dict insertion order.
    """
    totals = np.bincount(groups, weights=flows, minlength=num_groups)
    first_seen = np.full(totals.size, groups.size, dtype=np.int64)
    np.minimum.at(first_seen, groups, np.arange(groups.size, dtype=np.int64))
    present = np.flatnonzero(first_seen < groups.size)
    present = present[np.argsort(first_seen[present], kind="stable")]
    return present, totals[present]
