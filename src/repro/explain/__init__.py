"""Result explanation: explaining subgraphs and flow adjustment
(Section 4, Equations 5-10, Figure 8)."""

from repro.explain.adjustment import FlowExplanation, adjust_flows
from repro.explain.batch import (
    SubgraphExtractor,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    batched_explain,
)
from repro.explain.flows import (
    local_node_outgoing_flow,
    node_incoming_flow,
    node_outgoing_flow,
    original_edge_flows,
)
from repro.explain.paths import FlowPath, top_paths
from repro.explain.render import to_dot, to_text
from repro.explain.subgraph import ExplainingSubgraph, build_explaining_subgraph
from repro.graph.node_values import NodeValueView

__all__ = [
    "ExplainingSubgraph",
    "FlowExplanation",
    "FlowPath",
    "NodeValueView",
    "SubgraphExtractor",
    "adjust_flows",
    "batched_adjust_flows",
    "batched_build_explaining_subgraphs",
    "batched_explain",
    "build_explaining_subgraph",
    "local_node_outgoing_flow",
    "node_incoming_flow",
    "node_outgoing_flow",
    "original_edge_flows",
    "to_dot",
    "to_text",
    "top_paths",
]


def explain(
    graph,
    base_node_ids,
    target_id,
    scores,
    damping=0.85,
    radius=3,
    tolerance=0.0001,
):
    """Convenience one-shot: build the explaining subgraph and adjust flows.

    This is the full Explain-ObjectRank algorithm of Figure 8.  ``scores`` is
    the converged ObjectRank2 vector for the query whose result is being
    explained; ``radius`` is the paper's ``L`` (default 3).
    """
    subgraph = build_explaining_subgraph(graph, base_node_ids, target_id, radius)
    return adjust_flows(subgraph, scores, damping, tolerance)
