"""Property-based tests for explanation invariants (Equations 5-10)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain import adjust_flows, build_explaining_subgraph
from tests.properties.strategies import dblp_transfer_graphs
from tests.ranking.reference import objectrank


def _setup(atdg, target_index):
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    result = objectrank(atdg, papers, damping=0.85, tolerance=1e-12)
    target = papers[target_index % len(papers)]
    subgraph = build_explaining_subgraph(atdg, papers, target, radius=None)
    explanation = adjust_flows(subgraph, result.scores, 0.85, tolerance=1e-12)
    return explanation, result


@given(dblp_transfer_graphs(), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_equation7_everywhere(atdg, target_index):
    """Flow(e) = h(target(e)) * Flow_0(e) for every subgraph edge."""
    explanation, _ = _setup(atdg, target_index)
    graph = explanation.graph
    for edge_id, flow, flow0 in zip(
        explanation.edge_ids, explanation.flows, explanation.original_flows
    ):
        h = explanation.reduction[int(graph.edge_target[edge_id])]
        assert abs(flow - h * flow0) < 1e-9


@given(dblp_transfer_graphs(), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_target_h_is_one(atdg, target_index):
    explanation, _ = _setup(atdg, target_index)
    assert explanation.reduction[explanation.subgraph.target] == 1.0


@given(dblp_transfer_graphs(), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_fixpoint_residual_small(atdg, target_index):
    """Equation 10 holds at convergence for every non-target node."""
    explanation, _ = _setup(atdg, target_index)
    if explanation.subgraph.is_empty:
        return
    graph = explanation.graph
    out_by_node: dict[int, list[int]] = {}
    for edge_id in explanation.edge_ids:
        out_by_node.setdefault(int(graph.edge_source[edge_id]), []).append(int(edge_id))
    for node in explanation.subgraph.nodes:
        if node == explanation.subgraph.target:
            continue
        expected = sum(
            explanation.reduction[int(graph.edge_target[e])] * graph.edge_rate[e]
            for e in out_by_node.get(node, ())
        )
        assert abs(explanation.reduction[node] - expected) < 1e-6


@given(dblp_transfer_graphs(), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_subgraph_edges_positive_rate_and_inside(atdg, target_index):
    explanation, _ = _setup(atdg, target_index)
    graph = explanation.graph
    nodes = set(explanation.subgraph.nodes)
    for edge_id in explanation.edge_ids:
        assert graph.edge_rate[edge_id] > 0
        assert int(graph.edge_source[edge_id]) in nodes
        assert int(graph.edge_target[edge_id]) in nodes


@given(dblp_transfer_graphs(), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_radius_monotonicity(atdg, target_index):
    """A larger radius never shrinks the explaining subgraph."""
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    target = papers[target_index % len(papers)]
    small = build_explaining_subgraph(atdg, papers, target, radius=1)
    large = build_explaining_subgraph(atdg, papers, target, radius=3)
    assert set(small.nodes) <= set(large.nodes)
    assert set(int(e) for e in small.edge_ids) <= set(int(e) for e in large.edge_ids)


@given(dblp_transfer_graphs(), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_target_inflow_at_most_original(atdg, target_index):
    """Adjustment never *increases* the authority reaching the target."""
    explanation, _ = _setup(atdg, target_index)
    graph = explanation.graph
    target = explanation.subgraph.target
    original_into_target = sum(
        f0
        for e, f0 in zip(explanation.edge_ids, explanation.original_flows)
        if int(graph.edge_target[e]) == target
    )
    assert explanation.target_inflow() <= original_into_target + 1e-9
