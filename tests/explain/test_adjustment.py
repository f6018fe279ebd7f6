"""Unit tests for the flow-adjustment fixpoint (Section 4, Equations 5-10)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.explain import (
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
    explain,
)
from repro.explain.flows import original_edge_flows


@pytest.fixture
def olap_base(olap_result):
    return list(olap_result.base_weights)


@pytest.fixture
def explanation(figure1_graph, olap_base, olap_result):
    subgraph = build_explaining_subgraph(figure1_graph, olap_base, "v4", radius=None)
    return adjust_flows(subgraph, olap_result.scores, damping=0.85, tolerance=1e-10)


class TestOriginalFlows:
    def test_equation5(self, figure1_graph, olap_result):
        """Flow_0(e) = d * alpha(e) * r(source)."""
        flows = original_edge_flows(figure1_graph, olap_result.scores, 0.85)
        for edge_id in range(figure1_graph.num_edges):
            source = int(figure1_graph.edge_source[edge_id])
            expected = 0.85 * figure1_graph.edge_rate[edge_id] * olap_result.scores[source]
            assert flows[edge_id] == pytest.approx(expected)

    def test_subset_of_edges(self, figure1_graph, olap_result):
        edge_ids = np.asarray([0, 2], dtype=np.int64)
        flows = original_edge_flows(figure1_graph, olap_result.scores, 0.85, edge_ids)
        assert len(flows) == 2


class TestAdjustment:
    def test_converges(self, explanation):
        assert explanation.converged
        assert explanation.iterations >= 1

    def test_target_reduction_is_one(self, explanation, figure1_graph):
        """h(target) = 1: the target's incoming flows are not adjusted."""
        assert explanation.reduction[figure1_graph.index_of("v4")] == 1.0

    def test_target_inflow_unadjusted(self, explanation, figure1_graph):
        """Edges into the target keep their original (Equation 5) flows."""
        target = figure1_graph.index_of("v4")
        for edge_id, flow, flow0 in zip(
            explanation.edge_ids, explanation.flows, explanation.original_flows
        ):
            if int(figure1_graph.edge_target[edge_id]) == target:
                assert flow == pytest.approx(flow0)

    def test_flows_never_exceed_original(self, explanation):
        """Adjustment only removes leaked authority (h <= 1 in DAG-ish parts);
        every adjusted flow is at most the original one when h <= 1."""
        for edge_id, flow, flow0, in zip(
            explanation.edge_ids, explanation.flows, explanation.original_flows
        ):
            dest = int(explanation.graph.edge_target[edge_id])
            if explanation.reduction[dest] <= 1.0:
                assert flow <= flow0 + 1e-12

    def test_equation7(self, explanation):
        """Flow(v_i -> v_k) = h(v_k) * Flow_0(v_i -> v_k)."""
        graph = explanation.graph
        for edge_id, flow, flow0 in zip(
            explanation.edge_ids, explanation.flows, explanation.original_flows
        ):
            h = explanation.reduction[int(graph.edge_target[edge_id])]
            assert flow == pytest.approx(h * flow0)

    def test_fixpoint_equation10(self, explanation, figure1_graph):
        """At convergence: h(v_k) = sum over out-edges of h(v_j) alpha(k->j)."""
        graph = explanation.graph
        target = figure1_graph.index_of("v4")
        subgraph_edges = list(explanation.edge_ids)
        for node in explanation.subgraph.nodes:
            if node == target:
                continue
            expected = sum(
                explanation.reduction[int(graph.edge_target[e])] * graph.edge_rate[e]
                for e in subgraph_edges
                if int(graph.edge_source[e]) == node
            )
            assert explanation.reduction[node] == pytest.approx(expected, abs=1e-6)

    def test_ripple_effect_ordering(self, explanation, figure1_graph):
        """Nodes farther from the target leak more: h shrinks with distance
        in this acyclic-ish example (v6 > v5 > v3 > v1)."""
        h = {
            figure1_graph.node_id_of(n): v for n, v in explanation.reduction.items()
        }
        assert h["v6"] > h["v5"] > h["v3"] > h["v1"]

    def test_empty_subgraph_short_circuits(self, figure1_graph, olap_result):
        subgraph = build_explaining_subgraph(figure1_graph, ["v7"], "v2", radius=1)
        result = adjust_flows(subgraph, olap_result.scores, 0.85)
        assert result.converged
        assert result.iterations == 0
        assert result.target_inflow() == 0.0


class TestAggregates:
    def test_incoming_outgoing_consistency(self, explanation):
        """Sum of all incoming flows equals sum of all outgoing flows
        (every subgraph edge has both endpoints inside)."""
        total_in = sum(
            explanation.incoming_flow(n) for n in explanation.subgraph.nodes
        )
        total_out = sum(
            explanation.outgoing_flow(n) for n in explanation.subgraph.nodes
        )
        assert total_in == pytest.approx(total_out)

    def test_outgoing_flow_by_node_matches_scalar(self, explanation):
        by_node = explanation.outgoing_flow_by_node()
        for node in explanation.subgraph.nodes:
            assert by_node[node] == pytest.approx(explanation.outgoing_flow(node))

    def test_flow_by_edge_type_totals(self, explanation):
        totals, present = explanation.type_flows()
        assert totals[present].sum() == pytest.approx(float(explanation.flows.sum()))
        assert not totals[~present].any()

    def test_adjusted_scores_equation8(self, explanation, figure1_graph):
        scores = explanation.adjusted_scores()
        v5 = figure1_graph.index_of("v5")
        assert scores[v5] == pytest.approx(explanation.outgoing_flow(v5) / 0.85)
        target = figure1_graph.index_of("v4")
        assert scores[target] == pytest.approx(explanation.target_inflow() / 0.85)

    def test_edge_flow_items_ids(self, explanation):
        items = explanation.edge_flow_items()
        assert len(items) == explanation.subgraph.num_edges
        assert all(isinstance(s, str) and isinstance(t, str) for s, t, _ in items)

    def test_edge_flow_items_by_flow_is_the_stable_descending_sort(self, explanation):
        """``by_flow`` == ``sorted(..., reverse=True)`` of the edge-order
        triples, also when flows tie (ties keep their edge order)."""
        tied = dataclasses.replace(explanation, flows=np.round(explanation.flows, 2))
        assert len(set(tied.flows.tolist())) < len(tied.flows)  # really ties
        for case in (explanation, tied):
            assert case.edge_flow_items(by_flow=True) == sorted(
                case.edge_flow_items(), key=lambda item: item[2], reverse=True
            )


class TestConvenienceWrapper:
    def test_explain_one_shot(self, figure1_graph, olap_base, olap_result):
        result = explain(
            figure1_graph, olap_base, "v4", olap_result.scores, radius=None
        )
        assert result.converged
        assert result.target_inflow() > 0


class TestIterationBudget:
    @pytest.mark.parametrize("max_iterations", [0, -3])
    @pytest.mark.parametrize("raise_on_divergence", [False, True])
    def test_fewer_than_one_iteration_is_refused(
        self, figure1_graph, olap_base, olap_result, max_iterations, raise_on_divergence
    ):
        """No residual to report: a ``ValueError``, not an ``IndexError`` from
        an empty trace or all-ones factors reported as an explanation."""
        subgraph = build_explaining_subgraph(figure1_graph, olap_base, "v4")
        with pytest.raises(ValueError, match="max_iterations"):
            adjust_flows(
                subgraph,
                olap_result.scores,
                max_iterations=max_iterations,
                raise_on_divergence=raise_on_divergence,
            )


class TestDampingRange:
    @pytest.mark.parametrize("damping", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_a_damping_outside_the_unit_interval_is_refused(
        self, figure1_graph, olap_base, olap_result, damping
    ):
        """Eq. 10 runs at the damping of Eq. 4: 1.5 or -0.5 used to run to
        "converged", and 0.0 to a ``ZeroDivisionError`` in the adjusted
        scores."""
        subgraph = build_explaining_subgraph(figure1_graph, olap_base, "v4")
        with pytest.raises(ParameterError, match="damping"):
            adjust_flows(subgraph, olap_result.scores, damping=damping)
        (batched,) = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ["v4"], None
        )
        with pytest.raises(ParameterError, match="damping"):
            batched_adjust_flows([batched], olap_result.scores, damping=damping)
