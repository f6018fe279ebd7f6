"""Unit tests for the batched explanation engine (repro.explain.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExplanationError, UnknownNodeError
from repro.explain import (
    SubgraphExtractor,
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    batched_explain,
    build_explaining_subgraph,
)
from repro.explain.adjustment import FlowExplanation
from repro.graph import AuthorityTransferDataGraph


def assert_same_subgraph(serial, batched):
    assert serial.target == batched.target
    assert serial.nodes == batched.nodes
    assert np.array_equal(serial.edge_ids, batched.edge_ids)
    assert serial.edge_ids.dtype == batched.edge_ids.dtype
    assert serial.base_nodes == batched.base_nodes
    assert serial.depth_to_target == batched.depth_to_target
    assert serial.radius == batched.radius


def assert_same_explanation(serial: FlowExplanation, batched: FlowExplanation):
    assert_same_subgraph(serial.subgraph, batched.subgraph)
    assert np.array_equal(serial.original_flows, batched.original_flows)
    assert np.array_equal(serial.flows, batched.flows)
    assert serial.reduction == batched.reduction
    assert serial.iterations == batched.iterations
    assert serial.converged == batched.converged
    assert serial.residuals == batched.residuals


@pytest.fixture
def olap_base(olap_result):
    return list(olap_result.base_weights)


ALL_TARGETS = [f"v{i}" for i in range(1, 8)]


class TestBatchedSubgraphs:
    @pytest.mark.parametrize("radius", [None, 1, 2, 3])
    def test_identical_to_serial(self, figure1_graph, olap_base, radius):
        batched = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ALL_TARGETS, radius
        )
        for target, subgraph in zip(ALL_TARGETS, batched):
            serial = build_explaining_subgraph(
                figure1_graph, olap_base, target, radius
            )
            assert_same_subgraph(serial, subgraph)

    def test_empty_target_list(self, figure1_graph, olap_base):
        assert batched_build_explaining_subgraphs(figure1_graph, olap_base, []) == []

    def test_empty_base_set(self, figure1_graph):
        batched = batched_build_explaining_subgraphs(figure1_graph, [], ALL_TARGETS)
        for target, subgraph in zip(ALL_TARGETS, batched):
            serial = build_explaining_subgraph(figure1_graph, [], target)
            assert_same_subgraph(serial, subgraph)
            assert subgraph.is_empty
            assert subgraph.nodes == [figure1_graph.index_of(target)]

    def test_invalid_radius(self, figure1_graph, olap_base):
        with pytest.raises(ExplanationError):
            batched_build_explaining_subgraphs(
                figure1_graph, olap_base, ["v4"], radius=0
            )

    def test_unknown_target(self, figure1_graph, olap_base):
        with pytest.raises(UnknownNodeError):
            batched_build_explaining_subgraphs(figure1_graph, olap_base, ["nope"])

    def test_extractor_reuse(self, figure1_graph, olap_base):
        extractor = SubgraphExtractor(figure1_graph)
        first = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ALL_TARGETS, 2, extractor=extractor
        )
        second = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ALL_TARGETS, 2, extractor=extractor
        )
        for a, b in zip(first, second):
            assert_same_subgraph(a, b)


class TestPositiveRateIncidence:
    """The extractor reads the graph's incidence, so it follows the rates."""

    def test_zeroed_edge_type_leaves_the_next_explaining_subgraph(
        self, figure1, olap_base
    ):
        graph = AuthorityTransferDataGraph(figure1.data_graph, figure1.transfer_schema)
        (before,) = batched_build_explaining_subgraphs(graph, olap_base, ["v4"])
        zeroed_type = graph.edge_type_of(int(before.edge_ids[0]))
        zeroed_index = graph.edge_types.index(zeroed_type)
        rates = [
            0.0 if t == zeroed_type else figure1.transfer_schema.rate(t)
            for t in graph.edge_types
        ]
        graph = graph.with_rates(
            figure1.transfer_schema.with_vector(rates, graph.edge_types)
        )
        (after,) = batched_build_explaining_subgraphs(graph, olap_base, ["v4"])
        assert zeroed_index in graph.edge_type_index[before.edge_ids]
        assert zeroed_index not in graph.edge_type_index[after.edge_ids]
        assert_same_subgraph(
            build_explaining_subgraph(graph, olap_base, "v4"), after
        )

    def test_view_extracts_under_its_own_rates(self, figure1_graph, figure1, olap_base):
        """A ``with_rates`` view must not reuse the parent's filtered index."""
        SubgraphExtractor(figure1_graph)  # parent's incidence is warm
        graph = figure1_graph
        rates = [0.0] + [
            figure1.transfer_schema.rate(t) for t in graph.edge_types[1:]
        ]
        view = graph.with_rates(
            figure1.transfer_schema.with_vector(rates, graph.edge_types)
        )
        for target in ALL_TARGETS:
            (batched,) = batched_build_explaining_subgraphs(view, olap_base, [target])
            assert_same_subgraph(
                build_explaining_subgraph(view, olap_base, target), batched
            )
            assert 0 not in view.edge_type_index[batched.edge_ids]


class TestBatchedAdjustment:
    def test_identical_to_serial(self, figure1_graph, olap_base, olap_result):
        subgraphs = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ALL_TARGETS
        )
        batched = batched_adjust_flows(
            subgraphs, olap_result.scores, 0.85, 1e-10
        )
        for target, explanation in zip(ALL_TARGETS, batched):
            serial = adjust_flows(
                build_explaining_subgraph(figure1_graph, olap_base, target),
                olap_result.scores,
                0.85,
                1e-10,
            )
            assert_same_explanation(serial, explanation)

    def test_empty_subgraph_explanation(self, figure1_graph, olap_result):
        subgraphs = batched_build_explaining_subgraphs(figure1_graph, [], ["v4"])
        explanation = batched_adjust_flows(subgraphs, olap_result.scores)[0]
        assert explanation.converged
        assert explanation.iterations == 0
        assert explanation.reduction == {figure1_graph.index_of("v4"): 1.0}
        assert explanation.flows.size == 0

    def test_iteration_cutoff_matches_serial(
        self, figure1_graph, olap_base, olap_result
    ):
        """An over-tight tolerance cuts off at max_iterations, like serial."""
        subgraphs = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ALL_TARGETS
        )
        batched = batched_adjust_flows(
            subgraphs, olap_result.scores, 0.85, 0.0, max_iterations=7
        )
        for target, explanation in zip(ALL_TARGETS, batched):
            serial = adjust_flows(
                build_explaining_subgraph(figure1_graph, olap_base, target),
                olap_result.scores,
                0.85,
                0.0,
                max_iterations=7,
            )
            assert_same_explanation(serial, explanation)
            if not serial.subgraph.is_empty:
                assert not explanation.converged
                assert explanation.iterations == 7


    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_fewer_than_one_iteration_is_refused(
        self, figure1_graph, olap_base, olap_result, max_iterations
    ):
        subgraphs = batched_build_explaining_subgraphs(
            figure1_graph, olap_base, ALL_TARGETS
        )
        with pytest.raises(ValueError, match="max_iterations"):
            batched_adjust_flows(
                subgraphs,
                olap_result.scores,
                max_iterations=max_iterations,
                raise_on_divergence=True,
            )


class TestBatchedExplain:
    def test_one_shot_matches_pipeline(self, dblp_tiny_engine):
        result = dblp_tiny_engine.search("xml query", top_k=8)
        base = list(result.ranked.base_weights)
        targets = [node_id for node_id, _ in result.top]
        graph = dblp_tiny_engine.graph
        batched = batched_explain(
            graph, base, targets, result.ranked.scores, radius=3
        )
        for target, explanation in zip(targets, batched):
            serial = adjust_flows(
                build_explaining_subgraph(graph, base, target, 3),
                result.ranked.scores,
            )
            assert_same_explanation(serial, explanation)


    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_fewer_than_one_iteration_is_refused_before_extracting(
        self, figure1_graph, olap_base, olap_result, max_iterations
    ):
        """Refused before any work: an unknown target is never looked up."""
        with pytest.raises(ValueError, match="max_iterations"):
            batched_explain(
                figure1_graph,
                olap_base,
                ["no such node"],
                olap_result.scores,
                max_iterations=max_iterations,
            )


class TestSearchsortedLocals:
    def test_adjust_flows_matches_dict_reference(
        self, figure1_graph, olap_base, olap_result
    ):
        """Regression for the searchsorted local-index rewrite: the serial
        path must produce the same FlowExplanation as the per-edge dict
        construction it replaced."""
        subgraph = build_explaining_subgraph(figure1_graph, olap_base, "v4")
        explanation = adjust_flows(subgraph, olap_result.scores, 0.85, 1e-10)

        # The pre-rewrite construction, verbatim.
        local_index = {node: i for i, node in enumerate(subgraph.nodes)}
        ref_src = np.asarray(
            [
                local_index[int(figure1_graph.edge_source[e])]
                for e in subgraph.edge_ids
            ],
            dtype=np.int64,
        )
        ref_dst = np.asarray(
            [
                local_index[int(figure1_graph.edge_target[e])]
                for e in subgraph.edge_ids
            ],
            dtype=np.int64,
        )
        assert np.array_equal(subgraph.edge_src_local, ref_src)
        assert np.array_equal(subgraph.edge_dst_local, ref_dst)

        h = np.ones(len(subgraph.nodes))
        rates = figure1_graph.edge_rate[subgraph.edge_ids]
        for _ in range(explanation.iterations):
            contributions = h[ref_dst] * rates
            new_h = np.zeros(len(subgraph.nodes))
            np.add.at(new_h, ref_src, contributions)
            new_h[local_index[subgraph.target]] = 1.0
            h = new_h
        assert explanation.reduction == {
            node: float(h[local_index[node]]) for node in subgraph.nodes
        }

    def test_outgoing_flow_by_node_matches_loop(
        self, figure1_graph, olap_base, olap_result
    ):
        """Regression for the local-index rewrite of outgoing_flow_by_node."""
        subgraph = build_explaining_subgraph(figure1_graph, olap_base, "v4")
        explanation = adjust_flows(subgraph, olap_result.scores, 0.85, 1e-10)
        reference = {n: 0.0 for n in subgraph.nodes}
        for edge_id, flow in zip(explanation.edge_ids, explanation.flows):
            reference[int(figure1_graph.edge_source[edge_id])] += float(flow)
        assert explanation.outgoing_flow_by_node() == reference
