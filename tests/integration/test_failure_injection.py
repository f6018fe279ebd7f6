"""Failure-injection tests: the system must fail loudly and precisely.

Production systems distinguish "no results" from "wrong input" from
"numerical divergence"; these tests feed each failure mode and assert the
error type and the absence of silent corruption.
"""

import numpy as np
import pytest

from repro.datasets import dblp_transfer_schema
from repro.datasets.figure1 import figure1_dataset
from repro.errors import (
    ConvergenceError,
    EmptyBaseSetError,
    RateError,
    ReproError,
)
from repro.graph import AuthorityTransferDataGraph, AuthorityTransferSchemaGraph


class TestDivergentRates:
    def test_nonconvergent_rates_detected_before_running(self):
        """Rates summing over 1 per label are detectable up front."""
        schema = dblp_transfer_schema().schema
        hot = AuthorityTransferSchemaGraph(schema, default_rate=0.9)
        assert not hot.is_convergent()

    def test_power_iteration_reports_non_convergence(self):
        """A genuinely expanding matrix hits max_iterations with
        converged=False rather than looping forever or lying."""
        from scipy import sparse

        from repro.ranking import Tolerance
        from repro.ranking.pagerank import iterate

        expanding = sparse.csr_matrix(np.full((3, 3), 2.0))
        restart = np.full(3, 1 / 3)
        result = iterate(expanding, restart, 0.85, 10, None, Tolerance(1e-12).rule())
        assert not result.converged
        assert result.iterations == 10

    def test_explaining_divergence_raises_when_asked(self, figure1_graph, olap_result):
        from repro.explain import build_explaining_subgraph
        from repro.explain.adjustment import adjust_flows

        subgraph = build_explaining_subgraph(
            figure1_graph, list(olap_result.base_weights), "v4", radius=None
        )
        with pytest.raises(ConvergenceError):
            adjust_flows(
                subgraph,
                olap_result.scores,
                tolerance=0.0,  # unattainable
                max_iterations=3,
                raise_on_divergence=True,
            )


class TestBadInputs:
    def test_nan_rate_rejected(self):
        schema = dblp_transfer_schema()
        with pytest.raises(RateError):
            schema.with_vector([float("nan")], schema.edge_types()[:1])

    def test_infinite_rate_rejected(self):
        schema = dblp_transfer_schema()
        with pytest.raises(RateError):
            schema.with_vector([float("inf")], schema.edge_types()[:1])

    def test_empty_query_raises_not_crashes(self, dblp_tiny_engine):
        with pytest.raises(EmptyBaseSetError):
            dblp_tiny_engine.search("")

    def test_whitespace_only_query(self, dblp_tiny_engine):
        with pytest.raises(EmptyBaseSetError):
            dblp_tiny_engine.search("   \t  ")

    def test_punctuation_only_query(self, dblp_tiny_engine):
        with pytest.raises(EmptyBaseSetError):
            dblp_tiny_engine.search("!!! ??? ...")

    def test_giant_query_is_handled(self, dblp_tiny_engine):
        """A thousand-keyword query degrades gracefully (big base set)."""
        result = dblp_tiny_engine.search("olap " * 500 + "cube", top_k=5)
        assert len(result.top) == 5

    def test_explaining_unknown_target(self, figure1):
        from repro.core import ObjectRankSystem, SystemConfig
        from repro.errors import UnknownNodeError

        system = ObjectRankSystem(
            figure1.data_graph, figure1.transfer_schema, SystemConfig(top_k=7)
        )
        system.query("OLAP")
        with pytest.raises(UnknownNodeError):
            system.explain("not-a-node")

    def test_feedback_with_unknown_object(self, figure1):
        from repro.core import ObjectRankSystem, SystemConfig
        from repro.errors import UnknownNodeError

        system = ObjectRankSystem(
            figure1.data_graph, figure1.transfer_schema, SystemConfig(top_k=7)
        )
        system.query("OLAP")
        with pytest.raises(UnknownNodeError):
            system.feedback(["ghost"])


class TestNumericalEdges:
    def test_single_node_graph(self):
        """One isolated node: the base set holds everything; no crash."""
        from repro.graph import DataGraph, SchemaGraph
        from repro.ir import BM25Scorer, InvertedIndex
        from repro.query import QueryVector
        from repro.ranking import objectrank2

        schema = SchemaGraph()
        schema.add_label("Paper")
        schema.add_edge("Paper", "Paper", "cites")
        graph = DataGraph()
        graph.add_node("only", "Paper", {"title": "olap"})
        atdg = AuthorityTransferDataGraph(
            graph, AuthorityTransferSchemaGraph(schema, default_rate=0.5)
        )
        index = InvertedIndex.from_graph(graph)
        result = objectrank2(atdg, BM25Scorer(index), QueryVector({"olap": 1.0}))
        assert result.converged
        assert result.top_k(1)[0][0] == "only"

    def test_all_zero_rates_still_converge(self):
        """With every rate 0, scores collapse to the jump distribution."""
        dataset = figure1_dataset()
        zero = AuthorityTransferSchemaGraph(dataset.schema, default_rate=0.0)
        atdg = AuthorityTransferDataGraph(dataset.data_graph, zero)
        from repro.ir import BM25Scorer, InvertedIndex
        from repro.query import QueryVector
        from repro.ranking import objectrank2

        index = InvertedIndex.from_graph(dataset.data_graph)
        result = objectrank2(
            atdg, BM25Scorer(index), QueryVector({"olap": 1.0}), tolerance=1e-12
        )
        assert result.converged
        # Only base-set nodes hold mass.
        for node_id in ("v2", "v3", "v5", "v6", "v7"):
            assert result.score_of(node_id) == pytest.approx(0.0, abs=1e-12)

    def test_base_class_catches_everything(self, dblp_tiny_engine):
        with pytest.raises(ReproError):
            dblp_tiny_engine.search("zz-not-a-term")
