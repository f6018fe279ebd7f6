"""Unit tests for the incremental column-refresh primitive."""

import numpy as np
import pytest

from repro.datasets import dblp_transfer_schema
from repro.graph import AuthorityTransferDataGraph
from repro.ingest import refreshed_keyword_vectors
from repro.ir import InvertedIndex
from repro.ranking.precompute import PrecomputedRanker


@pytest.fixture
def previous(figure1_graph, figure1_index):
    return PrecomputedRanker(
        figure1_graph, figure1_index, min_document_frequency=1
    )


class TestFullRebuildPaths:
    def test_no_previous_rebuilds_everything(self, figure1_graph, figure1_index):
        outcome = refreshed_keyword_vectors(
            figure1_graph,
            figure1_index,
            None,
            frozenset(),
            False,
            min_document_frequency=1,
        )
        assert outcome.full_rebuild
        assert outcome.carried == ()
        assert set(outcome.vectors) == set(figure1_index.vocabulary())

    def test_rate_change_rebuilds_everything(self, figure1, figure1_index, previous):
        learned = dblp_transfer_schema([0.5, 0.0, 0.3, 0.1, 0.2, 0.2, 0.2, 0.1])
        graph = AuthorityTransferDataGraph(figure1.data_graph, learned)
        outcome = refreshed_keyword_vectors(
            graph,
            figure1_index,
            previous,
            frozenset(),
            False,
            min_document_frequency=1,
        )
        assert outcome.full_rebuild
        assert outcome.carried == ()

    def test_topology_dirt_recomputes_all_without_full_rebuild_flag(
        self, figure1_graph, figure1_index, previous
    ):
        outcome = refreshed_keyword_vectors(
            figure1_graph,
            figure1_index,
            previous,
            frozenset(),
            True,
            min_document_frequency=1,
        )
        assert not outcome.full_rebuild
        assert outcome.carried == ()
        assert set(outcome.recomputed) == set(outcome.vectors)


class TestIncrementalCarry:
    def test_clean_columns_carried_by_reference(
        self, figure1_graph, figure1_index, previous
    ):
        outcome = refreshed_keyword_vectors(
            figure1_graph,
            figure1_index,
            previous,
            frozenset({"olap"}),
            False,
            min_document_frequency=1,
        )
        assert outcome.recomputed == ("olap",)
        for keyword in outcome.carried:
            assert outcome.vectors[keyword] is previous.vector(keyword)

    def test_unchanged_graph_refresh_is_bit_identical(
        self, figure1_graph, figure1_index, previous
    ):
        outcome = refreshed_keyword_vectors(
            figure1_graph,
            figure1_index,
            previous,
            frozenset({"olap", "cube"}),
            False,
            min_document_frequency=1,
        )
        for keyword, vector in outcome.vectors.items():
            assert np.array_equal(vector, previous.vector(keyword))
