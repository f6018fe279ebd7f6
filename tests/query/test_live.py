"""Searching an evolving database: mutate, refresh, search (``repro.ingest``).

These behaviours were first pinned on a separate lazy-rebuild engine; the
single mutation path is now :class:`repro.ingest.IngestEngine` (mutations
buffer in a working copy, :meth:`~repro.ingest.IngestEngine.refresh` freezes
a snapshot the :class:`~repro.query.engine.SearchEngine` adopts), so every
test drives that: same mutations, same expectations about what a search sees
afterwards, the pending-mutation counter, and the warm-start carry of
:mod:`repro.ingest.refresh`.
"""

import numpy as np
import pytest

from repro.datasets.figure1 import figure1_dataset
from repro.errors import (
    ConformanceError,
    EmptyBaseSetError,
    GraphError,
    UnknownNodeError,
)
from repro.ingest import IngestEngine
from repro.ingest.refresh import _warm_start_inits
from repro.query.engine import SearchEngine

TOLERANCE = 1e-8


class Live:
    """An ingest engine plus the search engine that adopts its snapshots."""

    def __init__(self):
        dataset = figure1_dataset()
        self.ingest = IngestEngine(
            dataset.data_graph,
            dataset.transfer_schema,
            tolerance=TOLERANCE,
            min_document_frequency=1,
        )
        self.engine = SearchEngine(
            dataset.data_graph, dataset.transfer_schema, tolerance=TOLERANCE
        )

    def refresh(self, **options):
        result = self.ingest.refresh(**options)
        self.engine.adopt(
            result.data_graph, result.graph.transfer_schema, result.graph, result.index
        )
        return result

    def search(self, query, top_k=10):
        """What serving does: bring the snapshot up to date, then search."""
        if self.ingest.pending_mutations:
            self.refresh(precompute=False)
        return self.engine.search(query, top_k=top_k)


@pytest.fixture
def live():
    return Live()


class TestMutation:
    def test_new_node_searchable_immediately(self, live):
        live.ingest.add_node("p_new", "Paper", {"title": "Adaptive OLAP dashboards"})
        assert live.search("dashboards").top[0][0] == "p_new"

    def test_new_edge_changes_ranking(self, live):
        before = live.search("OLAP", top_k=8)
        live.ingest.add_node("p_new", "Paper", {"title": "A survey citing Data Cube"})
        live.ingest.add_edge("p_new", "v7", "cites")
        after = live.search("OLAP", top_k=8)
        # v7 gains another citation; its relative mass cannot collapse.
        assert after.ranked.score_of("v7") > 0
        assert after.ranked.ranking()[0] == "v7"
        assert before.ranked.score_of("v7") > 0

    def test_pending_counter_and_lazy_rebuild(self, live):
        assert live.ingest.pending_mutations == 0
        live.ingest.add_node("x1", "Author", {"name": "New Author"})
        live.ingest.add_node("x2", "Author", {"name": "Other Author"})
        assert live.ingest.pending_mutations == 2
        # Mutations only buffer: the served snapshot is rebuilt on refresh.
        assert not live.engine.data_graph.has_node("x1")
        assert live.refresh(precompute=False).pending_consumed == 2
        assert live.ingest.pending_mutations == 0
        assert live.engine.data_graph.has_node("x1")

    def test_edge_requires_existing_nodes(self, live):
        with pytest.raises(UnknownNodeError):
            live.ingest.add_edge("nope", "v7", "cites")

    def test_nonconforming_insert_is_refused_at_apply(self, live):
        with pytest.raises(ConformanceError):
            live.ingest.add_node("weird", "Venue", {"name": "not in schema"})
        with pytest.raises(ConformanceError):
            live.ingest.add_edge("v7", "v4", "authored")  # no Paper->Paper role
        # Refused before the working graph was touched: nothing pends, and
        # the next search answers instead of failing its refresh.
        assert live.ingest.pending_mutations == 0
        assert live.search("OLAP").top

    def test_update_node_reindexes_document(self, live):
        live.ingest.update_node("v7", {"title": "Incremental Sketches"})
        assert live.search("sketches").top[0][0] == "v7"
        # v7 was the only object containing "cube"; after the rewrite the
        # term matches nothing — the old posting must be gone, not stale.
        with pytest.raises(EmptyBaseSetError):
            live.search("cube")

    def test_remove_node_forgets_object_and_edges(self, live):
        before = live.search("OLAP", top_k=8)
        assert "v7" in [node_id for node_id, _ in before.top]
        live.ingest.remove_node("v7")
        after = live.search("OLAP", top_k=8)
        assert "v7" not in [node_id for node_id, _ in after.top]
        assert after.ranked.node_ids == [
            node_id for node_id in before.ranked.node_ids if node_id != "v7"
        ]

    def test_remove_edge_changes_ranking_inputs(self, live):
        data_edges = live.engine.data_graph.num_edges
        transfer_before = live.engine.graph.num_edges
        live.ingest.remove_edge("v1", "v7", "cites")
        live.refresh(precompute=False)
        assert live.engine.data_graph.num_edges == data_edges - 1
        # One data edge materializes a forward and a backward transfer edge.
        assert live.engine.graph.num_edges == transfer_before - 2


class TestPendingUpdateAccounting:
    def test_every_successful_mutation_counts_once(self, live):
        live.ingest.add_node("p_new", "Paper", {"title": "OLAP once more"})
        live.ingest.add_edge("p_new", "v7", "cites")
        live.ingest.update_node("p_new", {"title": "OLAP twice more"})
        live.ingest.remove_edge("p_new", "v7", "cites")
        live.ingest.remove_node("p_new")
        assert live.ingest.pending_mutations == 5

    def test_failed_add_edge_does_not_drift_counter(self, live):
        with pytest.raises(UnknownNodeError):
            live.ingest.add_edge("ghost", "v7", "cites")
        assert live.ingest.pending_mutations == 0

    def test_failed_remove_node_does_not_drift_counter(self, live):
        with pytest.raises(UnknownNodeError):
            live.ingest.remove_node("ghost")
        assert live.ingest.pending_mutations == 0
        # The index must still know every original document.
        assert live.refresh(precompute=False).index.num_documents == (
            live.engine.data_graph.num_nodes
        )
        assert live.search("OLAP").top

    def test_failed_remove_edge_does_not_drift_counter(self, live):
        with pytest.raises(GraphError):
            live.ingest.remove_edge("v1", "v7", "no-such-role")
        assert live.ingest.pending_mutations == 0

    def test_failed_update_does_not_touch_index(self, live):
        with pytest.raises(UnknownNodeError):
            live.ingest.update_node("ghost", {"title": "phantom sketches"})
        assert live.ingest.pending_mutations == 0
        assert live.ingest.dirty_keywords == frozenset()
        live.refresh(precompute=False)
        with pytest.raises(EmptyBaseSetError):
            live.search("phantom")

    def test_counter_resets_only_on_rebuild(self, live):
        live.ingest.add_node("p_new", "Paper", {"title": "OLAP anew"})
        live.ingest.remove_node("p_new")
        assert live.ingest.pending_mutations == 2
        live.refresh(precompute=False)
        assert live.ingest.pending_mutations == 0


class TestWarmStartAcrossUpdates:
    """The carry of :func:`repro.ingest.refresh._warm_start_inits`."""

    def test_carry_over_preserves_surviving_scores(self, live):
        first = live.refresh()
        live.ingest.add_node("p_new", "Paper", {"title": "Fresh OLAP work"})
        second = live.refresh(previous=first.ranker, mode="warm")
        graph = second.graph
        carried = _warm_start_inits(graph, first.ranker, ["olap"])["olap"]
        # Carried mass is renormalized to a distribution; surviving nodes
        # keep their score up to the common scale, new nodes get the
        # uniform prior up to the same scale.
        assert carried.sum() == pytest.approx(1.0)
        v7 = graph.index_of("v7")
        fresh = graph.index_of("p_new")
        old_v7 = first.ranker.vector("olap")[first.graph.index_of("v7")]
        expected_ratio = old_v7 / (1.0 / graph.num_nodes)
        assert carried[v7] / carried[fresh] == pytest.approx(expected_ratio)

    def test_carry_over_none_without_previous(self, live):
        # Nothing to carry from: a warm refresh degrades to the cold build.
        warm = live.refresh(previous=None, mode="warm")
        assert warm.full_rebuild and warm.carried == ()
        cold = Live().refresh(previous=None, mode="exact")
        for keyword in cold.ranker.keywords:
            assert np.array_equal(
                warm.ranker.vector(keyword), cold.ranker.vector(keyword)
            )
        assert _warm_start_inits(warm.graph, warm.ranker, ["zzznotaterm"]) == {}

    def test_warm_search_converges_faster_after_insert(self, live):
        other = Live()
        first = live.refresh()
        for engine in (live.ingest, other.ingest):
            engine.add_node("p_new", "Paper", {"title": "More OLAP cubes"})
            engine.add_edge("p_new", "v7", "cites")
        cold = other.refresh(previous=first.ranker, mode="exact")
        warm = live.refresh(previous=first.ranker, mode="warm")
        vector = live.engine.query_vector("OLAP")
        assert (
            warm.ranker.rank(vector).ranking() == cold.ranker.rank(vector).ranking()
        )
        assert warm.iterations <= cold.iterations

    def test_same_fixpoint_with_and_without_carry(self, live):
        other = Live()
        first = live.refresh()
        for engine in (live.ingest, other.ingest):
            engine.add_node("p_new", "Paper", {"title": "OLAP again"})
        cold = other.refresh(previous=first.ranker, mode="exact")
        warm = live.refresh(previous=first.ranker, mode="warm")
        assert warm.ranker.keywords == cold.ranker.keywords
        for keyword in cold.ranker.keywords:
            assert warm.ranker.vector(keyword) == pytest.approx(
                cold.ranker.vector(keyword), abs=1e-5
            )
