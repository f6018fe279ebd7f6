"""Unit tests for IngestEngine: buffering, classification and refresh."""

import numpy as np
import pytest

from repro.errors import ConformanceError, GraphError, IngestError, UnknownNodeError
from repro.graph import AuthorityTransferDataGraph, DataGraph, find_violations
from repro.ingest import AddNode, IngestEngine, UpdateNode
from repro.ranking.precompute import PrecomputedRanker
from tests.graph.reference import tricky_rates


@pytest.fixture
def ingest(figure1):
    return IngestEngine(
        figure1.data_graph, figure1.transfer_schema, min_document_frequency=1
    )


class TestWorkingCopyIsolation:
    def test_mutations_do_not_touch_the_source_graph(self, figure1, ingest):
        before = figure1.data_graph.num_nodes
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        assert figure1.data_graph.num_nodes == before
        assert not figure1.data_graph.has_node("p_new")

    def test_refresh_snapshot_is_private(self, ingest):
        result = ingest.refresh(precompute=False)
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        assert not result.data_graph.has_node("p_new")


class TestClassification:
    def test_node_and_edge_mutations_dirty_topology(self, ingest):
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        assert ingest.topology_dirty
        assert ingest.pending_mutations == 1
        ingest.add_edge("p_new", "v7", "cites")
        ingest.remove_edge("p_new", "v7", "cites")
        ingest.remove_node("p_new")
        assert ingest.pending_mutations == 4

    def test_update_dirties_exactly_the_term_set_difference(self, ingest):
        # v7 is "Data Cube: A Relational Aggregation Operator ...".
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        dirty = ingest.dirty_keywords
        # Terms shared by old and new titles must not be dirtied.
        assert "data" not in dirty
        assert "cube" not in dirty
        assert "relational" not in dirty
        # The entering and leaving terms must be.
        assert "sketch" in dirty
        assert not ingest.topology_dirty

    def test_failed_mutation_leaves_no_dirt(self, ingest):
        with pytest.raises(UnknownNodeError):
            ingest.add_edge("nope", "v7", "cites")
        with pytest.raises(UnknownNodeError):
            ingest.update_node("nope", {"title": "x"})
        with pytest.raises(GraphError):
            ingest.remove_edge("v1", "v7", "no-such-role")
        assert ingest.pending_mutations == 0
        assert ingest.dirty_keywords == frozenset()
        assert not ingest.topology_dirty

    def test_apply_dispatches_typed_records(self, ingest):
        ingest.apply(AddNode("p_new", "Paper", {"title": "Streaming OLAP"}))
        ingest.apply(UpdateNode("p_new", {"title": "Batched OLAP"}))
        assert ingest.pending_mutations == 2

    def test_apply_rejects_foreign_objects(self, ingest):
        with pytest.raises(IngestError, match="unknown mutation type"):
            ingest.apply({"op": "add_node"})  # dicts must be parsed first


class TestStaleness:
    def test_clean_engine_reports_zero(self, ingest):
        staleness = ingest.staleness()
        assert staleness.pending_mutations == 0
        assert staleness.dirty_columns == 0
        assert not staleness.topology_dirty

    def test_topology_mutation_dirties_whole_vocabulary(self, ingest):
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        staleness = ingest.staleness()
        vocabulary = ingest.refresh(precompute=False).index.vocabulary()
        assert staleness.dirty_columns == len(list(vocabulary))

    def test_content_mutation_counts_only_precomputable_columns(self, figure1):
        # min_document_frequency=2: a dirtied term with df 1 is not a
        # precomputed column, so it must not count toward the bound.
        ingest = IngestEngine(
            figure1.data_graph, figure1.transfer_schema, min_document_frequency=2
        )
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        staleness = ingest.staleness()
        assert staleness.pending_mutations == 1
        dirty = ingest.dirty_keywords  # refresh() below clears the tracker
        index = ingest.refresh(precompute=False).index
        precomputable = sum(
            1 for term in dirty if index.document_frequency(term) >= 2
        )
        assert staleness.dirty_columns == precomputable
        assert staleness.dirty_columns < len(dirty)

    def test_as_dict_shape(self, ingest):
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        info = ingest.staleness().as_dict()
        assert info == {
            "pending_mutations": 1,
            "dirty_columns": info["dirty_columns"],
            "topology_dirty": True,
        }


class TestRefresh:
    def test_first_refresh_is_a_full_build(self, figure1, ingest):
        result = ingest.refresh()
        assert result.full_rebuild
        assert result.carried == ()
        assert result.epoch == 1
        expected = PrecomputedRanker(
            result.graph, result.index, min_document_frequency=1
        )
        assert result.ranker.keywords == expected.keywords
        for keyword in expected.keywords:
            assert np.array_equal(
                result.ranker.vector(keyword), expected.vector(keyword)
            )

    def test_refresh_consumes_pending(self, ingest):
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        result = ingest.refresh(precompute=False)
        assert result.pending_consumed == 1
        assert ingest.pending_mutations == 0
        assert ingest.staleness().dirty_columns == 0

    def test_content_refresh_carries_clean_columns_by_reference(self, ingest):
        first = ingest.refresh()
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        second = ingest.refresh(previous=first.ranker)
        assert not second.full_rebuild
        assert second.carried  # most of the vocabulary is untouched
        for keyword in second.carried:
            assert second.ranker.vector(keyword) is first.ranker.vector(keyword)

    def test_topology_refresh_recomputes_everything(self, ingest):
        first = ingest.refresh()
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        ingest.add_edge("p_new", "v7", "cites")
        second = ingest.refresh(previous=first.ranker)
        assert not second.full_rebuild  # previous was usable ...
        assert second.carried == ()  # ... but topology dirt carried nothing
        assert set(second.recomputed) == set(second.ranker.keywords)

    def test_rate_change_forces_full_rebuild(self, figure1, ingest):
        from repro.datasets import dblp_transfer_schema

        first = ingest.refresh()
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        learned = dblp_transfer_schema([0.5, 0.0, 0.3, 0.1, 0.2, 0.2, 0.2, 0.1])
        second = ingest.refresh(previous=first.ranker, rates=learned)
        assert second.full_rebuild
        assert second.carried == ()

    def test_failed_refresh_merges_dirt_back(self, ingest):
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        dirty_before = ingest.dirty_keywords
        with pytest.raises(ValueError, match="mode must be one of"):
            ingest.refresh(mode="lukewarm")
        assert ingest.pending_mutations == 1
        assert ingest.dirty_keywords == dirty_before

    def test_epoch_increments_per_successful_refresh(self, ingest):
        assert ingest.epoch == 0
        ingest.refresh(precompute=False)
        ingest.refresh(precompute=False)
        assert ingest.epoch == 2

    def test_graph_version_tracks_working_copy(self, ingest):
        version = ingest.graph_version
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        assert ingest.graph_version == version + 1


class TestNonconformingMutationsAreRefusedAtApply:
    """Applied, any of these would fail every later refresh of the dataset."""

    def test_unknown_label_unresolvable_role_and_unknown_pair(self, ingest):
        with pytest.raises(ConformanceError, match="unknown label 'Venue'"):
            ingest.add_node("weird", "Venue", {"name": "not in schema"})
        with pytest.raises(ConformanceError, match="no matching schema edge"):
            ingest.add_edge("v7", "v4", "authored")
        with pytest.raises(ConformanceError, match="no matching schema edge"):
            ingest.add_edge("v6", "v6")  # no Author->Author schema edge
        assert ingest.pending_mutations == 0
        assert not ingest.topology_dirty
        assert ingest.refresh().graph.num_nodes == 7

    def test_error_text_is_the_builds_own(self, figure1, ingest):
        broken = figure1.data_graph.copy()
        broken.add_node("weird", "Venue")
        broken.add_edge("v7", "v4", "authored")
        expected = find_violations(broken, figure1.schema)
        refused = []
        for mutate in (
            lambda: ingest.add_node("weird", "Venue"),
            lambda: ingest.add_edge("v7", "v4", "authored"),
        ):
            with pytest.raises(ConformanceError) as raised:
                mutate()
            refused.extend(raised.value.violations)
        assert refused == expected

    def test_role_less_edge_is_refused_only_when_ambiguous(self):
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        ingest = IngestEngine(graph, tricky_rates(), min_document_frequency=1)
        with pytest.raises(ConformanceError):
            ingest.add_edge("a", "b")  # r1 or r2?
        ingest.add_edge("b", "a")  # the one B->A schema edge
        ingest.add_edge("a", "b", "r2")
        assert ingest.refresh(precompute=False).graph.num_edges == 4

    def test_batch_records_the_refusal_and_applies_the_rest(self, ingest):
        applied, errors = ingest.apply_batch(
            [
                {"op": "add_node", "node_id": "weird", "label": "Venue"},
                {"op": "add_node", "node_id": "p_new", "label": "Paper",
                 "attributes": {"title": "Streaming OLAP"}},
                {"op": "add_edge", "source": "p_new", "target": "v7", "role": "by"},
                {"op": "add_edge", "source": "p_new", "target": "v7", "role": "cites"},
            ]
        )
        assert applied == 2
        assert [(e["position"], e["op"]) for e in errors] == [
            (0, "add_node"),
            (2, "add_edge"),
        ]
        assert all("does not conform" in e["error"] for e in errors)
        assert ingest.refresh().data_graph.has_node("p_new")


class TestTopologyIsCarried:
    """A refresh builds a transfer graph only when the node/edge set moved."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = AuthorityTransferDataGraph.__init__

        def counting(self, *args, **kwargs):
            calls.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(AuthorityTransferDataGraph, "__init__", counting)
        return calls

    def test_content_refresh_builds_nothing_topology_refresh_builds_once(
        self, ingest, builds
    ):
        first = ingest.refresh()
        assert len(builds) == 1
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        second = ingest.refresh(previous=first.ranker)
        assert len(builds) == 1
        assert second.graph is not first.graph
        assert second.graph.data_graph is second.data_graph
        assert second.graph.edge_source is first.graph.edge_source
        assert second.data_graph.node("v7").attributes["title"].endswith("Sketch")
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        third = ingest.refresh(previous=second.ranker)
        assert len(builds) == 2
        assert third.graph.num_nodes == first.graph.num_nodes + 1

    def test_forced_refresh_with_nothing_pending_builds_nothing(self, ingest, builds):
        ingest.refresh(precompute=False)
        ingest.refresh(precompute=False)
        assert len(builds) == 1

    def test_derived_tables_are_cold_for_the_new_text(self, ingest):
        first = ingest.refresh(precompute=False)
        assert first.graph.derived("probe", lambda: "first") == "first"
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        second = ingest.refresh(precompute=False)
        assert second.graph.derived("probe", lambda: "second") == "second"
        assert first.graph.derived("probe", lambda: "rebuilt") == "first"
