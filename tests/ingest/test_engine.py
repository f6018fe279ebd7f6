"""Unit tests for IngestEngine: buffering, classification and refresh."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ConformanceError, GraphError, IngestError, UnknownNodeError
from repro.graph import AuthorityTransferDataGraph, DataGraph, find_violations
from repro.graph import transfer_graph
from repro.ingest import AddNode, IngestEngine, UpdateNode
from repro.ir.index import InvertedIndex
from repro.ranking import _native

from tests.ranking.reference import objectrank
from repro.ranking.precompute import PrecomputedRanker
from tests.graph.reference import tricky_rates
from tests.properties.test_copy_on_write_properties import graph_state, index_state


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

    def test_the_working_index_is_the_callers_not_a_rebuild(self, dblp_tiny_engine):
        """Started from the caller's index, the engine indexes exactly what
        ``from_graph`` would — postings, lengths, term order — and shares
        its postings dicts instead of tokenising the corpus again."""
        engine = dblp_tiny_engine
        ingest = IngestEngine(engine.data_graph, engine.transfer_schema, engine.index)
        working = ingest.refresh(precompute=False).index
        rebuilt = InvertedIndex.from_graph(engine.data_graph)
        assert index_state(working) == index_state(rebuilt)
        assert all(
            working._postings[term] is postings
            for term, postings in engine.index._postings.items()
        )
        ingest.update_node("paper:0", {"title": "copy on write"})
        assert index_state(engine.index) == index_state(rebuilt)

    def test_a_refresh_shares_what_the_next_rewrite_leaves_alone(self, dblp_tiny_engine):
        """The freeze is copy-on-write.  After 4 title rewrites, the next
        snapshot holds its own copy of the postings of every term the
        rewrites removed or added, and shares every other postings dict and
        every adjacency list with the snapshot before them."""
        engine = dblp_tiny_engine
        ingest = IngestEngine(engine.data_graph, engine.transfer_schema, engine.index)
        before = ingest.refresh(precompute=False)
        papers = [n.node_id for n in before.data_graph.nodes() if n.label == "Paper"]
        touched = {"copy", "write", "rewrite"}
        for node_id in papers[:4]:
            touched.update(before.index.terms_of_document(node_id))
            ingest.update_node(node_id, {"title": "copy on write rewrite"})
        after = ingest.refresh(precompute=False)
        for node_id in before.data_graph.node_ids():
            assert after.data_graph._out[node_id] is before.data_graph._out[node_id]
            assert after.data_graph._in[node_id] is before.data_graph._in[node_id]
        for term, postings in before.index._postings.items():
            shared = after.index._postings.get(term) is postings
            assert shared == (term not in touched), term


class TestSnapshotsUnderConcurrentMutation:
    def test_readers_never_see_a_later_mutation(self, figure1):
        """One writer mutates and refreshes while more readers than cores
        re-read every snapshot it published: a write that reached a shared
        edge list or postings dict in place would change a snapshot."""
        ingest = IngestEngine(figure1.data_graph, figure1.transfer_schema)
        snapshots = []
        stop = threading.Event()
        failures = []

        def freeze():
            result = ingest.refresh(precompute=False)
            graph, index = result.data_graph, result.index
            snapshots.append((graph, index, graph_state(graph), index_state(index)))

        def write():
            try:
                for step in range(150):
                    title = " ".join(["olap", "cube", "xml", "stream"][: step % 4 + 1])
                    ingest.update_node("v7", {"title": title})
                    ingest.add_node(f"p{step}", "Paper", {"title": title})
                    ingest.add_edge(f"p{step}", "v7", "cites")
                    if step % 3:
                        ingest.remove_edge(f"p{step}", "v7", "cites")
                    if step % 5 == 0:
                        ingest.remove_node(f"p{step}")
                    freeze()
            finally:
                stop.set()

        def read():
            while not stop.is_set():
                for graph, index, graph_then, index_then in list(snapshots):
                    if graph_state(graph) != graph_then or index_state(index) != index_then:
                        failures.append(len(snapshots))
                        return

        freeze()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)]
            threads += [threading.Thread(target=read) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(snapshots) == 151
        assert failures == []


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

    def test_a_previous_ranker_of_another_snapshot_is_not_carried(self, ingest):
        # The dirt of the third refresh is relative to r1, so r0's columns
        # for the terms v1 lost (gupta, olap, 1997) must not be carried.
        r0 = ingest.refresh()
        ingest.update_node("v1", {"title": "Index Selection"})
        ingest.refresh(previous=r0.ranker)
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        result = ingest.refresh(previous=r0.ranker)
        assert result.full_rebuild
        assert result.carried == ()
        expected = PrecomputedRanker(result.graph, result.index, min_document_frequency=1)
        assert result.ranker.keywords == expected.keywords
        for keyword in expected.keywords:
            assert np.array_equal(result.ranker.vector(keyword), expected.vector(keyword))

    def test_failed_refresh_merges_dirt_back(self, ingest, monkeypatch):
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        dirty_before = ingest.dirty_keywords

        def fail(*args, **kwargs):
            raise RuntimeError("injected column-build failure")

        monkeypatch.setattr("repro.ingest.engine.refreshed_keyword_vectors", fail)
        with pytest.raises(RuntimeError, match="injected"):
            ingest.refresh()
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
        """A content batch rebinds, an append-only topology batch extends,
        and only a batch with a removal builds a transfer graph again."""
        first = ingest.refresh()
        assert len(builds) == 1
        assert first.graph_path == "built"
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        second = ingest.refresh(previous=first.ranker)
        assert len(builds) == 1
        assert second.graph_path == "rebound"
        assert second.graph is not first.graph
        assert second.graph.data_graph is second.data_graph
        assert second.graph.edge_source is first.graph.edge_source
        assert second.data_graph.node("v7").attributes["title"].endswith("Sketch")
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        ingest.add_edge("p_new", "v7", "cites")
        third = ingest.refresh(previous=second.ranker)
        assert len(builds) == 1
        assert third.graph_path == "extended"
        assert third.graph.data_graph is third.data_graph
        assert third.graph.num_nodes == first.graph.num_nodes + 1
        assert third.graph.num_edges == first.graph.num_edges + 2
        ingest.remove_edge("p_new", "v7", "cites")
        fourth = ingest.refresh(previous=third.ranker)
        assert len(builds) == 2
        assert fourth.graph_path == "built"
        assert fourth.graph.num_edges == first.graph.num_edges

    def test_refresh_leaves_the_sell_layout_to_the_first_live_query(
        self, ingest, monkeypatch
    ):
        layouts = []
        build = transfer_graph.sell_layout

        def counting(*args):
            layouts.append(build(*args))
            return layouts[-1]

        monkeypatch.setattr(transfer_graph, "sell_layout", counting)
        first = ingest.refresh()
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        ingest.add_edge("p_new", "v7", "cites")
        refreshed = ingest.refresh(previous=first.ranker)
        assert layouts == []
        objectrank(refreshed.graph, ["p_new"])
        assert len(layouts) == (1 if _native.available() else 0)

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


class TestSeededWithTheCallersGraph:
    """Given the caller's transfer graph, the first refresh rebinds or
    extends it; each snapshot's graph carries the snapshot's index."""

    @pytest.fixture
    def seeded(self, figure1):
        index = InvertedIndex.from_graph(figure1.data_graph)
        graph = AuthorityTransferDataGraph(
            figure1.data_graph, figure1.transfer_schema, index
        )
        return graph, IngestEngine(
            figure1.data_graph, figure1.transfer_schema, index, graph,
            min_document_frequency=1,
        )

    def test_the_first_content_refresh_rebinds(self, seeded):
        graph, ingest = seeded
        ingest.update_node("v7", {"title": "Data Cube: A Relational Sketch"})
        result = ingest.refresh(precompute=False)
        assert result.graph_path == "rebound"
        assert result.graph.edge_source is graph.edge_source
        assert result.graph.index is result.index
        assert graph.index is not result.index

    def test_the_first_appending_refresh_extends(self, seeded, figure1):
        graph, ingest = seeded
        ingest.add_node("p_new", "Paper", {"title": "Streaming OLAP"})
        ingest.add_edge("p_new", "v7", "cites")
        result = ingest.refresh(precompute=False)
        assert result.graph_path == "extended"
        assert result.graph.index is result.index
        built = AuthorityTransferDataGraph(result.data_graph, figure1.transfer_schema)
        assert np.array_equal(result.graph.edge_source, built.edge_source)
        assert np.array_equal(result.graph.edge_type_index, built.edge_type_index)

    def test_a_later_edit_of_the_callers_data_graph_is_not_the_engines(self, figure1):
        """The seed is pinned to the snapshot the working copy started from:
        the caller's own edit, as many topology mutations as ours, does not
        make the engine rebind a graph over other nodes."""
        data_graph = figure1.data_graph.copy()
        graph = AuthorityTransferDataGraph(data_graph, figure1.transfer_schema)
        ingest = IngestEngine(data_graph, figure1.transfer_schema, graph=graph)
        data_graph.add_node("theirs", "Paper", {"title": "elsewhere"})
        ingest.add_node("ours", "Paper", {"title": "here"})
        result = ingest.refresh(precompute=False)
        assert result.graph_path == "extended"
        assert result.graph.node_ids[-1] == "ours"
        assert "theirs" not in result.graph.node_ids

    def test_a_graph_over_another_data_graph_is_refused(self, figure1):
        """Even one with as many nodes and edges: the version counters of
        two unrelated graphs say nothing about their nodes."""
        renamed = DataGraph()
        for node in figure1.data_graph.nodes():
            renamed.add_node(node.node_id + "x", node.label, node.attributes)
        for edge in figure1.data_graph.edges():
            renamed.add_edge(edge.source + "x", edge.target + "x", edge.role)
        graph = AuthorityTransferDataGraph(renamed, figure1.transfer_schema)
        assert renamed.version == figure1.data_graph.version
        with pytest.raises(GraphError, match="another data graph"):
            IngestEngine(figure1.data_graph, figure1.transfer_schema, graph=graph)
