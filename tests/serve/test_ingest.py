"""Serve-tier ingest tests: /ingest wiring, staleness bounds, cache epochs.

The staleness-bug sweep lives here too: every response-facing cache must be
cohorted by the ingest epoch, so a query or explanation computed before a
mutation batch can never be served after the refresh that absorbed it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ReproError
from repro.graph.data_graph import DataGraph
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ir.tokenize import Analyzer
from repro.ranking.precompute import PrecomputedRanker
from repro.serve import QueryService, ServeConfig, http_server
from repro.serve.service import Deadline
from repro.store import build_and_publish, read_manifest

from tests.properties.test_explain_batch_properties import same_bits
from tests.serve.test_http_server import _boot, _request


def _service(figure1, **overrides):
    config = ServeConfig(
        datasets=("fig1",),
        precompute_min_document_frequency=1,
        ingest=True,
        **overrides,
    )
    return QueryService(config, datasets={"fig1": figure1})


ADD_PAPER = [
    {
        "op": "add_node",
        "node_id": "p_new",
        "label": "Paper",
        "attributes": {"title": "OLAP cube maintenance revisited"},
    },
    {"op": "add_edge", "source": "v7", "target": "p_new", "role": "cites"},
]


class TestDisabled:
    def test_ingest_off_by_default(self, figure1):
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute_min_document_frequency=1),
            datasets={"fig1": figure1},
        )
        with pytest.raises(ReproError, match="ingest is disabled"):
            service.ingest("fig1", ADD_PAPER)

    def test_responses_carry_no_staleness_without_ingest(self, figure1):
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute_min_document_frequency=1),
            datasets={"fig1": figure1},
        )
        assert "staleness" not in service.search("fig1", "OLAP")
        assert "staleness" not in service.explain("fig1", "OLAP", target="v7")
        assert "staleness" not in service.feedback_reformulate(
            "fig1", "OLAP", ["v7"], apply=False
        )


class TestStalenessBound:
    def test_responses_report_pending_mutations(self, figure1):
        service = _service(figure1, ingest_staleness_bound=10)
        before = service.search("fig1", "OLAP")
        assert before["staleness"]["pending_mutations"] == 0
        service.ingest("fig1", ADD_PAPER, refresh="none")
        after = service.search("fig1", "OLAP")
        assert after["staleness"]["pending_mutations"] == 2
        assert after["staleness"]["topology_dirty"]

    def test_bound_zero_refreshes_before_serving(self, figure1):
        service = _service(figure1)  # bound 0: never serve stale
        service.ingest("fig1", ADD_PAPER, refresh="none")
        response = service.search("fig1", "OLAP", top_k=8)
        assert response["staleness"]["pending_mutations"] == 0
        assert "p_new" in [r["id"] for r in response["results"]]

    def test_bound_allows_bounded_staleness(self, figure1):
        service = _service(figure1, ingest_staleness_bound=2)
        service.ingest("fig1", ADD_PAPER, refresh="none")
        within = service.search("fig1", "OLAP", top_k=8)
        assert within["staleness"]["pending_mutations"] == 2
        assert "p_new" not in [r["id"] for r in within["results"]]
        service.ingest(
            "fig1",
            [{"op": "update_node", "node_id": "p_new",
              "attributes": {"title": "OLAP cube upkeep"}}],
            refresh="none",
        )
        beyond = service.search("fig1", "OLAP", top_k=8)
        assert beyond["staleness"]["pending_mutations"] == 0
        assert "p_new" in [r["id"] for r in beyond["results"]]

    def test_feedback_refreshes_before_serving_like_search(self, figure1):
        # Regression: /feedback/reformulate skipped the staleness prologue,
        # answered from the pre-mutation snapshot and left the batch pending.
        service = _service(figure1)  # bound 0: never serve stale
        service.ingest("fig1", ADD_PAPER, refresh="none")
        response = service.feedback_reformulate(
            "fig1", "OLAP", ["p_new"], apply=False
        )
        assert response["staleness"]["pending_mutations"] == 0
        assert service.runtime("fig1").ingest.pending_mutations == 0
        assert response["relevant_ids"] == ["p_new"]

    @pytest.mark.parametrize("bound, pending", [(0, 0), (10, 2)])
    def test_every_read_endpoint_carries_the_staleness_block(
        self, figure1, bound, pending
    ):
        # Regression: only /search responses carried the documented block.
        service = _service(figure1, ingest_staleness_bound=bound)
        service.ingest("fig1", ADD_PAPER, refresh="none")
        responses = {
            "search": service.search("fig1", "OLAP"),
            "explain": service.explain("fig1", "OLAP", target="v7"),
            "explain (cached)": service.explain("fig1", "OLAP", target="v7"),
            "feedback": service.feedback_reformulate(
                "fig1", "OLAP", ["v7"], apply=False
            ),
        }
        assert responses["explain (cached)"]["served_from"] == "cache"
        for endpoint, response in responses.items():
            staleness = response["staleness"]
            assert staleness["pending_mutations"] == pending, endpoint
            assert staleness["epoch"] == (1 if pending == 0 else 0), endpoint

    def test_auto_refresh_policy_respects_bound(self, figure1):
        service = _service(figure1, ingest_staleness_bound=5)
        out = service.ingest("fig1", ADD_PAPER, refresh="auto")
        assert out["refresh"] is None
        assert out["staleness"]["pending_mutations"] == 2

    def test_force_refresh_policy_ignores_bound(self, figure1):
        service = _service(figure1, ingest_staleness_bound=5)
        out = service.ingest("fig1", ADD_PAPER, refresh="force")
        assert out["refresh"] is not None
        assert out["staleness"]["pending_mutations"] == 0
        assert out["epoch"] == 1

    def test_unknown_refresh_policy_rejected(self, figure1):
        service = _service(figure1)
        with pytest.raises(ReproError, match="refresh"):
            service.ingest("fig1", ADD_PAPER, refresh="later")


class TestCacheEpochs:
    def test_result_cache_never_serves_pre_mutation_ranking(self, figure1):
        service = _service(figure1)
        first = service.search("fig1", "OLAP", top_k=8)
        cached = service.search("fig1", "OLAP", top_k=8)
        assert cached["served_from"] == "cache"
        service.ingest("fig1", ADD_PAPER, refresh="force")
        fresh = service.search("fig1", "OLAP", top_k=8)
        assert fresh["served_from"] != "cache"
        assert "p_new" in [r["id"] for r in fresh["results"]]
        assert "p_new" not in [r["id"] for r in first["results"]]

    def test_explain_never_serves_pre_mutation_topology(self, figure1):
        service = _service(figure1)
        service.ingest("fig1", ADD_PAPER, refresh="force")
        explained = service.explain("fig1", "OLAP", target="p_new")
        assert [
            e for e in explained["edges"] if e["target"] == "p_new"
        ], "v7 cites p_new: the explanation must show that inflow"
        # Remove the edge; the cached explanation belongs to the old epoch
        # and must not come back.
        service.ingest(
            "fig1",
            [{"op": "remove_edge", "source": "v7", "target": "p_new"}],
            refresh="force",
        )
        explained = service.explain("fig1", "OLAP", target="p_new")
        assert not [e for e in explained["edges"] if e["target"] == "p_new"]

    def test_refresh_invalidates_both_caches(self, figure1):
        service = _service(figure1, ingest_staleness_bound=10)
        service.search("fig1", "OLAP")
        service.explain("fig1", "OLAP", target="v7")
        service.ingest("fig1", ADD_PAPER, refresh="force")
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_cache_invalidations_total"] >= 2


    def test_reformulation_draws_terms_from_the_refreshed_text(self, figure1):
        """The node-term table is built over one snapshot's node text; a
        refresh that absorbed an ``update_node`` must not reuse it."""
        service = _service(figure1)
        before = service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=False)
        assert "zebrafish" not in before["reformulated_query"]
        service.ingest(
            "fig1",
            [{"op": "update_node", "node_id": "v4",
              "attributes": {"title": "OLAP zebrafish"}}],
            refresh="force",
        )
        after = service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=False)
        assert "zebrafish" in after["reformulated_query"]


class TestMutationErrors:
    def test_bad_mutations_reported_not_fatal(self, figure1):
        service = _service(figure1, ingest_staleness_bound=10)
        out = service.ingest(
            "fig1",
            [
                {"op": "add_edge", "source": "nope", "target": "v7"},
                {"op": "warp_graph"},
                ADD_PAPER[0],
            ],
            refresh="none",
        )
        assert out["applied"] == 1
        positions = [error["position"] for error in out["errors"]]
        assert positions == [0, 1]
        assert out["errors"][1]["op"] == "warp_graph"
        assert out["staleness"]["pending_mutations"] == 1

    def test_failed_mutations_do_not_advance_graph_version(self, figure1):
        service = _service(figure1, ingest_staleness_bound=10)
        before = service.ingest("fig1", [ADD_PAPER[0]], refresh="none")
        after = service.ingest(
            "fig1",
            [{"op": "add_edge", "source": "nope", "target": "v7"}],
            refresh="none",
        )
        assert after["graph_version"] == before["graph_version"]


NONCONFORMING = [
    {"op": "add_node", "node_id": "weird", "label": "Venue"},
    {"op": "add_edge", "source": "v7", "target": "v4", "role": "authored"},
    {"op": "add_edge", "source": "v6", "target": "v6"},
]


class TestNonconformingMutations:
    """One bad mutation used to fail every later refresh of the dataset."""

    @pytest.mark.parametrize("mutation", NONCONFORMING, ids=lambda m: m["op"])
    def test_refused_at_apply_and_the_dataset_keeps_serving(self, figure1, mutation):
        service = _service(figure1)  # bound 0: every request refreshes first
        out = service.ingest("fig1", [mutation, *ADD_PAPER])
        assert out["applied"] == len(ADD_PAPER)
        assert [(e["position"], e["op"]) for e in out["errors"]] == [(0, mutation["op"])]
        assert "does not conform" in out["errors"][0]["error"]
        assert out["staleness"]["pending_mutations"] == 0
        for mode in ("auto", "live"):
            hits = service.search("fig1", "OLAP", top_k=8, mode=mode)["results"]
            assert "p_new" in [r["id"] for r in hits]
        forced = service.ingest("fig1", [], refresh="force")
        assert forced["errors"] == [] and forced["refresh"] is not None


class TestGraphPath:
    def test_the_refresh_block_names_how_the_graph_came_about(self, figure1):
        service = _service(figure1)
        update = [{"op": "update_node", "node_id": "v5", "attributes": {"title": "x"}}]
        removal = [{"op": "remove_edge", "source": "v7", "target": "p_new",
                    "role": "cites"}]
        paths = [
            service.ingest("fig1", batch, refresh="force")["refresh"]["graph"]
            for batch in (update, ADD_PAPER, removal, update)
        ]
        # The first refresh starts from the engine's own graph.
        assert paths == ["rebound", "extended", "built", "rebound"]


class TestTokenisesOnce:
    def test_feedback_tokenises_no_node_text_before_or_after_a_refresh(
        self, figure1, monkeypatch
    ):
        """Eq. 11's node-term table is read off the served index: a warmed
        ``/feedback/reformulate`` runs the analyzer on no node text, and
        neither does the first one after a content-only ``/ingest`` refresh,
        which builds the new version's table.  Query keywords may be
        tokenised; the refresh itself indexes the rewritten title."""
        title = "Zebrafish OLAP cubes"
        update = [{"op": "update_node", "node_id": "v4", "attributes": {"title": title}}]
        service = _service(figure1)
        calls: list[list[str]] = [[]]
        real = Analyzer.terms
        monkeypatch.setattr(
            Analyzer,
            "terms",
            lambda self, text: calls[-1].append(text) or real(self, text),
        )
        body = {"dataset": "fig1", "query": "OLAP", "relevant_ids": ["v4"], "apply": False}
        server, thread = _boot(service)
        try:
            replies = [_request(f"{server.url}/feedback/reformulate", body)]
            for route, payload in (
                ("feedback/reformulate", body),
                ("ingest", {"dataset": "fig1", "mutations": update, "refresh": "force"}),
                ("feedback/reformulate", body),
            ):
                calls.append([])
                replies.append(_request(f"{server.url}/{route}", payload))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert [status for status, _ in replies] == [200] * 4
        _, warmed, refreshed, after = calls
        node_texts = {node.text() for node in figure1.data_graph.nodes()}
        node_texts |= {node.text() for node in service.runtime("fig1").data_graph.nodes()}
        assert any(title in text for text in refreshed)  # the hook sees the index
        assert not node_texts & set(warmed)
        assert not node_texts & set(after)
        assert "zebrafish" in replies[-1][1]["reformulated_query"]
        assert "zebrafish" not in replies[1][1]["reformulated_query"]


    def test_no_superseded_index_stays_alive(self, figure1):
        """A graph carries its snapshot's index, and every content refresh
        rebinds the last graph: once adopted over, an index is released,
        whatever the node-term tables and views built over it."""
        import gc
        import weakref

        service = _service(figure1)
        runtime = service.runtime("fig1")
        body = ("fig1", "OLAP", ["v4"])
        indexes = []
        for title in ("OLAP cubes", "OLAP lattices", "OLAP views"):
            service.feedback_reformulate(*body)
            indexes.append(weakref.ref(runtime.engine.index))
            update = [{"op": "update_node", "node_id": "v4", "attributes": {"title": title}}]
            service.ingest("fig1", update, refresh="force")
        service.feedback_reformulate(*body, apply=False)
        gc.collect()
        assert [ref() is None for ref in indexes] == [True, True, True]
        assert runtime.engine.graph.index is runtime.engine.index


class TestDeadline:
    def test_an_expired_forced_ingest_leaves_its_batch_pending(
        self, figure1, monkeypatch
    ):
        """The deadline runs out after the batch applied, before the refresh:
        503, the batch stays pending, and the next refresh consumes it."""
        service = _service(figure1, ingest_staleness_bound=1_000)
        runtime = service.runtime("fig1")
        engine = runtime.ingest
        service.search("fig1", "OLAP")  # the precompute the refresh carries from

        def clock() -> float:
            # Time passes only once the batch is in the working copy.
            return 60.0 if engine.pending_mutations else 0.0

        monkeypatch.setattr(
            http_server, "Deadline", lambda seconds: Deadline(seconds, clock=clock)
        )
        server, thread = _boot(service)
        try:
            status, payload = _request(
                f"{server.url}/ingest",
                {"dataset": "fig1", "mutations": ADD_PAPER, "refresh": "force"},
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert (status, payload["error"]) == (503, "deadline_exceeded")
        assert "ingest refresh" in payload["message"]
        assert engine.pending_mutations == len(ADD_PAPER)
        assert (engine.epoch, runtime.ingest_epoch) == (0, 0)

        refresh = service.ingest("fig1", [], refresh="force")["refresh"]
        assert refresh["pending_consumed"] == len(ADD_PAPER)
        assert engine.pending_mutations == 0
        served = runtime.precomputed_ranker()
        expected = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        assert "p_new" in served.node_ids
        assert served.keywords == expected.keywords
        for keyword in expected.keywords:
            assert same_bits(served.vector(keyword), expected.vector(keyword))


class TestMetrics:
    def test_ingest_counters(self, figure1):
        service = _service(figure1, ingest_staleness_bound=10)
        service.ingest("fig1", ADD_PAPER, refresh="force")
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_ingest_mutations_total"] == 2
        assert snapshot["repro_ingest_refreshes_total"] == 1
        assert snapshot["repro_ingest_columns_recomputed_total"] > 0


class TestStoreIntegration:
    def test_refresh_publishes_next_generation(self, figure1, tmp_path):
        store_root = tmp_path / "stores"
        service = _service(
            figure1,
            store_dir=str(store_root),
            store_refresh_seconds=0.0,
        )
        service.preload()
        runtime = service.runtime("fig1")
        seed = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        build_and_publish(store_root / "fig1", seed, "fig1")
        first = service.search("fig1", "OLAP")
        assert first["served_from"] == "store"
        assert first["store_generation"] == 1

        out = service.ingest("fig1", ADD_PAPER, refresh="force")
        assert out["refresh"] is not None
        manifest = read_manifest(store_root / "fig1")
        assert manifest.generation == 2

        fresh = service.search("fig1", "OLAP", top_k=8)
        assert fresh["served_from"] == "store"
        assert fresh["store_generation"] == 2
        assert "p_new" in [r["id"] for r in fresh["results"]]

    def test_the_refresh_after_a_failed_publish_equals_a_full_build(
        self, figure1, tmp_path, monkeypatch
    ):
        service = _service(figure1, store_dir=str(tmp_path / "stores"))
        runtime = service.runtime("fig1")
        update = [{"op": "update_node", "node_id": "v5", "attributes": {"title": "x"}}]
        service.ingest("fig1", update, refresh="force")

        def fail(*args, **kwargs):
            raise OSError("injected publish failure")

        update[0].update(node_id="v1", attributes={"title": "Index Selection"})
        with monkeypatch.context() as patch:
            patch.setattr(runtime.store, "publish", fail)
            with pytest.raises(OSError, match="injected"):
                service.ingest("fig1", update, refresh="force")
        update[0].update(node_id="v7", attributes={"title": "Data Cube"})
        out = service.ingest("fig1", update, refresh="force")
        assert out["refresh"]["full_rebuild"]
        served = runtime.precomputed_ranker()
        expected = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        assert served.keywords == expected.keywords
        for keyword in expected.keywords:
            assert np.array_equal(served.vector(keyword), expected.vector(keyword))

    def _refresh_over_published(self, figure1, tmp_path, data_graph):
        """Publish a ranker built over ``data_graph`` as generation 1 of a
        store-backed runtime, then rewrite one title and refresh."""
        store_root = tmp_path / "stores"
        service = _service(figure1, store_dir=str(store_root))
        runtime = service.runtime("fig1")
        graph = AuthorityTransferDataGraph(data_graph, figure1.transfer_schema)
        seed = PrecomputedRanker(
            graph, InvertedIndex.from_graph(data_graph), min_document_frequency=1
        )
        build_and_publish(store_root / "fig1", seed, "fig1")
        update = [{"op": "update_node", "node_id": "v7", "attributes": {"title": "x"}}]
        refresh = service.ingest("fig1", update, refresh="force")["refresh"]
        served = runtime.precomputed_ranker()
        expected = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        assert served.keywords == expected.keywords
        for keyword in expected.keywords:
            assert same_bits(served.vector(keyword), expected.vector(keyword))
        return refresh

    def test_the_first_refresh_carries_from_the_published_generation(
        self, figure1, tmp_path
    ):
        refresh = self._refresh_over_published(figure1, tmp_path, figure1.data_graph)
        assert not refresh["full_rebuild"]
        assert refresh["carried_columns"] > refresh["recomputed_columns"] > 0

    def test_a_published_generation_over_other_nodes_is_not_carried(
        self, figure1, tmp_path
    ):
        # The same objects and links added in reverse: the same
        # graph_version, but every column indexed by another node order.
        source = figure1.data_graph
        reordered = DataGraph()
        for node_id in reversed(source.node_ids()):
            node = source.node(node_id)
            reordered.add_node(node_id, node.label, node.attributes)
        for edge in source.edges():
            reordered.add_edge(edge.source, edge.target, edge.role)
        assert reordered.version == source.version
        assert reordered.node_ids() != source.node_ids()
        refresh = self._refresh_over_published(figure1, tmp_path, reordered)
        assert refresh["full_rebuild"]
        assert refresh["carried_columns"] == 0

    def test_published_generation_reaches_a_concurrent_reader(
        self, figure1, tmp_path
    ):
        """Generation-swap under a concurrent reader: a second service
        process-alike (own StoreManager over the same directory) picks up
        the ingest-published generation between requests."""
        store_root = tmp_path / "stores"
        builder = _service(
            figure1, store_dir=str(store_root), store_refresh_seconds=0.0
        )
        builder.preload()
        runtime = builder.runtime("fig1")
        seed = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        build_and_publish(store_root / "fig1", seed, "fig1")

        reader = QueryService(
            ServeConfig(
                datasets=("fig1",),
                precompute_min_document_frequency=1,
                store_dir=str(store_root),
                store_refresh_seconds=0.0,
            ),
            datasets={"fig1": figure1},
        )
        assert reader.search("fig1", "OLAP")["store_generation"] == 1

        builder.ingest("fig1", ADD_PAPER, refresh="force")
        fresh = reader.search("fig1", "OLAP", top_k=8)
        assert fresh["store_generation"] == 2
        # The reader's local graph predates the mutation; the store row for
        # p_new must still be served (degrading to an id-only entry).
        entry = [r for r in fresh["results"] if r["id"] == "p_new"]
        assert entry and entry[0]["score"] > 0
