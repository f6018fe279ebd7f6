"""Serve-tier ingest tests: /ingest wiring, staleness bounds, cache epochs.

The staleness-bug sweep lives here too: every response-facing cache must be
cohorted by the ingest epoch, so a query or explanation computed before a
mutation batch can never be served after the refresh that absorbed it.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ReproError
from repro.ranking.precompute import PrecomputedRanker
from repro.serve import QueryService, ServeConfig
from repro.store import build_and_publish, read_manifest


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
