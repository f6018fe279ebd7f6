"""Store-backed QueryService tests: routing, generation keys, bit-identity."""

from __future__ import annotations

import pytest

from repro.ranking.precompute import PrecomputedRanker
from repro.serve import QueryService, ServeConfig
from repro.store import build_and_publish


@pytest.fixture
def store_root(tmp_path):
    return tmp_path / "stores"


@pytest.fixture
def store_service(figure1, store_root):
    """A service routed through an (initially empty) mmap score store."""
    return QueryService(
        ServeConfig(
            datasets=("fig1",),
            precompute_min_document_frequency=1,
            store_dir=str(store_root),
            store_refresh_seconds=0.0,  # re-check the manifest every request
        ),
        datasets={"fig1": figure1},
    )


@pytest.fixture
def memory_service(figure1):
    """The classic in-process precompute service, for bit-identity checks."""
    return QueryService(
        ServeConfig(datasets=("fig1",), precompute_min_document_frequency=1),
        datasets={"fig1": figure1},
    )


def _publish(store_root, service, dataset="fig1"):
    runtime = service.runtime(dataset)
    ranker = PrecomputedRanker(
        runtime.engine.graph, runtime.engine.index, min_document_frequency=1
    )
    return build_and_publish(store_root / dataset, ranker, dataset)


class TestRouting:
    def test_empty_store_routes_live(self, store_service):
        response = store_service.search("fig1", "OLAP")
        assert response["served_from"] == "live"
        assert "store_generation" not in response

    def test_published_store_serves_zero_copy(self, store_service, store_root):
        _publish(store_root, store_service)
        response = store_service.search("fig1", "OLAP")
        assert response["served_from"] == "store"
        assert response["store_generation"] == 1
        assert response["iterations"] == 0
        snapshot = store_service.metrics.snapshot()
        assert snapshot["repro_served_store_total"] == 1

    def test_store_response_bit_identical_to_in_memory(
        self, store_service, memory_service, store_root
    ):
        _publish(store_root, store_service)
        from_store = store_service.search("fig1", "OLAP data", top_k=7)
        from_memory = memory_service.search("fig1", "OLAP data", top_k=7)
        assert from_memory["served_from"] == "precomputed"
        assert from_store["served_from"] == "store"
        assert from_store["results"] == from_memory["results"]

    def test_generation_is_part_of_the_cache_key(
        self, store_service, store_root
    ):
        _publish(store_root, store_service)
        assert store_service.search("fig1", "OLAP")["served_from"] == "store"
        assert store_service.search("fig1", "OLAP")["served_from"] == "cache"
        _publish(store_root, store_service)  # generation 2: new cache cohort
        bumped = store_service.search("fig1", "OLAP")
        assert bumped["served_from"] == "store"
        assert bumped["store_generation"] == 2


class TestRebuild:
    def test_rebuild_publishes_next_generation(self, store_service, store_root):
        """A rebuild published through the runtime's manager is the
        generation the runtime serves next, without a restart."""
        _publish(store_root, store_service)
        runtime = store_service.runtime("fig1")
        assert runtime.store_generation() is None  # nothing loaded yet
        assert runtime.precomputed_ranker() is not None
        assert runtime.store_generation() == 1
        rebuilt = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        runtime.store.publish(rebuilt, "fig1")
        assert runtime.precomputed_ranker().source.generation == 2
        assert runtime.store_generation() == 2

    def test_stale_store_routes_live_until_republished(
        self, store_service, store_root
    ):
        """A generation published under other rates than the dataset serves
        (one built under trained rates, say) is stale: ``is_stale``'s rate
        check routes around it until one built under the serving rates."""
        runtime = store_service.runtime("fig1")
        edge_type = runtime.rates.edge_types()[0]
        changed = runtime.rates.with_vector(
            [runtime.rates.rate(edge_type) / 2 + 0.05], [edge_type]
        )
        other = PrecomputedRanker(
            runtime.engine.transfer_view(changed),
            runtime.engine.index,
            min_document_frequency=1,
        )
        build_and_publish(store_root / "fig1", other, "fig1")
        response = store_service.search("fig1", "OLAP")
        assert (response["served_from"], response["store_generation"]) == ("live", 1)
        assert runtime.precomputed_ranker().is_stale(runtime.rates)
        _publish(store_root, store_service)
        response = store_service.search("fig1", "OLAP")
        assert (response["served_from"], response["store_generation"]) == ("store", 2)


class TestIntrospection:
    def test_health_reports_store_generations(self, store_service, store_root):
        _publish(store_root, store_service)
        store_service.search("fig1", "OLAP")
        health = store_service.health()
        assert health["store"]["dir"] == str(store_root)
        assert health["store"]["generations"] == {"fig1": 1}

    def test_metrics_expose_store_gauges(self, store_service, store_root):
        _publish(store_root, store_service)
        store_service.search("fig1", "OLAP")
        text = store_service.metrics_text()
        assert "repro_store_generation 1" in text
        assert "repro_store_swaps 0" in text
        assert "repro_store_load_errors 0" in text
        assert "repro_served_store_total 1" in text

    def test_swap_gauge_counts_generation_flips(self, store_service, store_root):
        _publish(store_root, store_service)
        store_service.search("fig1", "OLAP")
        _publish(store_root, store_service)
        store_service.search("fig1", "OLAP")
        assert "repro_store_swaps 1" in store_service.metrics_text()
