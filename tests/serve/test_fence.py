"""Every serve cache is fenced by what its answers were computed under.

A request's :class:`~repro.serve.cache.Fence` holds the query and rate
fingerprints, the ingest epoch and the store generation.  Each test here
changes exactly one of them *without* the service's explicit invalidation,
so the only thing standing between the request and a stale answer is that
component of the fence.  (The node list a kept ranking must index is not in
the fence but read by the session; ``test_session_transport.py`` tests it,
including a refresh adopted after the request read its fence.)
"""

from __future__ import annotations

import pytest

from repro.ranking.precompute import PrecomputedRanker
from repro.serve import QueryService, ServeConfig
from repro.store import StoreManager, build_and_publish

ADD_PAPER = [
    {
        "op": "add_node",
        "node_id": "p_new",
        "label": "Paper",
        "attributes": {"title": "OLAP cube maintenance revisited"},
    },
    {"op": "add_edge", "source": "v7", "target": "p_new", "role": "cites"},
]


def live_service(figure1, **overrides) -> QueryService:
    """Figure 1, precompute off: every miss ranks live."""
    return QueryService(
        ServeConfig(datasets=("fig1",), precompute=False, **overrides),
        datasets={"fig1": figure1},
    )


class TestRateFingerprint:
    @pytest.fixture
    def service(self, figure1):
        service = live_service(figure1)
        runtime = service.runtime("fig1")
        self.rates = runtime.rates
        vector = self.rates.as_vector()
        self.learned = self.rates.with_vector([vector[0] / 2] + vector[1:])
        return service

    def test_search_under_other_rates_misses(self, service):
        before = service.search("fig1", "OLAP", top_k=7)
        assert service.search("fig1", "OLAP", top_k=7)["served_from"] == "cache"
        service.runtime("fig1").apply_rates(self.learned)
        after = service.search("fig1", "OLAP", top_k=7)
        assert after["served_from"] == "live"
        assert after["results"] != before["results"]

    def test_explain_under_other_rates_misses(self, service):
        service.explain("fig1", "OLAP", "v7")
        assert service.explain("fig1", "OLAP", "v7")["served_from"] == "cache"
        service.runtime("fig1").apply_rates(self.learned)
        assert service.explain("fig1", "OLAP", "v7")["served_from"] == "live"
        service.runtime("fig1").apply_rates(self.rates)
        assert service.explain("fig1", "OLAP", "v7")["served_from"] == "cache"


class TestIngestEpoch:
    @pytest.fixture
    def service(self, figure1):
        return live_service(
            figure1, ingest=True, precompute_min_document_frequency=1
        )

    @staticmethod
    def adopt_without_invalidating(service):
        """Apply and adopt a mutation batch behind the service's back."""
        runtime = service.runtime("fig1")
        applied, errors = runtime.ingest.apply_batch(ADD_PAPER)
        assert (applied, errors) == (2, [])
        assert runtime.refresh_ingest(force=True)["epoch"] == 1

    def test_search_after_an_adopted_snapshot_misses(self, service):
        first = service.search("fig1", "OLAP", top_k=8)
        assert service.search("fig1", "OLAP", top_k=8)["served_from"] == "cache"
        self.adopt_without_invalidating(service)
        fresh = service.search("fig1", "OLAP", top_k=8)
        assert fresh["served_from"] == "live"
        assert "p_new" in [row["id"] for row in fresh["results"]]
        assert "p_new" not in [row["id"] for row in first["results"]]

    def test_explain_after_an_adopted_snapshot_misses(self, service):
        service.explain("fig1", "OLAP", "v7")
        assert service.explain("fig1", "OLAP", "v7")["served_from"] == "cache"
        self.adopt_without_invalidating(service)
        fresh = service.explain("fig1", "OLAP", "v7")
        assert fresh["served_from"] == "live"
        assert fresh["staleness"]["epoch"] == 1


class TestStoreGeneration:
    @pytest.fixture
    def store_root(self, tmp_path):
        return tmp_path / "stores"

    @pytest.fixture
    def service(self, figure1, store_root):
        return QueryService(
            ServeConfig(
                datasets=("fig1",),
                precompute_min_document_frequency=1,
                store_dir=str(store_root),
                store_refresh_seconds=0.0,
            ),
            datasets={"fig1": figure1},
        )

    @staticmethod
    def publish(store_root, service):
        runtime = service.runtime("fig1")
        ranker = PrecomputedRanker(
            runtime.engine.graph, runtime.engine.index, min_document_frequency=1
        )
        return build_and_publish(store_root / "fig1", ranker, "fig1")

    def test_the_generation_is_the_answering_stores(
        self, service, store_root, monkeypatch
    ):
        """A swap right after the request pinned its ranker: the payload and
        the cache key name the generation that ranked, not the new one."""
        self.publish(store_root, service)
        ranker = StoreManager.ranker

        def ranker_then_swap(manager):
            answering = ranker(manager)
            monkeypatch.setattr(StoreManager, "ranker", ranker)
            self.publish(store_root, service)
            assert manager.refresh(force=True)
            return answering

        monkeypatch.setattr(StoreManager, "ranker", ranker_then_swap)
        raced = service.search("fig1", "OLAP")
        assert service.runtime("fig1").store.generation == 2
        assert raced["served_from"] == "store"
        assert raced["store_generation"] == 1
        after = service.search("fig1", "OLAP")
        assert after["served_from"] == "store"
        assert after["store_generation"] == 2
