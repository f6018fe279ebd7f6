"""Unit tests for QueryService routing, caching and invalidation wiring."""

from __future__ import annotations

import pytest

from repro.core import ObjectRankSystem
from repro.errors import ReproError
from repro.ranking import _native
from repro.ranking.precompute import PrecomputedRanker
from repro.serve import Deadline, DeadlineExceededError, QueryService, ServeConfig

from tests.properties.test_explain_batch_properties import same_bits


@pytest.fixture
def service(figure1):
    """A service over the 7-node Figure 1 dataset with precompute enabled."""
    return QueryService(
        ServeConfig(datasets=("fig1",), precompute_min_document_frequency=1),
        datasets={"fig1": figure1},
    )


@pytest.fixture
def live_service(figure1):
    """Same dataset, precomputed vectors disabled: every miss runs live."""
    return QueryService(
        ServeConfig(datasets=("fig1",), precompute=False),
        datasets={"fig1": figure1},
    )


class TestRouting:
    def test_first_query_runs_live_without_precompute(self, live_service):
        response = live_service.search("fig1", "OLAP")
        assert response["served_from"] == "live"
        assert response["iterations"] > 0
        assert response["results"][0]["id"] == "v7"

    def test_repeat_query_served_from_cache(self, live_service):
        first = live_service.search("fig1", "OLAP")
        second = live_service.search("fig1", "OLAP")
        assert second["served_from"] == "cache"
        assert [r["id"] for r in second["results"]] == [
            r["id"] for r in first["results"]
        ]
        snapshot = live_service.metrics.snapshot()
        assert snapshot["repro_cache_hits_total"] == 1
        assert snapshot["repro_cache_misses_total"] == 1

    def test_auto_prefers_fresh_precomputed_on_miss(self, service):
        response = service.search("fig1", "OLAP")
        assert response["served_from"] == "precomputed"
        assert response["iterations"] == 0
        assert response["results"]

    def test_live_mode_bypasses_cache_read(self, live_service):
        live_service.search("fig1", "OLAP")
        forced = live_service.search("fig1", "OLAP", mode="live")
        assert forced["served_from"] == "live"

    def test_a_live_answer_is_never_served_to_auto(self, figure1, service):
        # Live and auto share a cache key, but a live run is not the blend
        # auto answers with: auto after live must be a fresh service's auto.
        service.search("fig1", "OLAP", mode="live")
        after = service.search("fig1", "OLAP")
        fresh = QueryService(service.config, datasets={"fig1": figure1})
        expected = fresh.search("fig1", "OLAP")
        assert after["served_from"] == expected["served_from"] == "precomputed"
        assert [r["id"] for r in after["results"]] == [r["id"] for r in expected["results"]]
        assert same_bits(
            [r["score"] for r in after["results"]],
            [r["score"] for r in expected["results"]],
        )

    def test_unknown_mode_raises(self, service):
        with pytest.raises(ReproError, match="unknown mode"):
            service.search("fig1", "OLAP", mode="turbo")
        with pytest.raises(ReproError, match="unknown mode"):
            service.search("fig1", "OLAP", mode="precomputed")

    def test_unknown_dataset_raises(self, service):
        with pytest.raises(ReproError, match="not served"):
            service.search("nope", "OLAP")

    def test_empty_base_set_yields_empty_results(self, live_service):
        response = live_service.search("fig1", "nonexistentterm")
        assert response["results"] == []
        assert response["served_from"] == "live"

    def test_label_filter(self, live_service):
        response = live_service.search("fig1", "OLAP", labels=("Author",))
        assert response["results"]
        assert all(r["label"] == "Author" for r in response["results"])

    def test_label_filter_is_part_of_the_cache_key(self, live_service):
        unfiltered = live_service.search("fig1", "OLAP")
        filtered = live_service.search("fig1", "OLAP", labels=("Author",))
        assert filtered["served_from"] != "cache"
        assert [r["id"] for r in filtered["results"]] != [
            r["id"] for r in unfiltered["results"]
        ]

    def test_results_match_direct_engine_search(self, live_service):
        response = live_service.search("fig1", "OLAP", top_k=5)
        engine = live_service.runtime("fig1").engine
        expected = engine.search("OLAP", top_k=5)
        assert [r["id"] for r in response["results"]] == expected.hit_ids()
        assert [r["score"] for r in response["results"]] == pytest.approx(
            [score for _, score in expected.top]
        )

    def test_unanswerable_precomputed_query_is_not_cached(self, figure1):
        """A df = 1 term has no column under the default ``min_df = 2``: the
        ranker's refusal is never cached, the live answer that replaces it
        is."""
        service = QueryService(ServeConfig(datasets=("fig1",)), datasets={"fig1": figure1})
        assert not service.runtime("fig1").precomputed_ranker().has_keyword(
            "multidimensional"
        )
        first = service.search("fig1", "multidimensional")
        assert first["served_from"] == "live"
        assert first["results"] and first["iterations"] > 0
        again = service.search("fig1", "multidimensional")
        assert again["served_from"] == "cache"
        assert again["results"] == first["results"]
        assert service.metrics.snapshot()["repro_served_precomputed_total"] == 0


class TestDeadline:
    def test_expired_deadline_fails_fast(self, live_service):
        with pytest.raises(DeadlineExceededError):
            live_service.search("fig1", "OLAP", deadline=Deadline(0.0))

    def test_cache_hit_beats_an_expired_deadline(self, live_service):
        live_service.search("fig1", "OLAP")
        response = live_service.search("fig1", "OLAP", deadline=Deadline(0.0))
        assert response["served_from"] == "cache"

    def test_generous_deadline_passes(self, live_service):
        response = live_service.search("fig1", "OLAP", deadline=Deadline(30.0))
        assert response["results"]


class TestExplain:
    def test_explains_top_result(self, live_service):
        explanation = live_service.explain("fig1", "OLAP", "v7")
        assert explanation["target"] == "v7"
        assert explanation["target_inflow"] > 0
        assert explanation["adjustment_iterations"] > 0
        assert explanation["edges"]
        flows = [edge["flow"] for edge in explanation["edges"]]
        assert flows == sorted(flows, reverse=True)


    @pytest.mark.parametrize(
        "fixture, query", [("figure1", "OLAP"), ("dblp_tiny", "improved study")]
    )
    def test_edge_order_is_the_stable_descending_flow_sort(
        self, request, fixture, query
    ):
        """The payload's edges == ``sorted(triples, key=flow, reverse=True)``
        over the subgraph-order triples: equal flows keep their edge order."""
        dataset = request.getfixturevalue(fixture)
        service = QueryService(
            ServeConfig(datasets=("ds",), precompute=False), datasets={"ds": dataset}
        )
        system = ObjectRankSystem(
            dataset.data_graph,
            dataset.transfer_schema,
            ServeConfig().session_config(),
        )
        target = system.query(query).top[0][0]
        expected = sorted(
            system.explain(target).edge_flow_items(),
            key=lambda item: item[2],
            reverse=True,
        )
        served = service.explain("ds", query, target, max_edges=len(expected))
        assert [
            (e["source"], e["target"], e["flow"]) for e in served["edges"]
        ] == expected
        if fixture == "dblp_tiny":  # the tie order is really exercised
            flows = [flow for _, _, flow in expected]
            assert len(set(flows)) < len(flows)


class TestReformulationInvalidation:
    """A reformulation invalidates nothing: its learned rates rank its own
    re-run, and the dataset's caches and precomputed vectors stay valid."""

    def test_what_if_reformulation_leaves_serving_state_alone(self, service):
        service.search("fig1", "OLAP")
        runtime = service.runtime("fig1")
        rates_before = runtime.rates
        ranker = runtime.precomputed_ranker()
        outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=False)
        assert outcome["learned_rates"]
        assert runtime.rates is rates_before
        assert not ranker.is_stale(runtime.rates)
        assert len(service.cache) == 1
        assert service.search("fig1", "OLAP")["served_from"] == "cache"
        assert service.search("fig1", "OLAP", top_k=3)["served_from"] == "precomputed"

    def test_apply_is_refused_before_anything_runs(self, service):
        """``apply=True`` once made the learned rates every later request's
        serving rates; it is refused by name and counts no request."""
        service.search("fig1", "OLAP")
        with pytest.raises(ReproError, match="'apply' was removed"):
            service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=True)
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_requests_total"] == 1
        assert service.search("fig1", "OLAP")["served_from"] == "cache"

    def test_learned_rates_differ_from_initial(self, service, figure1):
        outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"])
        initial = {
            str(t): figure1.transfer_schema.rate(t)
            for t in figure1.transfer_schema.edge_types()
        }
        assert outcome["learned_rates"] != initial


class TestCoverageFallback:
    """Regression: a precomputed answer must never silently drop uncached
    query terms — a term without a column routes auto traffic back to live.
    Under the default ``min_df = 2``, Figure 1's "olap" has a column and the
    df = 1 "multidimensional" has none: the case production traffic hits."""

    @pytest.fixture
    def partial_service(self, figure1):
        return QueryService(ServeConfig(datasets=("fig1",)), datasets={"fig1": figure1})

    def test_auto_falls_back_to_live_on_partial_coverage(self, partial_service):
        response = partial_service.search("fig1", "OLAP multidimensional")
        assert response["served_from"] == "live"
        assert response["iterations"] > 0
        engine = partial_service.runtime("fig1").engine
        expected = engine.search("OLAP multidimensional", top_k=10)
        assert [(r["id"], r["score"]) for r in response["results"]] == expected.top

    def test_fully_covered_query_stays_precomputed(self, partial_service):
        response = partial_service.search("fig1", "OLAP")
        assert response["served_from"] == "precomputed"
        assert "coverage" not in response


class TestPrecomputeRebuild:
    """Feedback rebuilds nothing and serving adopts no learned rates: a
    query routes after a feedback as it did before, and vectors a builder
    rebuilds under the learned rates are not the serving rates' vectors."""

    def test_rebuilt_vectors_use_learned_rates(self, figure1, tmp_path):
        """A generation rebuilt under a feedback's learned rates is stale:
        the query runs live under the serving rates, bit for bit."""
        service = QueryService(
            ServeConfig(
                datasets=("fig1",),
                precompute_min_document_frequency=1,
                store_dir=str(tmp_path),
                store_refresh_seconds=0.0,
            ),
            datasets={"fig1": figure1},
        )
        runtime = service.runtime("fig1")
        engine = runtime.engine
        outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"])
        rates = runtime.rates
        learned = rates.with_vector([outcome["learned_rates"][n] for n in rates.names])
        assert learned != rates and runtime.rates is figure1.transfer_schema
        runtime.store.publish(
            PrecomputedRanker(
                engine.transfer_view(learned), engine.index, min_document_frequency=1
            ),
            "fig1",
        )
        after = service.search("fig1", "OLAP")
        assert (after["served_from"], after["store_generation"]) == ("live", 1)
        expected = engine.search("OLAP", top_k=10)
        assert [(r["id"], r["score"]) for r in after["results"]] == expected.top

    def test_without_rebuild_flag_path_stays_live(self, figure1):
        """A query the vectors do not cover stays live after a feedback on
        it, and one they cover stays precomputed."""
        service = QueryService(ServeConfig(datasets=("fig1",)), datasets={"fig1": figure1})

        def paths(top_k):
            return [
                service.search("fig1", query, top_k=top_k)["served_from"]
                for query in ("OLAP multidimensional", "OLAP")
            ]

        assert paths(10) == ["live", "precomputed"]
        service.feedback_reformulate("fig1", "OLAP multidimensional", ["v4"])
        assert paths(5) == ["live", "precomputed"]


class TestHealthAndMetrics:
    def test_health_reports_datasets_and_cache(self, live_service):
        live_service.search("fig1", "OLAP")
        health = live_service.health()
        assert health["status"] == "ok"
        assert health["datasets"]["loaded"] == ["fig1"]
        assert health["cache"]["size"] == 1

    def test_health_and_metrics_report_loaded_kernels(self, live_service):
        live_service.search("fig1", "OLAP")
        if not _native.available():
            pytest.skip("no compiled kernel in this process")
        native = live_service.health()["native"]
        assert native["state"] == "loaded"
        assert native["build"] in ("cached", "compiled", "temporary")
        assert "repro_native_available 1" in live_service.metrics_text()

    def test_health_and_metrics_report_missing_kernels(
        self, live_service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(_native, "_outcome", None)
        live_service.search("fig1", "OLAP")
        assert live_service.health()["native"] == {
            "state": "unavailable", "build": None, "reason": "REPRO_NO_NATIVE is set",
        }
        assert "repro_native_available 0" in live_service.metrics_text()

    def test_health_and_metrics_never_build_the_kernels(self, figure1, monkeypatch):
        def refuse():
            raise AssertionError("reading /healthz or /metrics built the kernels")

        monkeypatch.setattr(_native, "_outcome", None)
        monkeypatch.setattr(_native, "_load", refuse)
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute=False),
            datasets={"fig1": figure1},
        )
        assert service.health()["native"] == {
            "state": "not_loaded", "build": None, "reason": None,
        }
        assert "repro_native_available 0" in service.metrics_text()

    def test_metrics_text_is_prometheus_format(self, live_service):
        live_service.search("fig1", "OLAP")
        live_service.search("fig1", "OLAP")
        text = live_service.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_search_seconds_count 2" in text
        assert "repro_cache_entries 1" in text
