"""Unit tests for QueryService routing, caching and invalidation wiring."""

from __future__ import annotations

import pytest

from repro.core import ObjectRankSystem
from repro.errors import ReproError
from repro.serve import Deadline, DeadlineExceededError, QueryService, ServeConfig


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

    def test_precomputed_mode_reports_exact_source(self, service):
        response = service.search("fig1", "OLAP", mode="precomputed")
        assert response["served_from"] == "precomputed"
        assert response["iterations"] == 0

    def test_precomputed_mode_without_ranker_raises(self, live_service):
        with pytest.raises(ReproError, match="disabled"):
            live_service.search("fig1", "OLAP", mode="precomputed")

    def test_unknown_mode_raises(self, service):
        with pytest.raises(ReproError, match="unknown mode"):
            service.search("fig1", "OLAP", mode="turbo")

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
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute_keywords=("databases",)),
            datasets={"fig1": figure1},
        )
        forced = service.search("fig1", "OLAP", mode="precomputed")
        assert forced["results"] == []
        after = service.search("fig1", "OLAP")
        assert after["served_from"] == "live"
        assert after["results"]


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
            ServeConfig().session_config("full"),
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
    """The stale path: applying structure-based reformulation must invalidate
    both the result cache and the precomputed vectors."""

    def test_apply_invalidates_cache_and_stales_precompute(self, service):
        warm = service.search("fig1", "OLAP")
        assert warm["served_from"] in ("precomputed", "live")
        service.search("fig1", "OLAP")  # populate + prove cache works
        runtime = service.runtime("fig1")
        ranker = runtime.precomputed_ranker()
        assert not ranker.is_stale(runtime.rates)

        outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"])
        assert outcome["applied"] is True
        assert outcome["invalidated_cache_entries"] >= 1
        assert outcome["precomputed_stale"] is True

        # Both caches are gone: no entry for the dataset, ranker stale.
        assert len(service.cache) == 0
        assert ranker.is_stale(runtime.rates)

        # Subsequent identical traffic routes to live ObjectRank2.
        after = service.search("fig1", "OLAP")
        assert after["served_from"] == "live"
        assert after["iterations"] > 0

    def test_what_if_reformulation_leaves_serving_state_alone(self, service):
        service.search("fig1", "OLAP")
        runtime = service.runtime("fig1")
        rates_before = runtime.rates
        outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=False)
        assert outcome["applied"] is False
        assert outcome["invalidated_cache_entries"] == 0
        assert runtime.rates is rates_before
        assert len(service.cache) == 1
        assert service.search("fig1", "OLAP")["served_from"] == "cache"

    def test_learned_rates_differ_from_initial(self, service, figure1):
        outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"])
        initial = {
            str(t): figure1.transfer_schema.rate(t)
            for t in figure1.transfer_schema.edge_types()
        }
        assert outcome["learned_rates"] != initial

    def test_invalidation_only_hits_the_reformulated_dataset(self, figure1, bio_tiny):
        service = QueryService(
            ServeConfig(datasets=("fig1", "bio"), precompute=False),
            datasets={"fig1": figure1, "bio": bio_tiny},
        )
        service.search("fig1", "OLAP")
        service.search("bio", "cancer")
        service.feedback_reformulate("fig1", "OLAP", ["v4"])
        assert service.search("bio", "cancer")["served_from"] == "cache"
        assert service.search("fig1", "OLAP")["served_from"] == "live"


class TestCoverageFallback:
    """Regression: a precomputed answer must never silently drop uncached
    query terms — partial coverage routes auto traffic back to live."""

    @pytest.fixture
    def partial_service(self, figure1):
        return QueryService(
            ServeConfig(datasets=("fig1",), precompute_keywords=("olap",)),
            datasets={"fig1": figure1},
        )

    def test_auto_falls_back_to_live_on_partial_coverage(self, partial_service):
        response = partial_service.search("fig1", "OLAP multidimensional")
        assert response["served_from"] == "live"
        assert response["iterations"] > 0
        assert response["coverage"] == 1.0  # live ranks with every term

    def test_forced_precomputed_reports_partial_coverage(self, partial_service):
        with pytest.raises(ReproError, match="cover"):
            partial_service.search(
                "fig1", "OLAP multidimensional", mode="precomputed"
            )

    def test_threshold_admits_partial_coverage(self, figure1):
        service = QueryService(
            ServeConfig(
                datasets=("fig1",),
                precompute_keywords=("olap",),
                precompute_min_coverage=0.5,
            ),
            datasets={"fig1": figure1},
        )
        response = service.search("fig1", "OLAP multidimensional")
        assert response["served_from"] == "precomputed"
        assert response["coverage"] == pytest.approx(0.5)

    def test_fully_covered_query_stays_precomputed(self, partial_service):
        response = partial_service.search("fig1", "OLAP")
        assert response["served_from"] == "precomputed"
        assert response["coverage"] == 1.0


class TestPrecomputeRebuild:
    """With ``precompute_rebuild`` on, an applied reformulation rebuilds the
    per-keyword vectors under the learned rates instead of abandoning the
    precomputed fast path."""

    @pytest.fixture
    def rebuild_service(self, figure1):
        return QueryService(
            ServeConfig(
                datasets=("fig1",),
                precompute_min_document_frequency=1,
                precompute_rebuild=True,
            ),
            datasets={"fig1": figure1},
        )

    def test_reformulation_restores_precomputed_path(self, rebuild_service):
        assert rebuild_service.search("fig1", "OLAP")["served_from"] == "precomputed"
        outcome = rebuild_service.feedback_reformulate("fig1", "OLAP", ["v4"])
        assert outcome["applied"] is True
        assert outcome["precomputed_stale"] is False

        after = rebuild_service.search("fig1", "OLAP")
        assert after["served_from"] == "precomputed"
        assert after["iterations"] == 0

    def test_rebuilt_vectors_use_learned_rates(self, rebuild_service, figure1):
        before = rebuild_service.search("fig1", "OLAP")
        rebuild_service.feedback_reformulate("fig1", "OLAP", ["v4"])
        after = rebuild_service.search("fig1", "OLAP")
        runtime = rebuild_service.runtime("fig1")
        assert runtime.rates != figure1.transfer_schema

        from repro.ranking import keyword_objectrank

        view = runtime.engine.transfer_view(runtime.rates)
        exact = keyword_objectrank(view, runtime.engine.index, "olap")
        expected = exact.top_k(len(after["results"]))
        assert [r["id"] for r in after["results"]] == [nid for nid, _ in expected]
        assert [r["score"] for r in after["results"]] == pytest.approx(
            [score for _, score in expected], abs=1e-8
        )
        assert before["results"] != after["results"]

    def test_without_rebuild_flag_path_stays_live(self, service):
        service.search("fig1", "OLAP")
        service.feedback_reformulate("fig1", "OLAP", ["v4"])
        assert service.search("fig1", "OLAP")["served_from"] == "live"


class TestHealthAndMetrics:
    def test_health_reports_datasets_and_cache(self, live_service):
        live_service.search("fig1", "OLAP")
        health = live_service.health()
        assert health["status"] == "ok"
        assert health["datasets"]["loaded"] == ["fig1"]
        assert health["cache"]["size"] == 1

    def test_metrics_text_is_prometheus_format(self, live_service):
        live_service.search("fig1", "OLAP")
        live_service.search("fig1", "OLAP")
        text = live_service.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_search_seconds_count 2" in text
        assert "repro_cache_entries 1" in text
