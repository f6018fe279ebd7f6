"""Serve-tier tests for two-stage retrieval: routing, caching, metrics, HTTP.

Boots the :class:`QueryService` over ``dblp_tiny`` and exercises
``mode="two_stage"`` end to end: the payload accounting block, cache
cohorting by two-stage parameters, the override-rejection contract (removed
fusion parameters and the removed two-stage ``/explain`` included), and the
metric families on ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ReproError
from repro.retrieval.engine import TwoStageEngine
from repro.serve import QueryService, ServeConfig, create_server

QUERY = "improved study"


@pytest.fixture(scope="module")
def service(dblp_tiny):
    return QueryService(
        ServeConfig(datasets=("tiny",), precompute=False, candidates=25),
        datasets={"tiny": dblp_tiny},
    )


class TestServiceTwoStage:
    def test_two_stage_search_payload(self, service):
        payload = service.search("tiny", QUERY, top_k=5, mode="two_stage")
        assert payload["served_from"] == "two_stage"
        assert len(payload["results"]) == 5
        stages = payload["two_stage"]
        assert stages["requested_candidates"] == 25
        assert stages["candidates"] == 25
        assert "fusion" not in stages and "fusion_weight" not in stages
        assert stages["subgraph_nodes"] >= stages["candidates"]
        assert stages["stage1_seconds"] >= 0.0
        assert stages["stage2_seconds"] >= 0.0

    def test_repeat_request_is_a_cache_hit(self, service):
        first = service.search("tiny", QUERY, top_k=4, mode="two_stage")
        second = service.search("tiny", QUERY, top_k=4, mode="two_stage")
        assert second["served_from"] == "cache"
        assert second["results"] == first["results"]

    def test_parameter_overrides_start_fresh_cache_cohorts(self, service):
        base = service.search("tiny", QUERY, top_k=3, mode="two_stage")
        smaller = service.search(
            "tiny", QUERY, top_k=3, mode="two_stage", candidates=5
        )
        shallower = service.search(
            "tiny", QUERY, top_k=3, mode="two_stage", horizon=1
        )
        # Different candidate budget / horizon: never the cached answer.
        assert smaller["served_from"] == "two_stage"
        assert smaller["two_stage"]["candidates"] == 5
        assert shallower["served_from"] == "two_stage"
        assert shallower["two_stage"]["horizon"] == 1
        assert base["served_from"] in ("two_stage", "cache")

    def test_degenerate_two_stage_matches_live_ranking(self, service):
        """Candidates ⊇ corpus: same page as live, scores focused-close.

        Bit-identity is against *focused* ObjectRank2 (covered in
        tests/retrieval); live full ObjectRank2 differs only by flow from
        outside the horizon, so the page agrees and scores are close.
        """
        live = service.search("tiny", QUERY, top_k=10, mode="live")
        degenerate = service.search(
            "tiny", QUERY, top_k=10, mode="two_stage", candidates=10_000
        )
        assert [r["id"] for r in degenerate["results"]] == [
            r["id"] for r in live["results"]
        ]
        for mine, theirs in zip(degenerate["results"], live["results"]):
            assert mine["score"] == pytest.approx(theirs["score"], rel=1e-3)

    def test_neighborhood_overrides_echoed_and_separately_cached(self, service):
        capped = service.search(
            "tiny", QUERY, top_k=6, mode="two_stage",
            expand_cap=4, node_budget=64, max_horizon=4,
        )
        assert capped["served_from"] == "two_stage"
        assert capped["two_stage"]["expand_cap"] == 4
        assert capped["two_stage"]["node_budget"] == 64
        assert capped["two_stage"]["max_horizon"] == 4
        # A different expansion policy is a different cache cohort.
        uncapped = service.search("tiny", QUERY, top_k=6, mode="two_stage")
        assert uncapped["two_stage"]["expand_cap"] is None
        assert (
            uncapped["two_stage"]["subgraph_nodes"]
            >= capped["two_stage"]["subgraph_nodes"]
        )

    def test_overrides_outside_two_stage_rejected(self, service):
        with pytest.raises(ReproError, match="two_stage"):
            service.search("tiny", QUERY, mode="live", candidates=10)
        with pytest.raises(ReproError, match="two_stage"):
            service.search("tiny", QUERY, mode="auto", horizon=1)
        with pytest.raises(ReproError, match="two_stage"):
            service.search("tiny", QUERY, mode="live", expand_cap=8)
        with pytest.raises(ReproError, match="two_stage"):
            service.search("tiny", QUERY, mode="auto", node_budget=64)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # deepening needs both: one alone would be silently ignored
            ({"node_budget": 64}, "node_budget and max_horizon"),
            ({"max_horizon": 4}, "node_budget and max_horizon"),
            ({"candidates": 0}, "candidates"),
            ({"horizon": -1}, "horizon"),
            ({"expand_cap": 0}, "expand_cap"),
            ({"node_budget": -2}, "node_budget"),
            ({"max_horizon": 0}, "max_horizon"),
        ],
    )
    def test_bad_parameters_rejected(self, service, overrides, message):
        with pytest.raises(ReproError, match=message):
            service.search("tiny", QUERY, mode="two_stage", **overrides)

    @pytest.mark.parametrize(
        "bad",
        [
            {"node_budget": 64},
            {"max_horizon": 4},
            {"candidates": 0},
            {"horizon": -1},
            {"early_k": 0},
            {"expand_cap": 0},
            {"node_budget": -2},
            {"max_horizon": 0},
        ],
    )
    def test_service_and_engine_reject_with_the_same_message(self, service, bad):
        # One validator behind both entry points: the serve tier (HTTP 400
        # via ReproError) and the library engine (a ValueError to callers)
        # cannot drift apart in what they accept or how they say no.
        engine = TwoStageEngine(service.runtime("tiny").engine)
        with pytest.raises(ValueError) as from_engine:
            engine.search(QUERY, **bad)
        with pytest.raises(ReproError) as from_service:
            service.search("tiny", QUERY, mode="two_stage", **bad)
        assert str(from_service.value) == str(from_engine.value)
        assert type(from_service.value) is type(from_engine.value)

    def test_unknown_override_name_is_a_type_error(self, service):
        with pytest.raises(TypeError, match="candidate_count"):
            service.search("tiny", QUERY, mode="two_stage", candidate_count=5)

    def test_no_match_yields_empty_results(self, service):
        payload = service.search("tiny", "zzzmissing", mode="two_stage")
        assert payload["served_from"] == "two_stage"
        assert payload["results"] == []


def _request(url: str, body: dict | None = None) -> tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if body else {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def url(dblp_tiny):
    service = QueryService(
        ServeConfig(datasets=("tiny",), precompute=False, candidates=20),
        datasets={"tiny": dblp_tiny},
    )
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _metrics_text(url: str) -> str:
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
        return response.read().decode()


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


class TestHTTPTwoStage:
    def test_get_search_with_two_stage_params(self, url):
        status, payload = _request(
            f"{url}/search?dataset=tiny&q=improved+study&top_k=5"
            "&mode=two_stage&candidates=10&horizon=1"
        )
        assert status == 200
        assert payload["served_from"] == "two_stage"
        assert payload["two_stage"]["candidates"] == 10
        assert payload["two_stage"]["horizon"] == 1

    def test_post_search_with_fusion_weight(self, url):
        """A removed parameter is refused by name, never quietly ignored."""
        status, payload = _request(
            f"{url}/search",
            {
                "dataset": "tiny",
                "query": QUERY,
                "mode": "two_stage",
                "fusion_weight": 1.0,
                "early_k": 5,
            },
        )
        assert (status, payload["error"]) == (400, "bad_request")
        assert "'fusion_weight' was removed" in payload["message"]

    def test_metrics_families_present_and_counted(self, url):
        before = _metric(_metrics_text(url), "repro_served_two_stage_total")
        status, _ = _request(
            f"{url}/search?dataset=tiny&q=improved&mode=two_stage&candidates=7"
        )
        assert status == 200
        text = _metrics_text(url)
        assert _metric(text, "repro_served_two_stage_total") == before + 1
        assert _metric(text, "repro_two_stage_candidates_count") >= 1
        assert _metric(text, "repro_two_stage_candidates_sum") >= 7
        assert "repro_two_stage_stage1_seconds" in text
        assert "repro_two_stage_stage2_seconds" in text
        assert "repro_two_stage_fusion" not in text

    def test_bad_fusion_is_400(self, url):
        """Any fusion is refused by name, ``weighted`` included, in any mode."""
        for mode in ("two_stage", "auto"):
            status, payload = _request(
                f"{url}/search?dataset=tiny&q=improved&mode={mode}&fusion=weighted"
            )
            assert (status, payload["error"]) == (400, "bad_request")
            assert "'fusion' was removed" in payload["message"]

    def test_half_set_deepening_pair_is_400(self, url):
        status, payload = _request(
            f"{url}/search?dataset=tiny&q=improved&mode=two_stage&node_budget=256"
        )
        assert (status, payload["error"]) == (400, "repro_error")
        assert "node_budget and max_horizon" in payload["message"]

    def test_overrides_without_two_stage_mode_are_400(self, url):
        status, payload = _request(
            f"{url}/search?dataset=tiny&q=improved&candidates=10"
        )
        assert (status, payload["error"]) == (400, "repro_error")

    def test_non_numeric_candidates_is_400(self, url):
        status, payload = _request(
            f"{url}/search?dataset=tiny&q=improved&mode=two_stage&candidates=many"
        )
        assert (status, payload["error"]) == (400, "bad_request")

    def test_post_explain_two_stage(self, url):
        """Two-stage is a ``/search`` mode only: an ``/explain`` naming it is
        refused by name before it reaches a cache or a session."""
        before = _metrics_text(url)
        status, payload = _request(
            f"{url}/explain",
            {"dataset": "tiny", "query": QUERY, "target": "x", "mode": "two_stage"},
        )
        assert (status, payload["error"]) == (400, "bad_request")
        assert "'mode': 'two_stage' was removed" in payload["message"]
        after = _metrics_text(url)
        for family in (
            "repro_explain_cache_hits_total", "repro_explain_cache_misses_total",
            "repro_score_cache_hits_total", "repro_score_cache_misses_total",
        ):
            assert _metric(after, family) == _metric(before, family), family

    @pytest.mark.parametrize("mode", [{}, {"mode": "live"}])
    def test_post_explain_live_is_answered(self, url, mode):
        _, search = _request(f"{url}/search?dataset=tiny&q=improved+study&top_k=1")
        target = search["results"][0]["id"]
        status, payload = _request(
            f"{url}/explain",
            {"dataset": "tiny", "query": QUERY, "target": target, "max_edges": 5, **mode},
        )
        assert status == 200
        assert "mode" not in payload
        assert payload["target"] == target
        assert 0 < len(payload["edges"]) <= 5

    def test_post_explain_unknown_mode_is_400(self, url):
        status, payload = _request(
            f"{url}/explain",
            {"dataset": "tiny", "query": QUERY, "target": "x", "mode": "precomputed"},
        )
        assert (status, payload["error"]) == (400, "bad_request")
        assert "unknown mode 'precomputed'" in payload["message"]
