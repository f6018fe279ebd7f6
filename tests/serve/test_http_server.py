"""Integration tests: boot the HTTP server on an ephemeral port and hit it."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import QueryService, ServeConfig, create_server


def _request(url: str, body: dict | None = None) -> tuple[int, dict]:
    """GET (or POST when a body is given); returns (status, decoded JSON)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"} if body else {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _boot(service: QueryService):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture(scope="module")
def server(figure1):
    service = QueryService(
        ServeConfig(datasets=("fig1",), precompute=False),
        datasets={"fig1": figure1},
    )
    server, thread = _boot(service)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def url(server):
    return server.url


def _metric(url: str, name: str) -> float:
    status, _ = _request(f"{url}/healthz")
    assert status == 200
    text = urllib.request.urlopen(f"{url}/metrics", timeout=30).read().decode()
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


class TestEndpoints:
    def test_healthz(self, url):
        status, payload = _request(f"{url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["datasets"]["configured"] == ["fig1"]

    def test_metrics_content_type(self, url):
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert b"# TYPE repro_requests_total counter" in response.read()

    def test_get_search(self, url):
        status, payload = _request(f"{url}/search?dataset=fig1&q=OLAP&top_k=3")
        assert status == 200
        assert payload["results"][0]["id"] == "v7"
        assert len(payload["results"]) <= 3

    def test_repeat_search_hits_cache_and_metrics_show_it(self, url):
        hits_before = _metric(url, "repro_cache_hits_total")
        first = _request(f"{url}/search?dataset=fig1&q=index+selection")
        second = _request(f"{url}/search?dataset=fig1&q=index+selection")
        assert first[0] == second[0] == 200
        assert second[1]["served_from"] == "cache"
        assert second[1]["results"] == first[1]["results"]
        assert _metric(url, "repro_cache_hits_total") == hits_before + 1

    def test_post_search_with_weighted_query_vector(self, url):
        status, payload = _request(
            f"{url}/search",
            {"dataset": "fig1", "query": {"olap": 1.0, "cube": 2.0}, "top_k": 5},
        )
        assert status == 200
        assert payload["results"]

    def test_post_search_with_label_filter(self, url):
        status, payload = _request(
            f"{url}/search",
            {"dataset": "fig1", "query": "OLAP", "labels": ["Author"]},
        )
        assert status == 200
        assert [r["label"] for r in payload["results"]] == ["Author"]

    def test_explain(self, url):
        status, payload = _request(
            f"{url}/explain",
            {"dataset": "fig1", "query": "OLAP", "target": "v7", "max_edges": 5},
        )
        assert status == 200
        assert payload["target"] == "v7"
        assert 0 < len(payload["edges"]) <= 5

    def test_feedback_reformulate(self, url):
        status, payload = _request(
            f"{url}/feedback/reformulate",
            {"dataset": "fig1", "query": "OLAP", "relevant_ids": ["v4"]},
        )
        assert status == 200
        assert payload["applied"] is True
        assert payload["results"]
        assert payload["learned_rates"]


    def test_duplicate_relevant_ids_count_once(self, url):
        """``["v4", "v4", "v7"]`` reformulates like ``["v4", "v7"]``; the
        echoed ``relevant_ids`` stays what the client sent."""

        def reformulate(relevant_ids):
            status, payload = _request(
                f"{url}/feedback/reformulate",
                {
                    "dataset": "fig1",
                    "query": "OLAP",
                    "relevant_ids": relevant_ids,
                    "apply": False,
                },
            )
            assert status == 200
            return payload

        once = reformulate(["v4", "v7"])
        twice = reformulate(["v4", "v4", "v7"])
        assert twice["relevant_ids"] == ["v4", "v4", "v7"]
        for key in ("reformulated_query", "learned_rates", "results", "iterations"):
            assert twice[key] == once[key]


def test_concurrent_first_reformulations_build_one_term_table(figure1, monkeypatch):
    """8 requests race to the cold node-term table: one builds it (slowly,
    so the others really wait on the latch) and all 8 answers agree."""
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.reformulate import terms

    builds = []
    real = terms.build_node_term_table

    def slow_build(graph, analyzer):
        builds.append(analyzer)
        time.sleep(0.2)
        return real(graph, analyzer)

    monkeypatch.setattr(terms, "build_node_term_table", slow_build)
    service = QueryService(
        ServeConfig(datasets=("fig1",), precompute=False), datasets={"fig1": figure1}
    )
    service.runtime("fig1")  # the race under test is the table, not the engine
    server, thread = _boot(service)
    body = {"dataset": "fig1", "query": "OLAP", "relevant_ids": ["v4"], "apply": False}
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(_request, f"{server.url}/feedback/reformulate", body)
                for _ in range(8)
            ]
            replies = [future.result(timeout=30) for future in futures]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [status for status, _ in replies] == [200] * 8
    assert len(builds) == 1
    for _, payload in replies:
        payload.pop("elapsed_seconds")
    assert all(payload == replies[0][1] for _, payload in replies)


class TestErrorMapping:
    def test_missing_query_is_400(self, url):
        status, payload = _request(f"{url}/search?dataset=fig1")
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_bad_top_k_is_400(self, url):
        status, payload = _request(f"{url}/search?dataset=fig1&q=OLAP&top_k=zero")
        assert (status, payload["error"]) == (400, "bad_request")

    def test_unknown_dataset_is_404(self, url):
        status, payload = _request(f"{url}/search?dataset=missing&q=OLAP")
        assert (status, payload["error"]) == (404, "repro_error")

    def test_unknown_explain_target_is_404(self, url):
        status, payload = _request(
            f"{url}/explain", {"dataset": "fig1", "query": "OLAP", "target": "v99"}
        )
        assert (status, payload["error"]) == (404, "unknown_node")

    def test_unknown_route_is_404(self, url):
        status, payload = _request(f"{url}/no/such/route")
        assert (status, payload["error"]) == (404, "not_found")

    def test_post_invalid_json_is_400(self, url):
        request = urllib.request.Request(
            f"{url}/search",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_post_non_utf8_body_is_400(self, url):
        # Regression: the UnicodeDecodeError escaped as 500 internal_error.
        request = urllib.request.Request(
            f"{url}/search",
            data=b"\xff\xfe{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == "bad_request"

    def test_non_integer_content_length_is_400(self, server):
        # Regression: int("abc") escaped as 500 internal_error.
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/search")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert (response.status, payload["error"]) == (400, "bad_request")
        assert "Content-Length" in payload["message"]


class TestAdmissionControl:
    @pytest.fixture(scope="class")
    def tight_server(self, figure1):
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute=False, max_concurrency=1),
            datasets={"fig1": figure1},
        )
        server, thread = _boot(service)
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_saturated_server_returns_429(self, tight_server):
        url = tight_server.url
        assert tight_server.admission.acquire(blocking=False)
        try:
            status, payload = _request(f"{url}/search?dataset=fig1&q=OLAP")
            assert (status, payload["error"]) == (429, "overloaded")
        finally:
            tight_server.admission.release()
        rejected = _metric(url, "repro_requests_rejected_total")
        assert rejected >= 1

    def test_healthz_and_metrics_are_never_throttled(self, tight_server):
        url = tight_server.url
        assert tight_server.admission.acquire(blocking=False)
        try:
            assert _request(f"{url}/healthz")[0] == 200
            with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
                assert response.status == 200
        finally:
            tight_server.admission.release()

    def test_permit_is_released_after_requests(self, tight_server):
        url = tight_server.url
        for _ in range(3):
            status, _ = _request(f"{url}/search?dataset=fig1&q=cube")
            assert status == 200


class TestDeadline:
    def test_expired_deadline_returns_503(self, figure1):
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute=False, deadline_seconds=0.0),
            datasets={"fig1": figure1},
        )
        server, thread = _boot(service)
        try:
            status, payload = _request(
                f"{server.url}/search?dataset=fig1&q=databases"
            )
            assert (status, payload["error"]) == (503, "deadline_exceeded")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
