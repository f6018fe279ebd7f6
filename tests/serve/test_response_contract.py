"""The response contract the wire layer must not move: which headers a
response carries, in which order, what its body bytes are, and that all of
it leaves the server in exactly one ``send``."""

from __future__ import annotations

import http.client
import json
import threading
from email.utils import parsedate_to_datetime
from http.server import BaseHTTPRequestHandler

import pytest

from repro.datasets.figure1 import figure1_dataset
from repro.serve import QueryService, ServeConfig, create_server
from tests.serve.test_ingest import ADD_PAPER, NONCONFORMING

BASE_HEADERS = ["Server", "Date", "Content-Type", "Content-Length"]
JSON_TYPE = "application/json; charset=utf-8"


class CountingSocket:
    """An accepted connection that counts what the handler sends through it."""

    def __init__(self, sock, sends: list[int]) -> None:
        self._sock, self._sends = sock, sends

    def send(self, data, *flags):
        self._sends.append(len(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._sends.append(len(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture
def served():
    """``(server, sends)``: a live server and the sizes of every send it made."""
    service = QueryService(
        ServeConfig(
            datasets=("fig1",),
            precompute_min_document_frequency=1,
            ingest=True,
            max_concurrency=1,
        ),
        datasets={"fig1": figure1_dataset()},
    )
    server = create_server(service, port=0)
    sends: list[int] = []
    accept = server.get_request

    def counting_accept():
        sock, address = accept()
        return CountingSocket(sock, sends), address

    server.get_request = counting_accept
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, sends
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _call(connection, method: str, path: str, body: dict | None = None):
    raw = None if body is None else json.dumps(body).encode()
    connection.request(method, path, body=raw)
    response = connection.getresponse()
    return response, response.read()


def _check(response, data: bytes, status: int, extra: list[str], content_type=JSON_TYPE):
    assert response.status == status
    assert [name for name, _ in response.getheaders()] == BASE_HEADERS + extra
    # The stdlib handler's ``version_string()``, which the parent commit sent.
    assert response.headers["Server"] == "repro-serve/1.0 " + BaseHTTPRequestHandler.sys_version
    assert parsedate_to_datetime(response.headers["Date"]).tzinfo is not None
    assert response.headers["Date"].endswith(" GMT")
    assert response.headers["Content-Type"] == content_type
    assert int(response.headers["Content-Length"]) == len(data)
    if content_type == JSON_TYPE:
        # Plain ``json.dumps``: default separators, insertion order, ASCII.
        assert data == json.dumps(json.loads(data)).encode("utf-8")
        return json.loads(data)
    return data


def test_every_endpoint_keeps_its_headers_and_body_and_sends_once(served):
    server, sends = served
    service = server.service
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    search = "/search?dataset=fig1&q=OLAP&top_k=3"
    query = {"dataset": "fig1", "query": "OLAP"}

    def same_answer(payload: dict, expected: dict) -> None:
        volatile = ("elapsed_seconds", "served_from")
        assert {k: v for k, v in payload.items() if k not in volatile} == {
            k: v for k, v in expected.items() if k not in volatile
        }

    miss = _check(*_call(connection, "GET", search), 200, [])
    hit = _check(*_call(connection, "GET", search), 200, [])
    assert hit["served_from"] == "cache"
    same_answer(hit, miss)
    same_answer(miss, service.search("fig1", "OLAP", top_k=3))

    explained = _check(
        *_call(connection, "POST", "/explain", {**query, "target": "v7", "max_edges": 5}),
        200,
        [],
    )
    same_answer(explained, service.explain("fig1", "OLAP", "v7", max_edges=5))

    feedback = {**query, "relevant_ids": ["v4"], "apply": False}
    reformulated = _check(*_call(connection, "POST", "/feedback/reformulate", feedback), 200, [])
    same_answer(
        reformulated, service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=False)
    )

    ingested = _check(
        *_call(connection, "POST", "/ingest", {"dataset": "fig1", "mutations": ADD_PAPER}),
        200,
        [],
    )
    assert ingested["applied"] == len(ADD_PAPER)

    health = _check(*_call(connection, "GET", "/healthz"), 200, [])
    assert health["status"] == "ok"

    text = _check(
        *_call(connection, "GET", "/metrics"),
        200,
        [],
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )
    assert b"# TYPE repro_requests_total counter" in text

    missing = _check(*_call(connection, "GET", "/no/such/route"), 404, [])
    assert missing == {"error": "not_found", "message": "no route for /no/such/route"}

    assert server.admission.acquire(blocking=False)
    try:
        refused = _check(*_call(connection, "GET", search), 429, ["Retry-After"])
    finally:
        server.admission.release()
    assert refused["error"] == "overloaded"

    server.begin_drain()
    response, data = _call(connection, "GET", "/healthz")
    draining = _check(response, data, 503, ["Connection"])
    assert draining["error"] == "shutting_down"
    assert response.headers["Connection"] == "close"
    connection.close()

    # Ten responses over one connection: each left in exactly one send,
    # status line, headers and body together.
    assert len(sends) == 10
    assert all(size > 100 for size in sends)


def test_a_refused_mutation_is_a_200_with_one_error_entry_and_serving_goes_on(served):
    """A nonconforming insert, applied, would fail every later refresh."""
    server, _ = served
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    ingest = {"dataset": "fig1", "mutations": NONCONFORMING[:1]}
    refused = _check(*_call(connection, "POST", "/ingest", ingest), 200, [])
    assert (refused["applied"], len(refused["errors"])) == (0, 1)
    assert "does not conform" in refused["errors"][0]["error"]
    found = _check(*_call(connection, "GET", "/search?dataset=fig1&q=OLAP"), 200, [])
    assert found["results"]
    ingest = {"dataset": "fig1", "mutations": ADD_PAPER, "refresh": "force"}
    forced = _check(*_call(connection, "POST", "/ingest", ingest), 200, [])
    assert forced["errors"] == []
    assert forced["refresh"]["pending_consumed"] == len(ADD_PAPER)
