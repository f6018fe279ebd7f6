"""The typed wire boundary: any JSON in a request body (or any text in a
query string) is answered 200, 400 or 404 in strict JSON, never 500.

``json.loads`` accepts ``NaN`` and ``Infinity``, integers of any size and
values of any type where a route expects a string, so every field a route
reads goes through a typed parser in :mod:`repro.serve.http_server`.  The
regression table pins the malformed values that once reached the service
raw; the property throws arbitrary JSON at every work route.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import QueryService, ServeConfig, create_server


@pytest.fixture(scope="module")
def server(figure1):
    service = QueryService(
        ServeConfig(datasets=("fig1",), precompute=False, ingest=True),
        datasets={"fig1": figure1},
    )
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _refuse_constant(name: str):
    raise AssertionError(f"the response is not strict JSON: it holds {name}")


def _exchange(server, method: str, path: str, body=None) -> tuple[int, dict]:
    """One request; the response must be strict JSON (no NaN/Infinity)."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=data)
        response = connection.getresponse()
        payload = json.loads(response.read(), parse_constant=_refuse_constant)
        return response.status, payload
    finally:
        connection.close()


def _post(server, path: str, body) -> tuple[int, dict]:
    return _exchange(server, "POST", path, body)


SEARCH = {"dataset": "fig1", "query": "OLAP"}
EXPLAIN = {"dataset": "fig1", "query": "OLAP", "target": "v7"}
FEEDBACK = {"dataset": "fig1", "query": "OLAP", "relevant_ids": ["v7"], "apply": False}
INGEST = {
    "dataset": "fig1",
    "mutations": [{"op": "update_node", "node_id": "v1", "attributes": {}}],
    "refresh": "none",
}

INF = float("inf")

#: ``(route, body)`` -> each once reached the service raw at the parent of
#: the typed boundary and was answered 500, or 200 with the wrong meaning.
MALFORMED = {
    "list dataset, /search": ("/search", {**SEARCH, "dataset": ["fig1"]}),
    "list dataset, /explain": ("/explain", {**EXPLAIN, "dataset": ["fig1"]}),
    "list dataset, /feedback": (
        "/feedback/reformulate", {**FEEDBACK, "dataset": ["fig1"]}
    ),
    "list dataset, /ingest": ("/ingest", {**INGEST, "dataset": ["fig1"]}),
    "list target": ("/explain", {**EXPLAIN, "target": ["v7"]}),
    "list label": ("/search", {**SEARCH, "labels": [["Author"]]}),
    "infinite top_k": ("/search", {**SEARCH, "top_k": INF}),
    "infinite max_edges": ("/explain", {**EXPLAIN, "max_edges": INF}),
    "infinite candidates": (
        "/search", {**SEARCH, "mode": "two_stage", "candidates": INF}
    ),
    "boolean top_k": ("/search", {**SEARCH, "top_k": True}),
    "fractional top_k": ("/search", {**SEARCH, "top_k": 2.7}),
    "NaN weight": ("/search", {**SEARCH, "query": {"olap": float("nan")}}),
    "infinite weight": ("/search", {**SEARCH, "query": {"olap": INF}}),
    "overflowing weight total": (
        "/search", {**SEARCH, "query": {"olap": 1e308, "cube": 1e308}}
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_value_is_a_400(server, case):
    path, body = MALFORMED[case]
    status, payload = _post(server, path, body)
    assert status == 400, payload
    assert payload["error"] in ("bad_request", "repro_error")


def test_a_string_apply_is_a_400_that_leaves_the_serving_rates_alone(server):
    """``bool("false")`` is True: a what-if request once applied the learned
    rates for every user and invalidated the dataset's caches."""
    before = server.service.runtime("fig1").rates
    status, _ = _post(server, "/feedback/reformulate", {**FEEDBACK, "apply": "false"})
    assert status == 400
    assert server.service.runtime("fig1").rates is before


@pytest.mark.parametrize(
    "raw",
    [
        b'{"dataset": "fig1", "query": "OLAP", "top_k": ' + b"7" * 5000 + b"}",
        b"[" * 50000 + b"]" * 50000,
    ],
    ids=["integer past the digit limit", "arrays nested 50 000 deep"],
)
def test_a_body_json_loads_cannot_decode_is_a_400(server, raw):
    """Both once escaped the decoder's except clause as a 500."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", "/search", body=raw)
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert (response.status, payload["error"]) == (400, "bad_request")


def test_a_refused_mutation_echoes_only_a_text_op(server):
    """A per-mutation error record once echoed the raw ``op``: a NaN there
    made the whole response invalid JSON."""
    status, payload = _post(
        server, "/ingest", {**INGEST, "mutations": [{"op": float("nan")}]}
    )
    assert status == 200
    assert payload["errors"] == [
        {"position": 0, "op": None, "error": "unknown mutation op: nan"}
    ]


# -- the property --------------------------------------------------------------

#: Any JSON value, the awkward ones over-weighted.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([0, -1, 2**63, 10**400, -(10**400)]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), INF, -INF, 1e308, -1e308, 5e-324, 2.7]),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)

#: Per route: field -> the well-typed values a client would send.
ROUTES = {
    "/search": {
        "dataset": ["fig1", "missing"],
        "query": ["OLAP", "index selection", {"olap": 1.0, "cube": 2.0}],
        "top_k": [1, 3],
        "mode": ["auto", "live", "two_stage", "precomputed"],
        "labels": [["Author"], ["Paper", "Conference"]],
        "candidates": [5],
        "horizon": [0, 2],
    },
    "/explain": {
        "dataset": ["fig1"],
        "query": ["OLAP", {"olap": 1.0}],
        "target": ["v7", "v1", "v99"],
        "max_edges": [1, 10],
        "mode": ["live", "two_stage"],
    },
    "/feedback/reformulate": {
        "dataset": ["fig1"],
        "query": ["OLAP", {"olap": 1.0}],
        "relevant_ids": [["v7"], ["v7", "v1"], ["v99"]],
        "apply": [False],
    },
    "/ingest": {
        "dataset": ["fig1"],
        "mutations": [
            [{"op": "update_node", "node_id": "v1", "attributes": {"year": "1999"}}],
            [{"op": "add_node", "node_id": "fuzz", "label": "Author"}],
            [{"op": "remove_edge", "source": "v1", "target": "v7"}],
        ],
        "refresh": ["none", "auto"],
    },
}


@st.composite
def bodies(draw, fields: dict):
    """Each field missing, well-typed, or any JSON value; plus extra keys."""
    body = {}
    for name, typed in fields.items():
        choice = draw(st.sampled_from(("missing", "typed", "typed", "any")))
        if choice == "typed":
            body[name] = draw(st.sampled_from(typed))
        elif choice == "any":
            body[name] = draw(JSON_VALUES)
    body.update(draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2)))
    return body


@st.composite
def requests(draw):
    """``(method, path, body)``: a POST to a work route, or ``GET /search``
    with a query string made of the same fields (any text, this time)."""
    route = draw(st.sampled_from(sorted(ROUTES)))
    if route == "/search" and draw(st.booleans()):
        fields = draw(bodies(ROUTES["/search"]))
        text = {
            name: value if isinstance(value, str) else json.dumps(value)
            for name, value in fields.items()
        }
        return "GET", "/search?" + urllib.parse.urlencode(text), None
    return "POST", route, draw(bodies(ROUTES[route]))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(requests())
def test_any_json_body_is_answered_200_400_or_404_in_strict_json(server, request):
    status, payload = _exchange(server, *request)
    assert status in (200, 400, 404), (status, payload)
    if status != 200:
        assert {"error", "message"} <= payload.keys()
