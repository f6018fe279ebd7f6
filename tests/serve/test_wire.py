"""Raw-socket tests of the wire layer: what the reader refuses, when the
connection closes, and that random bytes never hang or wedge the server."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.request
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import QueryService, ServeConfig, create_server

SOCKET_TIMEOUT = 2.0


@pytest.fixture(scope="module")
def server(figure1):
    service = QueryService(
        ServeConfig(datasets=("fig1",), precompute=False),
        datasets={"fig1": figure1},
    )
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes


def _read_response(stream) -> Response | None:
    """The next final response off ``stream``; ``None`` once the server closed."""
    try:
        status_line = stream.readline()
    except ConnectionResetError:  # the server closed over input it never read
        return None
    if not status_line:
        return None
    version, status, _reason = status_line.split(b" ", 2)
    assert version == b"HTTP/1.1" and status_line.endswith(b"\r\n")
    headers = {}
    while (line := stream.readline()) != b"\r\n":
        name, colon, value = line.decode("iso-8859-1").partition(":")
        assert colon and line.endswith(b"\r\n"), line
        headers[name] = value.strip()
    if status == b"100":
        assert not headers
        return _read_response(stream)
    body = stream.read(int(headers["Content-Length"]))
    assert len(body) == int(headers["Content-Length"])
    return Response(int(status), headers, body)


PROBE = b"GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n"


def _exchange(
    server, payload: bytes, count: int, then_eof: bool = False
) -> tuple[list[Response], bool]:
    """Send ``payload`` (``then_eof``: and half-close), read ``count``
    responses, then see whether the server closed: a probe request on the
    same socket is answered, or it is not."""
    address = server.server_address[:2]
    with socket.create_connection(address, timeout=SOCKET_TIMEOUT) as sock:
        with sock.makefile("rb") as stream:
            sock.sendall(payload)
            if then_eof:
                sock.shutdown(socket.SHUT_WR)
            responses = [_read_response(stream) for _ in range(count)]
            try:
                if not then_eof:
                    sock.sendall(PROBE)
                closed = _read_response(stream) is None
            except (BrokenPipeError, ConnectionResetError):
                closed = True
    return responses, closed


def _send_and_drain(server, payload: bytes) -> list[Response]:
    """Send ``payload``, half-close, and read every response until EOF."""
    address = server.server_address[:2]
    with socket.create_connection(address, timeout=SOCKET_TIMEOUT) as sock:
        with sock.makefile("rb") as stream:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            return list(iter(lambda: _read_response(stream), None))


SEARCH_BODY = json.dumps({"dataset": "fig1", "query": "OLAP"}).encode()


def _post(headers: str, body: bytes = SEARCH_BODY, path: str = "/search") -> bytes:
    return f"POST {path} HTTP/1.1\r\nHost: t\r\n{headers}\r\n".encode() + body


#: (payload, [(status, error code or None), ...], server closes afterwards)
#: — a fourth ``True`` half-closes the socket after the payload.
WIRE_TABLE = {
    "body shorter than declared, then EOF": (
        _post("Content-Length: 400\r\n", b'{"dataset": "fig1"'),
        [(400, "bad_request")],
        True,
        True,
    ),
    "oversize request line": (
        b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n",
        [(414, "uri_too_long")],
        True,
    ),
    "101 headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 101 + b"\r\n",
        [(431, "header_fields_too_large")],
        True,
    ),
    "100 headers are fine": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 100 + b"\r\n",
        [(200, None)],
        False,
    ),
    "one 70 KB header line": (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70000 + b"\r\n\r\n",
        [(431, "header_fields_too_large")],
        True,
    ),
    "header without colon": (
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
        [(400, "bad_request")],
        True,
    ),
    "whitespace before the colon": (
        b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n",
        [(400, "bad_request")],
        True,
    ),
    "folded header": (
        b"GET /healthz HTTP/1.1\r\nX-Long: a\r\n  continued\r\n\r\n",
        [(400, "bad_request")],
        True,
    ),
    "conflicting Content-Length": (
        _post(f"Content-Length: {len(SEARCH_BODY)}\r\nContent-Length: 3\r\n"),
        [(400, "bad_request")],
        True,
    ),
    "repeated equal Content-Length": (
        _post(f"Content-Length: {len(SEARCH_BODY)}\r\n" * 2),
        [(200, None)],
        False,
    ),
    "Content-Length: abc": (
        _post("Content-Length: abc\r\n"),
        [(400, "bad_request")],
        True,
    ),
    "negative Content-Length": (
        _post("Content-Length: -5\r\n"),
        [(400, "bad_request")],
        True,
    ),
    "Content-Length past any integer": (
        _post("Content-Length: " + "9" * 5000 + "\r\n"),
        [(400, "bad_request")],
        True,
    ),
    "Transfer-Encoding: chunked": (
        _post("Transfer-Encoding: chunked\r\n", b"5\r\nhello\r\n0\r\n\r\n"),
        [(501, "not_implemented")],
        True,
    ),
    "HTTP/2.0": (
        b"GET /healthz HTTP/2.0\r\n\r\n",
        [(505, "http_version_not_supported")],
        True,
    ),
    "HTTP/0.9 is no longer spoken": (b"GET /healthz\r\n", [(400, "bad_request")], True),
    "a version that is not one": (
        b"GET /healthz HTTP/1." + b"9" * 5000 + b"\r\n\r\n",
        [(400, "bad_request")],
        True,
    ),
    "HTTP/1.0 closes": (b"GET /healthz HTTP/1.0\r\n\r\n", [(200, None)], True),
    "HTTP/1.0 with keep-alive persists": (
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        [(200, None)],
        False,
    ),
    "HTTP/1.1 persists": (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", [(200, None)], False),
    "Connection: close on 1.1": (
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        [(200, None)],
        True,
    ),
    "PUT": (
        b"PUT /search HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        [(501, "not_implemented")],
        True,
    ),
    "empty request line": (b"\r\n", [(400, "bad_request")], True),
    "two spaces in the request line": (
        b"GET  /healthz HTTP/1.1\r\n\r\n",
        [(400, "bad_request")],
        True,
    ),
    "two GETs pipelined in one segment": (
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" * 2,
        [(200, None), (200, None)],
        False,
    ),
    "refused POST then GET, pipelined": (
        _post(f"Content-Length: {len(SEARCH_BODY)}\r\n", path="/nope")
        + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        [(404, "not_found")],
        True,
    ),
    "body over the limit is refused unread": (
        _post(f"Content-Length: {(1 << 20) + 1}\r\n", b"{"),
        [(400, "bad_request")],
        True,
    ),
    "GET carrying a body it never reads": (
        b"GET /healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nGET ",
        [(200, None)],
        True,
    ),
    "Expect: 100-continue": (
        _post(f"Content-Length: {len(SEARCH_BODY)}\r\nExpect: 100-continue\r\n"),
        [(200, None)],
        False,
    ),
}


CLIENT_ASKED_TO_CLOSE = {"HTTP/1.0 closes", "Connection: close on 1.1"}


@pytest.mark.parametrize("case", sorted(WIRE_TABLE))
def test_wire_table(server, case):
    payload, expected, closes, *then_eof = WIRE_TABLE[case]
    responses, closed = _exchange(server, payload, len(expected), *then_eof)
    assert [r.status for r in responses] == [status for status, _ in expected]
    for response, (_status, error) in zip(responses, expected):
        assert response.headers["Content-Type"] == "application/json; charset=utf-8"
        if error is not None:
            assert json.loads(response.body)["error"] == error
    assert closed == closes
    # A close the server decides on is announced; one the client asked for
    # (HTTP/1.0, ``Connection: close``) needs no header.
    announced = responses[-1].headers.get("Connection") == "close"
    assert announced == (closes and case not in CLIENT_ASKED_TO_CLOSE)


def test_100_continue_precedes_the_body_read(server):
    """The interim response arrives before any body byte is sent."""
    address = server.server_address[:2]
    with socket.create_connection(address, timeout=SOCKET_TIMEOUT) as sock:
        with sock.makefile("rb") as stream:
            sock.sendall(
                _post(f"Content-Length: {len(SEARCH_BODY)}\r\nExpect: 100-continue\r\n", b"")
            )
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(SEARCH_BODY)
            response = _read_response(stream)
    assert response.status == 200
    assert json.loads(response.body)["results"]


def test_refused_post_with_expect_is_never_invited_to_send_its_body(server):
    address = server.server_address[:2]
    with socket.create_connection(address, timeout=SOCKET_TIMEOUT) as sock:
        with sock.makefile("rb") as stream:
            sock.sendall(_post("Content-Length: 10\r\nExpect: 100-continue\r\n", b"", "/nope"))
            assert stream.readline() == b"HTTP/1.1 404 Not Found\r\n"


@pytest.mark.parametrize("refusal", ["404", "429", "body too large"])
def test_refused_post_never_desynchronises_the_connection(server, refusal):
    """Regression: the unread body of a refused POST was parsed as the next
    request line, and the GET after it got a 400 HTML page."""
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    path, body, status = "/search", SEARCH_BODY, 429
    if refusal == "404":
        path, status = "/nope", 404
    elif refusal == "body too large":
        body, status = b"[" + b" " * (1 << 20) + b"]", 400
    held = refusal == "429" and [
        server.admission.acquire(blocking=False)
        for _ in range(server.service.config.max_concurrency)
    ]
    try:
        connection.request("POST", path, body=body)
        response = connection.getresponse()
        response.read()
    except (BrokenPipeError, ConnectionResetError):
        # The server may refuse and close before a megabyte is written out.
        assert refusal == "body too large"
        connection.close()
    else:
        assert response.status == status
        assert response.getheader("Connection") == "close"
    finally:
        for _ in held or ():
            server.admission.release()
    try:
        connection.request("GET", "/healthz")  # reconnects: the server closed
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        connection.close()


def test_wire_errors_are_counted(server):
    def errors() -> float:
        text = urllib.request.urlopen(f"{server.url}/metrics", timeout=30).read().decode()
        (line,) = [
            line for line in text.splitlines() if line.startswith("repro_request_errors_total ")
        ]
        return float(line.split()[1])

    before = errors()
    _exchange(server, b"GET /healthz HTTP/2.0\r\n\r\n", 1)
    assert errors() == before + 1


HEADER_LINES = [
    b"Content-Length: 5",
    b"Content-Length: 2",
    b"Content-Length: x",
    b"Transfer-Encoding: chunked",
    b"Expect: 100-continue",
    b"Connection: keep-alive",
    b"Connection: close",
    b" folded",
    b"no colon",
    b"",
    b"{}",
    b"GET /healthz HTTP/1.1",
    b"POST /search HTTP/1.0",
]


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        st.binary(max_size=4096),
        # Past the request line, so the header reader sees random bytes too...
        st.binary(max_size=2048).map(lambda tail: b"POST /search HTTP/1.1\r\n" + tail),
        # ...and lines it half understands, in orders no client sends.
        st.lists(st.sampled_from(HEADER_LINES), max_size=12).map(
            lambda lines: b"POST /search HTTP/1.1\r\n" + b"\r\n".join(lines)
        ),
    )
)
def test_random_bytes_get_an_error_or_a_close_and_never_wedge_the_server(server, data):
    # A hang is a ``socket.timeout`` out of the drain: the test fails.
    for response in _send_and_drain(server, data):
        assert response.status in (200, 400, 404, 414, 431, 501, 505)
        json.loads(response.body)
    with urllib.request.urlopen(f"{server.url}/healthz", timeout=SOCKET_TIMEOUT) as reply:
        assert reply.status == 200
