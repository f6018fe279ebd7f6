"""Threaded JSON HTTP front end for :class:`repro.serve.service.QueryService`.

Stdlib-only (``http.server``), one thread per connection via
``ThreadingHTTPServer``.  Endpoints:

========================  ======  ==============================================
``/search``               GET     ``?dataset=&q=&top_k=&mode=&labels=`` plus
                                  ``candidates=&fusion=&fusion_weight=&
                                  horizon=&early_k=&expand_cap=&
                                  node_budget=&max_horizon=`` under
                                  ``mode=two_stage``
``/search``               POST    ``{"dataset", "query", "top_k", "mode",
                                  "labels", "candidates", "fusion",
                                  "fusion_weight", "horizon", "early_k",
                                  "expand_cap", "node_budget",
                                  "max_horizon"}``
``/explain``              POST    ``{"dataset", "query", "target",
                                  "max_edges", "mode"}``
``/feedback/reformulate`` POST    ``{"dataset", "query", "relevant_ids",
                                  "apply"}``
``/ingest``               POST    ``{"dataset", "mutations": [...],
                                  "refresh"}`` (requires ``--ingest``)
``/healthz``              GET     liveness + cache summary (never throttled)
``/metrics``              GET     Prometheus text format (never throttled)
========================  ======  ==============================================

Admission control: work endpoints must win a non-blocking semaphore permit
(``max_concurrency``) or are refused with **429** and a ``Retry-After``
header; a request whose per-request deadline expires before its expensive
stage starts gets **503**.  Both are counted in ``/metrics``.

Graceful shutdown: the server tracks its in-flight requests, and
:func:`serve_until_shutdown` installs SIGTERM/SIGINT handlers that stop the
accept loop, answer anything newly arriving on kept-alive connections with
**503** + ``Connection: close``, and wait for the in-flight requests to
drain (bounded by ``drain_timeout``) before closing the socket — the
supervisor in :mod:`repro.serve.cluster` relies on this to roll workers
without dropping answers mid-write.

For the prefork tier the server can also adopt a pre-bound, already
listening socket (``listen_socket=``) inherited from a supervisor across
``fork`` — the kernel then load-balances accepts among the worker
processes with no locks in userspace.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, UnknownNodeError
from repro.serve.service import Deadline, DeadlineExceededError, QueryService

MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is plenty for any query


class QueryHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the service and the admission state."""

    daemon_threads = True
    # The stdlib default listen backlog of 5 drops SYNs under bursty client
    # fan-out; dropped SYNs retransmit after ~1s and crater tail latency.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        quiet: bool = True,
        listen_socket: socket.socket | None = None,
    ) -> None:
        if listen_socket is not None:
            # Adopt a supervisor-bound listener (prefork socket sharing):
            # skip bind/listen and accept from the shared socket.  The
            # listener is non-blocking so a worker that loses an accept
            # race simply returns to its select loop (see
            # ``_handle_request_noblock``'s OSError swallow) instead of
            # blocking in ``accept`` where a drain signal cannot reach it.
            super().__init__(address, QueryRequestHandler, bind_and_activate=False)
            self.socket.close()
            listen_socket.setblocking(False)
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
        else:
            super().__init__(address, QueryRequestHandler)
        self.service = service
        self.quiet = quiet
        self.admission = threading.BoundedSemaphore(service.config.max_concurrency)
        self.deadline_seconds = service.config.deadline_seconds
        self._inflight_lock = threading.Lock()
        #: guarded by self._inflight_lock
        self._inflight = 0
        #: guarded by self._inflight_lock
        self._draining = False
        self._drained = threading.Event()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- graceful shutdown ---------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._inflight_lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently executing a handler body."""
        with self._inflight_lock:
            return self._inflight

    def begin_drain(self) -> None:
        """Stop taking new work: subsequent requests get 503 + close.

        Does not stop the accept loop — callers pair this with
        :meth:`shutdown` (see :func:`serve_until_shutdown`), so queued
        connections still get an explicit 503 instead of a hung socket.
        """
        with self._inflight_lock:
            self._draining = True
            if self._inflight == 0:
                self._drained.set()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every in-flight request finished; ``True`` on success."""
        self.begin_drain()
        return self._drained.wait(timeout)

    def _track_request_start(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _track_request_end(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._draining and self._inflight == 0:
                self._drained.set()


def create_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    listen_socket: socket.socket | None = None,
) -> QueryHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port) without starting it.

    ``listen_socket`` adopts an already bound+listening socket instead (the
    prefork supervisor passes each worker the shared listener this way).
    """
    return QueryHTTPServer((host, port), service, quiet=quiet, listen_socket=listen_socket)


class QueryRequestHandler(BaseHTTPRequestHandler):
    """Routes requests into the service and speaks JSON both ways."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body flush as separate small segments; without TCP_NODELAY
    # that combination stalls ~40ms per request on keep-alive connections
    # (Nagle waiting out the peer's delayed ACK).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> QueryService:
        return self.server.service

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - console logging
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, error: str, message: str, headers: dict | None = None
    ) -> None:
        self._send_json(status, {"error": error, "message": message}, headers)

    def _read_json_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _BadRequest("Content-Length must be an integer") from None
        if length <= 0:
            raise _BadRequest("a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _BadRequest(f"invalid JSON body: {error}") from None
        if not isinstance(body, dict):
            raise _BadRequest("JSON body must be an object")
        return body

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._route_post)

    def _dispatch(self, route) -> None:
        """Track the request in-flight; refuse new work while draining."""
        server = self.server
        if server.draining:
            # A kept-alive client racing the shutdown gets an explicit
            # refusal and a closed connection instead of a TCP reset.
            self.close_connection = True
            self._send_error_json(
                503,
                "shutting_down",
                "server is draining; retry against another instance",
                headers={"Connection": "close"},
            )
            return
        server._track_request_start()
        try:
            route()
        finally:
            server._track_request_end()

    def _route_get(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._send_json(200, self.service.health())
        elif parsed.path == "/metrics":
            text = self.service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(text)))
            self.end_headers()
            self.wfile.write(text)
        elif parsed.path == "/search":
            self._guarded(self._search_from_query_string, parsed)
        else:
            self._send_error_json(404, "not_found", f"no route for {parsed.path}")

    def _route_post(self) -> None:
        parsed = urlparse(self.path)
        routes = {
            "/search": self._search_from_body,
            "/explain": self._explain_from_body,
            "/feedback/reformulate": self._reformulate_from_body,
            "/ingest": self._ingest_from_body,
        }
        handler = routes.get(parsed.path)
        if handler is None:
            self._send_error_json(404, "not_found", f"no route for {parsed.path}")
            return
        self._guarded(handler)

    def _guarded(self, handler, *args) -> None:
        """Run a work endpoint under admission control and error mapping."""
        service = self.service
        if not self.server.admission.acquire(blocking=False):
            service.note_rejected()
            self._send_error_json(
                429,
                "overloaded",
                "concurrency limit reached, retry shortly",
                headers={"Retry-After": "1"},
            )
            return
        # The permit must be released *before* the response is written:
        # otherwise a strictly sequential client can be refused because the
        # previous request's thread has flushed its response but not yet
        # reached the release.
        try:
            deadline = Deadline(self.server.deadline_seconds)
            response = (200, handler(*args, deadline=deadline))
        except _BadRequest as error:
            service.note_error()
            response = (400, {"error": "bad_request", "message": str(error)})
        except DeadlineExceededError as error:
            service.note_rejected()
            response = (503, {"error": "deadline_exceeded", "message": str(error)})
        except UnknownNodeError as error:
            service.note_error()
            response = (404, {"error": "unknown_node", "message": str(error)})
        except ReproError as error:
            service.note_error()
            status = 404 if "is not served" in str(error) else 400
            response = (status, {"error": "repro_error", "message": str(error)})
        except Exception as error:  # pragma: no cover - defensive
            service.note_error()
            response = (500, {"error": "internal_error", "message": str(error)})
        finally:
            self.server.admission.release()
        self._send_json(*response)

    # -- endpoint bodies ---------------------------------------------------

    def _search_from_query_string(self, parsed, deadline: Deadline) -> dict:
        params = parse_qs(parsed.query)

        def one(name: str, default=None):
            values = params.get(name)
            return values[0] if values else default

        dataset = one("dataset")
        query = one("q") or one("query")
        if not dataset or not query:
            raise _BadRequest("parameters 'dataset' and 'q' are required")
        labels = one("labels")
        return self.service.search(
            dataset,
            query,
            top_k=_optional_int(one("top_k"), "top_k"),
            mode=one("mode", "auto"),
            labels=tuple(labels.split(",")) if labels else None,
            deadline=deadline,
            **_two_stage_overrides(one),
        )

    def _search_from_body(self, deadline: Deadline) -> dict:
        body = self._read_json_body()
        dataset = body.get("dataset")
        query = body.get("query") or body.get("q")
        if not dataset or not query:
            raise _BadRequest("fields 'dataset' and 'query' are required")
        labels = body.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise _BadRequest("'labels' must be a list of node labels")
        return self.service.search(
            dataset,
            _query_from_json(query),
            top_k=_optional_int(body.get("top_k"), "top_k"),
            mode=body.get("mode", "auto"),
            labels=tuple(labels) if labels else None,
            deadline=deadline,
            **_two_stage_overrides(body.get),
        )

    def _explain_from_body(self, deadline: Deadline) -> dict:
        body = self._read_json_body()
        dataset, query, target = (
            body.get("dataset"),
            body.get("query"),
            body.get("target"),
        )
        if not dataset or not query or not target:
            raise _BadRequest("fields 'dataset', 'query' and 'target' are required")
        return self.service.explain(
            dataset,
            _query_from_json(query),
            target,
            max_edges=_optional_int(body.get("max_edges"), "max_edges") or 50,
            deadline=deadline,
            mode=body.get("mode", "live"),
        )

    def _reformulate_from_body(self, deadline: Deadline) -> dict:
        body = self._read_json_body()
        dataset, query = body.get("dataset"), body.get("query")
        relevant = body.get("relevant_ids")
        if not dataset or not query or not isinstance(relevant, list) or not relevant:
            raise _BadRequest(
                "fields 'dataset', 'query' and a non-empty 'relevant_ids' "
                "list are required"
            )
        return self.service.feedback_reformulate(
            dataset,
            _query_from_json(query),
            [str(node_id) for node_id in relevant],
            apply=bool(body.get("apply", True)),
            deadline=deadline,
        )

    def _ingest_from_body(self, deadline: Deadline) -> dict:
        body = self._read_json_body()
        dataset = body.get("dataset")
        mutations = body.get("mutations")
        if not dataset or not isinstance(mutations, list) or not mutations:
            raise _BadRequest(
                "fields 'dataset' and a non-empty 'mutations' list are required"
            )
        refresh = body.get("refresh", "auto")
        if not isinstance(refresh, str):
            raise _BadRequest("'refresh' must be one of 'auto', 'force', 'none'")
        return self.service.ingest(
            dataset, mutations, refresh=refresh, deadline=deadline
        )


class _BadRequest(Exception):
    """Client-side input error, mapped to HTTP 400."""


def _optional_int(raw, name: str, minimum: int = 1) -> int | None:
    if raw is None:
        return None
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise _BadRequest(f"'{name}' must be an integer, got {raw!r}") from None
    if value < minimum:
        raise _BadRequest(f"'{name}' must be at least {minimum}, got {value}")
    return value


def _optional_float(raw, name: str) -> float | None:
    if raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise _BadRequest(f"'{name}' must be a number, got {raw!r}") from None


def _verbatim(raw, name: str):
    """A parameter the service validates itself (``fusion``: a mode name)."""
    return raw


#: ``/search``'s two-stage parameters (the names of
#: :data:`repro.retrieval.engine.TWO_STAGE_PARAMETERS`) and how each is read
#: off the wire — the one table both the GET and the POST form parse with.
_TWO_STAGE_WIRE = {
    "candidates": _optional_int,
    "fusion": _verbatim,
    "fusion_weight": _optional_float,
    "horizon": lambda raw, name: _optional_int(raw, name, minimum=0),
    "early_k": _optional_int,
    "expand_cap": _optional_int,
    "node_budget": _optional_int,
    "max_horizon": _optional_int,
}


def _two_stage_overrides(get) -> dict:
    """The typed two-stage overrides of one request.

    ``get`` looks a raw parameter up by name (``None`` when absent): the
    query-string accessor for GET, ``body.get`` for POST.
    """
    return {name: parse(get(name), name) for name, parse in _TWO_STAGE_WIRE.items()}


def _query_from_json(query):
    """Accept either a query string or a {term: weight} object."""
    if isinstance(query, str):
        return query
    if isinstance(query, dict):
        from repro.query.query import QueryVector

        try:
            return QueryVector({str(t): float(w) for t, w in query.items()})
        except (TypeError, ValueError) as error:
            raise _BadRequest(f"invalid query vector: {error}") from None
    raise _BadRequest("'query' must be a string or a term->weight object")


def serve_forever(server: QueryHTTPServer) -> None:  # pragma: no cover - CLI loop
    """Run until interrupted, then close the socket cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


DEFAULT_DRAIN_TIMEOUT = 10.0


def serve_until_shutdown(
    server: QueryHTTPServer,
    signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    poll_interval: float = 0.1,
) -> tuple[int, bool]:
    """Serve until a signal arrives, then drain in-flight requests and close.

    On SIGTERM/SIGINT the handler (a) marks the server draining, so requests
    arriving on kept-alive connections are answered 503 and closed, and (b)
    stops the accept loop from a helper thread (``shutdown()`` blocks until
    the loop exits, so it must not run inside the signal handler itself).
    After the loop exits, waits up to ``drain_timeout`` seconds for requests
    already executing to finish writing their responses, then closes the
    listening socket.

    Returns ``(signum, drained)`` — the signal that stopped the server (0
    for a plain ``shutdown()`` call) and whether the drain completed before
    the timeout.  Must run on the main thread (POSIX signal handling).
    """
    received: list[int] = []

    def _handle(signum: int, _frame) -> None:
        received.append(signum)
        server.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {s: signal.signal(s, _handle) for s in signals}
    try:
        server.serve_forever(poll_interval=poll_interval)
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
    drained = server.drain(drain_timeout)
    server.server_close()
    return (received[0] if received else 0), drained
