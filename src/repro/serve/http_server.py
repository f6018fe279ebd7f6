"""Threaded JSON HTTP front end for :class:`repro.serve.service.QueryService`.

Stdlib-only, one thread per connection via ``ThreadingHTTPServer``; the wire
layer is this module's own (:class:`WireRequestHandler`): one reader of the
buffered socket file, one writer that sends each response whole.  Endpoints:

========================  ======  ==============================================
``/search``               GET     ``?dataset=&q=&top_k=&mode=&labels=`` plus
                                  ``candidates=&horizon=&early_k=&
                                  expand_cap=&node_budget=&max_horizon=``
                                  under ``mode=two_stage``
``/search``               POST    ``{"dataset", "query", "top_k", "mode",
                                  "labels", "candidates", "horizon",
                                  "early_k", "expand_cap", "node_budget",
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

A request the reader refuses (:data:`WIRE_ERRORS`) is answered in the same
JSON shape with ``Connection: close``; so is any response sent while declared
body bytes are still unread, or they would be read as the next request line.

For the prefork tier the server can also adopt a pre-bound, already
listening socket (``listen_socket=``) inherited from a supervisor across
``fork`` — the kernel then load-balances accepts among the worker
processes with no locks in userspace.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import signal
import socket
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from socketserver import StreamRequestHandler
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, UnknownNodeError
from repro.serve.service import Deadline, DeadlineExceededError, QueryService

MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is plenty for any query
MAX_LINE_BYTES = 65536  # the request line and each header line
MAX_HEADERS = 100

SERVER = f"repro-serve/1.0 Python/{sys.version.split()[0]}"
JSON_TYPE = "application/json; charset=utf-8"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: Status -> JSON ``error`` code of the requests refused before routing.
WIRE_ERRORS = {
    400: "bad_request",
    414: "uri_too_long",
    431: "header_fields_too_large",
    501: "not_implemented",
    505: "http_version_not_supported",
}
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_VERSION = re.compile(r"HTTP/(\d{1,3})\.(\d{1,3})")
#: The ``Date`` header of one wall-clock second: formatted at most once per second.
_http_date = functools.lru_cache(maxsize=1)(functools.partial(formatdate, usegmt=True))


class _WireError(Exception):
    """A request refused before routing: ``(status in WIRE_ERRORS, message)``."""


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


class WireRequestHandler(StreamRequestHandler):
    """HTTP/1.x over one connection: one request reader, one response writer.

    A subclass's ``route()`` finds the request in ``method`` / ``path`` /
    ``headers`` (lower-cased names) and answers through :meth:`respond`.
    """

    server_name = SERVER
    methods: tuple[str, ...] = ("GET", "POST")
    # Small segments on keep-alive connections must not wait out a delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        """Answer requests until one of them, or the peer, ends the connection."""
        self.keep_alive = True
        with contextlib.suppress(ConnectionError):  # a vanished peer needs no answer
            try:
                while self.keep_alive and self._read_request():
                    self.route()
            except _WireError as error:
                self.wire_error(*error.args)

    def wire_error(self, status: int, message: str) -> None:
        self.respond_error(status, WIRE_ERRORS[status], message, close=True)

    def _line(self, too_long: int) -> bytes:
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _WireError(too_long, f"a line exceeds {MAX_LINE_BYTES} bytes")
        return line

    def _read_request(self) -> bool:
        """Request line and headers off ``rfile``; ``False`` on a closed peer."""
        self.request_line, self.unread, self.keep_alive = "", 0, False
        line = self._line(414)
        if not line:
            return False
        self.request_line = line.decode("iso-8859-1").rstrip("\r\n")
        parts = self.request_line.split(" ")
        version = _VERSION.fullmatch(parts[-1])
        if len(parts) != 3 or not all(parts) or not (version and int(version[1])):
            raise _WireError(400, f"malformed request line {self.request_line!r}")
        if int(version[1]) > 1:
            raise _WireError(505, f"{parts[2]} is not spoken here")
        self.method, self.path, _ = parts
        if self.method not in self.methods:
            raise _WireError(501, f"unsupported method {self.method!r}")
        headers = self.headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line(431)
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or name.split() != [name]:  # also blank or obs-folded
                raise _WireError(400, f"malformed header line {name!r}")
            name, value = name.lower(), value.strip()
            if headers.setdefault(name, value) != value:
                if name == "content-length":
                    raise _WireError(400, "conflicting Content-Length headers")
                headers[name] += ", " + value
        else:
            raise _WireError(431, f"more than {MAX_HEADERS} header lines")
        if "transfer-encoding" in headers:
            raise _WireError(501, "Transfer-Encoding is not supported")
        length = headers.get("content-length", "0")
        if not (length.isdecimal() and len(length) < 19):
            raise _WireError(400, "Content-Length must be a non-negative integer")
        self.unread = int(length)
        # RFC 7230 6.3: 1.1 persists unless ``close``, 1.0 only on ``keep-alive``.
        connection = headers.get("connection", "").lower()
        self.keep_alive = "close" not in connection and (
            int(version[2]) > 0 or "keep-alive" in connection
        )
        return True

    def read_body(self) -> bytes:
        """The declared body, after answering ``Expect: 100-continue``."""
        if self.headers.get("expect", "").lower() == "100-continue":
            self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(self.unread)
        self.unread -= len(body)
        return body

    def _write(self, data: bytes) -> None:
        self.request.sendall(data)

    def respond(
        self, status: int, content_type: str, body: bytes, headers=(), close=False
    ) -> None:
        """The one writer; closes when it leaves declared body bytes unread."""
        headers = dict(headers)
        if close or self.unread:
            self.keep_alive = False
            headers["Connection"] = "close"
        head = (
            f"{_STATUS_LINES[status]}Server: {self.server_name}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        )
        if not getattr(self.server, "quiet", True):  # pragma: no cover - console
            print(self.client_address[0], repr(self.request_line), status, file=sys.stderr)
        self._write(head.encode("iso-8859-1") + b"\r\n" + body)

    def respond_json(self, status: int, payload, **extra) -> None:
        self.respond(status, JSON_TYPE, json.dumps(payload).encode("utf-8"), **extra)

    def respond_error(self, status: int, error: str, message: str, **extra) -> None:
        self.respond_json(status, {"error": error, "message": message}, **extra)


class QueryRequestHandler(WireRequestHandler):
    """Routes requests into the service and speaks JSON both ways."""

    @property
    def service(self) -> QueryService:
        return self.server.service

    def wire_error(self, status: int, message: str) -> None:
        self.service.note_error()
        super().wire_error(status, message)

    def _read_json_body(self) -> dict:
        if not self.unread:
            raise _BadRequest("a JSON request body is required")
        if self.unread > MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = json.loads(self.read_body())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _BadRequest(f"invalid JSON body: {error}") from None
        if not isinstance(body, dict):
            raise _BadRequest("JSON body must be an object")
        return body

    # -- routing -----------------------------------------------------------

    def route(self) -> None:
        """Track the request in-flight; refuse new work while draining."""
        if self.server.draining:
            # A kept-alive client racing the shutdown gets an explicit
            # refusal and a closed connection instead of a TCP reset.
            self.respond_error(
                503,
                "shutting_down",
                "server is draining; retry against another instance",
                close=True,
            )
            return
        work = {
            ("POST", "/search"): self._search_from_body,
            ("POST", "/explain"): self._explain_from_body,
            ("POST", "/feedback/reformulate"): self._reformulate_from_body,
            ("POST", "/ingest"): self._ingest_from_body,
        }
        parsed = urlparse(self.path)
        route = (self.method, parsed.path)
        self.server._track_request_start()
        try:
            if route == ("GET", "/healthz"):
                self.respond_json(200, self.service.health())
            elif route == ("GET", "/metrics"):
                text = self.service.metrics_text()
                self.respond(200, METRICS_TYPE, text.encode("utf-8"))
            elif route == ("GET", "/search"):
                self._guarded(self._search_from_query_string, parsed)
            elif route in work:
                self._guarded(work[route])
            else:
                self.respond_error(404, "not_found", f"no route for {parsed.path}")
        finally:
            self.server._track_request_end()

    def _guarded(self, handler, *args) -> None:
        """Run a work endpoint under admission control and error mapping."""
        service = self.service
        if not self.server.admission.acquire(blocking=False):
            service.note_rejected()
            self.respond_error(
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
        self.respond_json(*response)

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


#: ``/search``'s two-stage parameters (the names of
#: :data:`repro.retrieval.engine.TWO_STAGE_PARAMETERS`) and how each is read
#: off the wire — the one table both the GET and the POST form parse with.
_TWO_STAGE_WIRE = {
    "candidates": _optional_int,
    "horizon": lambda raw, name: _optional_int(raw, name, minimum=0),
    "early_k": _optional_int,
    "expand_cap": _optional_int,
    "node_budget": _optional_int,
    "max_horizon": _optional_int,
}

#: Score-fusion parameters ``/search`` no longer reads: two-stage answers are
#: authority scores.  A request naming one is refused rather than answered
#: with something other than what it asked for.
_REMOVED_WIRE = ("fusion", "fusion_weight")


def _two_stage_overrides(get) -> dict:
    """The typed two-stage overrides of one request.

    ``get`` looks a raw parameter up by name (``None`` when absent): the
    query-string accessor for GET, ``body.get`` for POST.
    """
    for name in _REMOVED_WIRE:
        if get(name) is not None:
            raise _BadRequest(
                f"'{name}' was removed: two-stage ranks by authority alone"
            )
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
