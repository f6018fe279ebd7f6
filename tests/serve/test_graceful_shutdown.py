"""Graceful-shutdown tests: drain mechanics, signal handling, 503 refusals."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import QueryService, ServeConfig, create_server
from repro.serve.http_server import serve_until_shutdown


@pytest.fixture
def service(figure1):
    return QueryService(
        ServeConfig(datasets=("fig1",), precompute=False),
        datasets={"fig1": figure1},
    )


@pytest.fixture
def server(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url: str) -> tuple[int, dict, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read()), dict(error.headers)


class TestDrainMechanics:
    def test_draining_server_refuses_with_503_and_close(self, server):
        assert not server.draining
        server.begin_drain()
        status, payload, headers = _get(server.url + "/healthz")
        assert status == 503
        assert payload["error"] == "shutting_down"
        assert headers.get("Connection") == "close"

    def test_drain_waits_for_inflight_request(self, server, service):
        release = threading.Event()
        entered = threading.Event()
        original = service.health

        def slow_health():
            entered.set()
            release.wait(10)
            return original()

        service.health = slow_health
        responses = []
        client = threading.Thread(
            target=lambda: responses.append(_get(server.url + "/healthz")),
            daemon=True,
        )
        client.start()
        assert entered.wait(5)
        assert server.inflight == 1
        server.begin_drain()
        assert not server.drain(timeout=0.05)  # still in flight
        release.set()
        assert server.drain(timeout=5)  # completes once the request finishes
        client.join(timeout=5)
        assert responses[0][0] == 200  # the in-flight request was answered
        assert server.inflight == 0

    def test_drain_on_idle_server_returns_immediately(self, server):
        start = time.monotonic()
        assert server.drain(timeout=5)
        assert time.monotonic() - start < 1.0


class TestServeUntilShutdown:
    def test_programmatic_shutdown_drains_and_returns(self, service):
        server = create_server(service, port=0)
        threading.Timer(0.3, server.shutdown).start()
        signum, drained = serve_until_shutdown(server, drain_timeout=5)
        assert signum == 0
        assert drained

    def test_signal_handlers_are_restored(self, service):
        before = signal.getsignal(signal.SIGTERM)
        server = create_server(service, port=0)
        threading.Timer(0.2, server.shutdown).start()
        serve_until_shutdown(server, drain_timeout=5)
        assert signal.getsignal(signal.SIGTERM) is before


_CHILD = """
import sys
from repro.serve import QueryService, ServeConfig, create_server
from repro.serve.http_server import serve_until_shutdown

service = QueryService(ServeConfig(datasets=("dblp_tiny",), precompute=False))
server = create_server(service, port=0)
print(server.server_address[1], flush=True)
signum, drained = serve_until_shutdown(server, drain_timeout=5)
print(f"signum={signum} drained={drained}", flush=True)
sys.exit(0 if drained else 1)
"""


class TestSigtermEndToEnd:
    def test_sigterm_drains_and_exits_zero(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            port = int(child.stdout.readline())
            status, payload, _ = _get(f"http://127.0.0.1:{port}/healthz")
            assert status == 200 and payload["status"] == "ok"
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode == 0
        assert "signum=15 drained=True" in out
