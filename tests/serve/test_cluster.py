"""Prefork cluster tests: shared listener, per-worker probes, respawn."""

from __future__ import annotations

import http.client
import json
import os
import signal
import time
import urllib.request

import pytest

from repro.ranking.precompute import PrecomputedRanker
from repro.serve import QueryService, ServeConfig
from repro.serve.cluster import ClusterConfig, ClusterSupervisor, inject_labels
from repro.store import build_and_publish

from tests.serve.test_ingest import ADD_PAPER, NONCONFORMING


def _get(url: str, timeout: float = 10.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _get_json(url: str) -> dict:
    return json.loads(_get(url))


def _store_cluster(figure1, store_root, run_dir, **overrides):
    """A started 2-worker cluster over Figure 1 serving a published store:
    ``(parent service, supervisor, the published ranker)``."""
    service = QueryService(
        ServeConfig(
            datasets=("fig1",),
            precompute_min_document_frequency=1,
            store_dir=str(store_root),
            store_refresh_seconds=0.0,
            **overrides,
        ),
        datasets={"fig1": figure1},
    )
    service.preload()
    runtime = service.runtime("fig1")
    ranker = PrecomputedRanker(
        runtime.engine.graph, runtime.engine.index, min_document_frequency=1
    )
    build_and_publish(store_root / "fig1", ranker, "fig1")
    supervisor = ClusterSupervisor(
        ClusterConfig(
            serve=service.config,
            workers=2,
            run_dir=str(run_dir),
            monitor_interval=0.05,
            drain_timeout=5.0,
        ),
        service=service,
    )
    supervisor.start()
    _wait_for_workers(supervisor, 2)
    return service, supervisor, ranker


@pytest.fixture(scope="module")
def cluster(figure1, tmp_path_factory):
    """A running 2-worker cluster over Figure 1, store-backed."""
    store_root = tmp_path_factory.mktemp("stores")
    _, supervisor, ranker = _store_cluster(
        figure1, store_root, tmp_path_factory.mktemp("run")
    )
    yield supervisor, store_root, ranker
    supervisor.stop()


def _wait_for_workers(supervisor, count, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(supervisor.workers()) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"cluster never reached {count} workers: {supervisor.workers()}"
    )


class TestServing:
    def test_shared_listener_answers(self, cluster):
        supervisor, _, _ = cluster
        payload = _get_json(supervisor.url + "/search?dataset=fig1&q=OLAP")
        assert payload["served_from"] in ("store", "cache")
        assert payload["store_generation"] == 1
        assert payload["results"]

    def test_workers_answer_identically(self, cluster):
        """The mmap fast path gives bit-equal JSON from every worker."""
        supervisor, _, _ = cluster
        answers = []
        for worker in supervisor.workers():
            payload = _get_json(
                f"http://127.0.0.1:{worker.control_port}"
                "/search?dataset=fig1&q=OLAP%20data&top_k=7"
            )
            assert payload["served_from"] in ("store", "cache")
            answers.append(
                [(r["id"], r["score"]) for r in payload["results"]]
            )
        assert len(answers) == 2
        assert answers[0] == answers[1]

    def test_generation_swap_reaches_every_worker(self, cluster):
        supervisor, store_root, ranker = cluster
        build_and_publish(store_root / "fig1", ranker, "fig1")
        deadline = time.monotonic() + 10
        generations = set()
        while time.monotonic() < deadline:
            generations = {
                _get_json(
                    f"http://127.0.0.1:{w.control_port}"
                    "/search?dataset=fig1&q=cube"
                )["store_generation"]
                for w in supervisor.workers()
            }
            if generations == {2}:
                break
            time.sleep(0.05)
        assert generations == {2}


def _scores_at(worker, generation, path, timeout=15.0) -> list:
    """``(id, score)`` rows of ``worker``'s answer once it serves ``generation``."""
    deadline = time.monotonic() + timeout
    while True:
        payload = _get_json(f"http://127.0.0.1:{worker.control_port}{path}")
        if payload["store_generation"] == generation or time.monotonic() > deadline:
            assert payload["store_generation"] == generation, worker.worker_id
            return [(r["id"], r["score"]) for r in payload["results"]]
        time.sleep(0.05)


class TestIngestPublish:
    def test_ingest_refresh_reaches_every_worker(self, figure1, tmp_path):
        """``/ingest`` on the parent -> forced refresh -> the next published
        generation -> both prefork workers answer it, row for row as the
        parent; the nonconforming mutations in the batch are refused at
        apply and do not stop the refresh behind them."""
        service, supervisor, _ = _store_cluster(
            figure1, tmp_path / "stores", tmp_path / "run", ingest=True
        )
        path = "/search?dataset=fig1&q=OLAP&top_k=8"
        try:
            before = service.search("fig1", "OLAP", top_k=8)
            assert before["served_from"] == "store"
            rows = [(r["id"], r["score"]) for r in before["results"]]
            for worker in supervisor.workers():
                assert _scores_at(worker, 1, path) == rows

            out = service.ingest("fig1", [*NONCONFORMING[:2], *ADD_PAPER], refresh="force")
            refused = [(e["position"], e["op"]) for e in out["errors"]]
            assert refused == [(0, "add_node"), (1, "add_edge")]
            assert all("does not conform" in e["error"] for e in out["errors"])
            assert out["applied"] == len(ADD_PAPER)
            assert out["staleness"]["pending_mutations"] == 0

            after = service.search("fig1", "OLAP", top_k=8)
            assert after["store_generation"] == 2
            rows = [(r["id"], r["score"]) for r in after["results"]]
            assert dict(rows).get("p_new", 0.0) > 0.0
            # The workers' graphs predate the batch; the store rows do not.
            for worker in supervisor.workers():
                assert _scores_at(worker, 2, path) == rows
        finally:
            clean = supervisor.stop()
        assert clean


class TestAggregation:
    def test_metrics_carry_worker_and_generation_labels(self, cluster):
        supervisor, _, _ = cluster
        for worker in supervisor.workers():
            _get(f"http://127.0.0.1:{worker.control_port}/metrics")
        text = supervisor.aggregate_metrics()
        worker_ids = {w.worker_id for w in supervisor.workers()}
        for worker_id in worker_ids:
            assert f'repro_requests_total{{worker_id="{worker_id}"' in text
        assert 'store_generation="' in text
        assert "repro_cluster_workers 2" in text
        # HELP/TYPE metadata appears once despite two workers contributing.
        assert text.count("# TYPE repro_requests_total counter") == 1

    def test_existing_labels_are_preserved(self, cluster):
        supervisor, _, _ = cluster
        text = supervisor.aggregate_metrics()
        assert 'quantile="0.5",worker_id="' in text

    def test_cluster_health(self, cluster):
        supervisor, _, _ = cluster
        health = supervisor.cluster_health()
        assert health["status"] == "ok"
        assert health["configured_workers"] == 2
        assert len(health["workers"]) == 2


class TestSupervision:
    def test_killed_worker_is_respawned(self, cluster):
        supervisor, _, _ = cluster
        victim = supervisor.workers()[0]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            workers = supervisor.workers()
            if len(workers) == 2 and all(w.pid != victim.pid for w in workers):
                break
            time.sleep(0.05)
        workers = supervisor.workers()
        assert len(workers) == 2
        assert all(w.pid != victim.pid for w in workers)
        assert supervisor.respawns >= 1
        # The replacement serves the same answers.
        replacement = next(
            w for w in workers if w.worker_id == victim.worker_id
        )
        payload = _get_json(
            f"http://127.0.0.1:{replacement.control_port}"
            "/search?dataset=fig1&q=OLAP"
        )
        assert payload["results"]


class TestStop:
    def test_stop_terminates_every_worker_cleanly(self, figure1, tmp_path):
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute=False),
            datasets={"fig1": figure1},
        )
        service.preload()
        supervisor = ClusterSupervisor(
            ClusterConfig(
                serve=service.config,
                workers=2,
                run_dir=str(tmp_path),
                drain_timeout=5.0,
            ),
            service=service,
        )
        supervisor.start()
        _wait_for_workers(supervisor, 2)
        pids = [w.pid for w in supervisor.workers()]
        assert supervisor.stop()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestAdminEndpoint:
    def test_admin_routes_answer_through_the_serve_tier_writer(self, figure1, tmp_path):
        service = QueryService(
            ServeConfig(datasets=("fig1",), precompute=False),
            datasets={"fig1": figure1},
        )
        service.preload()
        supervisor = ClusterSupervisor(
            ClusterConfig(
                serve=service.config, workers=1, run_dir=str(tmp_path), admin_port=0
            ),
            service=service,
        )
        supervisor.start()
        try:
            _wait_for_workers(supervisor, 1)
            host, port = supervisor._admin.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)

            def call(method: str, path: str):
                connection.request(method, path)
                response = connection.getresponse()
                return response, response.read()

            response, body = call("GET", "/healthz")
            assert response.status == 200
            assert json.loads(body)["configured_workers"] == 1
            assert response.getheader("Server").startswith("repro-cluster/1.0 Python/")
            assert [name for name, _ in response.getheaders()] == [
                "Server", "Date", "Content-Type", "Content-Length",
            ]
            response, body = call("GET", "/workers")
            assert [w["worker_id"] for w in json.loads(body)] == [0]
            response, body = call("GET", "/metrics")
            assert response.getheader("Content-Type").startswith("text/plain")
            assert b"repro_cluster_workers 1" in body
            response, body = call("GET", "/nope")
            assert (response.status, json.loads(body)["error"]) == (404, "not_found")
            response, body = call("POST", "/metrics")  # GET-only, as before
            assert (response.status, json.loads(body)["error"]) == (501, "not_implemented")
            connection.close()
        finally:
            supervisor.stop()


class TestInjectLabels:
    def test_plain_sample_gains_labels(self):
        out = inject_labels("m_total 5", {"worker_id": "1"})
        assert out == 'm_total{worker_id="1"} 5'

    def test_existing_labels_are_extended(self):
        out = inject_labels(
            'lat{quantile="0.5"} 0.1', {"worker_id": "1", "store_generation": "3"}
        )
        assert out == 'lat{quantile="0.5",worker_id="1",store_generation="3"} 0.1'

    def test_metadata_deduplicated_across_calls(self):
        seen: set[str] = set()
        first = inject_labels("# TYPE m counter\nm 1", {"w": "0"}, seen)
        second = inject_labels("# TYPE m counter\nm 2", {"w": "1"}, seen)
        assert "# TYPE m counter" in first
        assert "# TYPE m counter" not in second
        assert 'm{w="1"} 2' in second


class TestBindFailure:
    """start() must not leak the listener socket when bind() fails."""

    def test_failed_bind_closes_listener_and_allows_retry(
        self, tmp_path, monkeypatch
    ):
        import socket as socket_mod

        from repro.errors import ReproError
        from repro.serve import cluster as cluster_mod

        # Occupy a port so the supervisor's bind() raises EADDRINUSE.
        blocker = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        _, busy_port = blocker.getsockname()

        real_socket = socket_mod.socket
        created: list = []

        def recording_socket(*args, **kwargs):
            sock = real_socket(*args, **kwargs)
            created.append(sock)
            return sock

        monkeypatch.setattr(cluster_mod.socket, "socket", recording_socket)
        supervisor = ClusterSupervisor(
            ClusterConfig(
                serve=ServeConfig(datasets=()),
                port=busy_port,
                workers=1,
                run_dir=str(tmp_path),
            )
        )
        try:
            with pytest.raises(OSError):
                supervisor.start()
            assert created, "supervisor never created a listener socket"
            assert all(sock.fileno() == -1 for sock in created), (
                "bind() failure leaked an open listener fd"
            )
            # The supervisor is back in its pre-start state: address raises
            # and a retry is allowed (it fails on the same busy port, but
            # with a fresh socket rather than "cluster already started").
            with pytest.raises(ReproError):
                supervisor.address
            with pytest.raises(OSError):
                supervisor.start()
            assert all(sock.fileno() == -1 for sock in created)
        finally:
            blocker.close()
            for sock in created:
                sock.close()
