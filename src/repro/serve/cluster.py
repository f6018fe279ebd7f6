"""Prefork serving cluster: N worker processes over one shared listener.

The multi-process tier the paper's Section 6.2 measurements imply: the
precomputed keyword→score matrix lives in an on-disk store
(:mod:`repro.store`) that every worker maps read-only, so the kernel keeps
exactly **one** physical copy of the scores in the page cache no matter how
many workers serve from it, and answering ``/search`` takes no cross-process
lock anywhere.

Architecture::

    ClusterSupervisor
      ├── binds the public listener once (SO_REUSEADDR, backlog 128)
      ├── builds + preloads one QueryService (single-threaded, pre-fork,
      │   so workers share the engines copy-on-write)
      ├── fork()s N workers, each of which
      │     ├── serves the shared listener (kernel-balanced accepts; the
      │     │   listener is non-blocking, so lost accept races are free)
      │     ├── serves a private ephemeral *control* port for targeted
      │     │   /metrics, /healthz and /search probes
      │     └── drains in-flight requests on SIGTERM
      ├── monitors workers, reaping and respawning any that die
      └── aggregates /metrics across workers, labelling every sample
          with ``worker_id`` and ``store_generation``

Generation swaps need no supervisor involvement: each worker's
:class:`~repro.store.generations.StoreManager` polls the store's ``CURRENT``
manifest between requests and swaps one object reference, so a rebuild
published by ``repro store build`` goes live on every worker within the
refresh interval without dropping a single request.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from pathlib import Path

from repro.errors import ReproError
from repro.serve.http_server import (
    DEFAULT_DRAIN_TIMEOUT,
    METRICS_TYPE,
    SERVER,
    QueryHTTPServer,
    WireRequestHandler,
    create_server,
    serve_until_shutdown,
)
from repro.serve.service import QueryService, ServeConfig

LISTEN_BACKLOG = 128


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one prefork cluster (wraps a worker-side ServeConfig)."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    #: Interface the per-worker control servers bind (ephemeral ports).
    control_host: str = "127.0.0.1"
    #: Directory for worker status files (None = private temp directory).
    run_dir: str | None = None
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    monitor_interval: float = 0.2
    #: Restart workers that die unexpectedly (crash, SIGKILL).
    respawn: bool = True
    #: Ceiling on unexpected-death restarts, a crash-loop circuit breaker.
    max_respawns: int = 16
    #: Port of the supervisor's own admin endpoint (None = no admin server).
    admin_port: int | None = None
    quiet: bool = True


@dataclass(frozen=True)
class WorkerStatus:
    """One live worker as seen by the supervisor."""

    worker_id: int
    pid: int
    control_port: int


class ClusterSupervisor:
    """Owns the shared listener and the worker process pool.

    ``start()`` must be called from a process that can ``fork`` (POSIX).
    Workers are forked before any supervisor thread starts, so the initial
    pool is created from a single-threaded parent; respawns fork from the
    monitor thread, which is safe here because a fresh worker re-creates
    its servers from scratch and touches no supervisor lock.
    """

    def __init__(
        self, config: ClusterConfig, service: QueryService | None = None
    ) -> None:
        if config.workers < 1:
            raise ReproError(f"cluster needs >= 1 worker, got {config.workers}")
        self.config = config
        self._service = service
        self._listener: socket.socket | None = None
        self.run_dir = Path(
            config.run_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self._lock = threading.Lock()
        #: guarded by self._lock
        self._workers: dict[int, int] = {}
        #: guarded by self._lock
        self._stopping = False
        #: guarded by self._lock
        self._respawns = 0
        self._monitor_thread: threading.Thread | None = None
        self._admin: ThreadingHTTPServer | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) of the shared public listener."""
        if self._listener is None:
            raise ReproError("cluster is not started")
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def respawns(self) -> int:
        with self._lock:
            return self._respawns

    def start(self) -> None:
        """Bind the listener, preload the service, fork the worker pool."""
        if self._listener is not None:
            raise ReproError("cluster already started")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(LISTEN_BACKLOG)
            listener.set_inheritable(True)
        except BaseException:
            # bind() raising (EADDRINUSE, EACCES) must not leak the socket:
            # a supervisor retrying start() would otherwise accumulate one
            # dangling fd per attempt.
            listener.close()
            raise
        self._listener = listener
        if self._service is None:
            # Built and preloaded once, pre-fork: the graphs, indexes and
            # engines are shared copy-on-write by every worker, and the
            # mmap'd store pages are shared physically by the page cache.
            self._service = QueryService(self.config.serve)
            self._service.preload()
        for worker_id in range(self.config.workers):
            self._spawn(worker_id)
        if self.config.admin_port is not None:
            self._start_admin()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="cluster-monitor", daemon=True
        )
        self._monitor_thread.start()

    def stop(self, timeout: float | None = None) -> bool:
        """SIGTERM every worker, wait for drained exits, SIGKILL stragglers.

        Returns ``True`` when every worker exited within ``timeout`` (which
        defaults to the drain timeout plus headroom).
        """
        if timeout is None:
            timeout = self.config.drain_timeout + 5.0
        with self._lock:
            self._stopping = True
            workers = dict(self._workers)
        for pid in workers.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        clean = True
        for pid in workers.values():
            if not _wait_for_exit(pid, deadline):
                clean = False
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                _wait_for_exit(pid, time.monotonic() + 5.0)
        with self._lock:
            self._workers.clear()
        if self._admin is not None:
            self._admin.shutdown()
            self._admin.server_close()
            self._admin = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        return clean

    # -- worker processes ----------------------------------------------------

    def _spawn(self, worker_id: int) -> int:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = self._run_worker(worker_id)
            finally:
                # Never unwind into the supervisor's stack from a child.
                os._exit(code)
        with self._lock:
            self._workers[worker_id] = pid
        return pid

    def _run_worker(self, worker_id: int) -> int:
        """Worker main: shared-listener server + private control server."""
        if self._admin is not None:
            self._admin.socket.close()
        assert self._listener is not None and self._service is not None
        server = create_server(
            self._service,
            quiet=self.config.quiet,
            listen_socket=self._listener,
        )
        control = create_server(
            self._service,
            host=self.config.control_host,
            port=0,
            quiet=self.config.quiet,
        )
        threading.Thread(
            target=control.serve_forever, name="worker-control", daemon=True
        ).start()
        self._write_status(worker_id, control)
        _signum, drained = serve_until_shutdown(
            server, drain_timeout=self.config.drain_timeout
        )
        control.shutdown()
        control.server_close()
        return 0 if drained else 1

    def _write_status(self, worker_id: int, control: QueryHTTPServer) -> None:
        """Publish this worker's control port for the supervisor (atomic)."""
        path = self.run_dir / f"worker-{worker_id}.json"
        temp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        payload = {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "control_port": control.server_address[1],
        }
        temp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        os.replace(temp, path)

    def workers(self) -> list[WorkerStatus]:
        """Live workers whose control servers have come up, by worker id."""
        with self._lock:
            pids = dict(self._workers)
        statuses = []
        for worker_id, pid in sorted(pids.items()):
            path = self.run_dir / f"worker-{worker_id}.json"
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # worker has not published its control port yet
            if int(data.get("pid", -1)) != pid:
                continue  # stale file from a dead incarnation; respawn pending
            statuses.append(WorkerStatus(worker_id, pid, int(data["control_port"])))
        return statuses

    def _monitor(self) -> None:
        """Reap dead workers; respawn them unless stopping (or capped)."""
        while True:
            with self._lock:
                if self._stopping:
                    return
                workers = dict(self._workers)
            for worker_id, pid in workers.items():
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid  # reaped elsewhere; treat as exited
                if done == 0:
                    continue
                with self._lock:
                    if (
                        self._stopping
                        or not self.config.respawn
                        or self._respawns >= self.config.max_respawns
                    ):
                        self._workers.pop(worker_id, None)
                        continue
                    self._respawns += 1
                self._spawn(worker_id)
            time.sleep(self.config.monitor_interval)

    # -- aggregation ---------------------------------------------------------

    def aggregate_metrics(self, timeout: float = 2.0) -> str:
        """Cluster-wide Prometheus text: every worker's samples, labelled.

        Each sample line gains ``worker_id`` and ``store_generation`` labels
        (the generation scraped from the worker's own
        ``repro_store_generation`` gauge, ``"none"`` off the store path), so
        one scrape shows both the per-worker split and whether a generation
        swap has reached every process.  ``# HELP``/``# TYPE`` lines are
        kept once.  A worker that fails its scrape is skipped — the
        supervisor-level ``repro_cluster_workers`` gauge still counts it.
        """
        statuses = self.workers()
        seen_meta: set[str] = set()
        sections = []
        scraped = 0
        for status in statuses:
            url = (
                f"http://{self.config.control_host}:{status.control_port}/metrics"
            )
            try:
                text = _http_get(url, timeout)
            except OSError:
                continue
            scraped += 1
            generation = _scrape_value(text, "repro_store_generation")
            labels = {
                "worker_id": str(status.worker_id),
                "store_generation": (
                    str(int(generation)) if generation is not None else "none"
                ),
            }
            sections.append(inject_labels(text, labels, seen_meta))
        sections.append(
            "# TYPE repro_cluster_workers gauge\n"
            f"repro_cluster_workers {len(statuses)}\n"
            "# TYPE repro_cluster_workers_scraped gauge\n"
            f"repro_cluster_workers_scraped {scraped}\n"
            "# TYPE repro_cluster_respawns_total counter\n"
            f"repro_cluster_respawns_total {self.respawns}"
        )
        return "\n".join(sections) + "\n"

    def cluster_health(self) -> dict:
        """Supervisor-side liveness summary (no per-worker HTTP probes)."""
        statuses = self.workers()
        host, port = self.address
        return {
            "status": "ok" if statuses else "starting",
            "listen": {"host": host, "port": port},
            "workers": [
                {
                    "worker_id": s.worker_id,
                    "pid": s.pid,
                    "control_port": s.control_port,
                }
                for s in statuses
            ],
            "configured_workers": self.config.workers,
            "respawns": self.respawns,
        }

    # -- admin endpoint ------------------------------------------------------

    def _start_admin(self) -> None:
        admin = ThreadingHTTPServer(
            (self.config.control_host, self.config.admin_port), _AdminHandler
        )
        admin.daemon_threads = True
        admin.supervisor = self
        self._admin = admin
        threading.Thread(
            target=admin.serve_forever, name="cluster-admin", daemon=True
        ).start()


class _AdminHandler(WireRequestHandler):
    """GET-only supervisor endpoint: aggregated /metrics, /healthz, /workers."""

    server_name = SERVER.replace("repro-serve", "repro-cluster")
    methods = ("GET",)

    def route(self) -> None:
        supervisor: ClusterSupervisor = self.server.supervisor
        if self.path == "/metrics":
            self.respond(200, METRICS_TYPE, supervisor.aggregate_metrics().encode("utf-8"))
        elif self.path == "/healthz":
            self.respond_json(200, supervisor.cluster_health())
        elif self.path == "/workers":
            self.respond_json(200, supervisor.cluster_health()["workers"])
        else:
            self.respond_error(404, "not_found", f"no route for {self.path}")


# -- helpers -----------------------------------------------------------------


def inject_labels(
    text: str, labels: dict[str, str], seen_meta: set[str] | None = None
) -> str:
    """Add labels to every sample line of a Prometheus text exposition.

    Existing labels (histogram ``quantile=...``) are preserved; ``# HELP``/
    ``# TYPE`` lines already recorded in ``seen_meta`` are dropped so that
    concatenating several workers' expositions yields each metric's metadata
    exactly once.
    """
    rendered = ",".join(f'{name}="{value}"' for name, value in labels.items())
    lines = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            if seen_meta is not None:
                if line in seen_meta:
                    continue
                seen_meta.add(line)
            lines.append(line)
            continue
        sample, _, value = line.rpartition(" ")
        if sample.endswith("}"):
            lines.append(f"{sample[:-1]},{rendered}}} {value}")
        else:
            lines.append(f"{sample}{{{rendered}}} {value}")
    return "\n".join(lines)


def _scrape_value(text: str, name: str) -> float | None:
    """The value of an unlabelled sample in a Prometheus exposition."""
    prefix = name + " "
    for line in text.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix) :])
            except ValueError:
                return None
    return None


def _http_get(url: str, timeout: float) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _wait_for_exit(pid: int, deadline: float) -> bool:
    """Poll-reap one child until it exits or ``deadline`` passes."""
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done != 0:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
