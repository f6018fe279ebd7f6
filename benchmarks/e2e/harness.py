"""Set-up, the server subprocess, the HTTP load generator and the oracle.

The generator is one process with at most two threads, each owning one
keep-alive connection; the server is the real ``repro serve`` CLI in its own
process, so the generator's interpreter lock is not part of what is measured.
All loops are closed: a client sends its next request only after the previous
answer is fully read and parsed.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode

import numpy
import scipy.sparse

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.datasets import load_dataset  # noqa: E402
from repro.query.engine import SearchEngine  # noqa: E402
from repro.ranking.precompute import PrecomputedRanker  # noqa: E402
from repro.retrieval.engine import TwoStageEngine  # noqa: E402
from repro.serve import QueryService, ServeConfig  # noqa: E402
from repro.store import build_and_publish, store_path  # noqa: E402

from benchmarks.e2e.workloads import (  # noqa: E402
    CORPUS_SEED,
    MARKED_RELEVANT,
    TOP_K,
    IngestCycle,
    Workload,
)

START_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class HarnessError(Exception):
    """The benchmark itself (not the program under test) could not run."""


# -- the box's speed ---------------------------------------------------------------

#: A measured phase is cut into segments this long; the reference kernel runs
#: between them.
SEGMENT_SECONDS = 0.5
#: The reference kernel's duration on the reference box when nothing else on
#: the host contends with it.  Only a scale: it makes a corrected time read
#: like a time measured in that state.
REFERENCE_SECONDS = 0.0215


class Speedometer:
    """How fast the box ran between two readings of a fixed reference kernel.

    The reference box is a 2-vCPU microVM whose speed moves by 1.3-1.6x, for
    seconds or for minutes, so a time measured in one run cannot be compared
    with one measured in another.  The kernel is fixed work independent of
    ``repro`` — a pure-Python arithmetic loop and a sparse power iteration,
    the two kinds of work the server does.  It is read (three runs) before and
    after every step of set-up and every segment of the measured phase, while
    no request is in flight; :meth:`lap` returns ``REFERENCE_SECONDS /
    median(the six durations around the step)``, and the step's times are
    multiplied by it (README "Box-speed correction" has the recorded
    comparison with and without).
    """

    PYTHON_STEPS = 200_000
    NODES = 15_000
    MATVECS = 50
    RUNS = 3

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self._matrix = scipy.sparse.random(
            self.NODES, self.NODES, density=6 / self.NODES, format="csr", random_state=rng
        )
        self._vector = rng.random(self.NODES)
        self._before = self._read()

    def _kernel_seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for step in range(self.PYTHON_STEPS):
            total += step * step
        vector = self._vector
        for _ in range(self.MATVECS):
            vector = self._matrix @ vector
            vector /= numpy.abs(vector).sum()
        return time.perf_counter() - start

    def _read(self) -> list[float]:
        return [self._kernel_seconds() for _ in range(self.RUNS)]

    def lap(self) -> float:
        """The box's speed since the previous lap: 1.0 is the reference box
        at its best, 0.7 the same box running at 70 % of that."""
        after = self._read()
        speed = REFERENCE_SECONDS / statistics.median(self._before + after)
        self._before = after
        return speed


# -- set-up -------------------------------------------------------------------


@dataclass
class Corpus:
    """The benchmark process's own copy of the served data: the oracle."""

    dataset: object
    engine: SearchEngine
    ranker: PrecomputedRanker | None
    store_dir: Path | None
    #: Seconds per build stage, in the order they ran.
    stages: dict[str, float] = field(default_factory=dict)
    #: The box's speed during each stage.
    speeds: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.dataset.name


def build_corpus(workload: Workload, workdir: Path, meter: Speedometer) -> Corpus:
    """Generate the corpus, index it and (store workloads) publish the store.

    This is the work a deployer does before ``repro serve --store`` can
    start — the same calls ``repro store build`` makes — and doubles as the
    in-process oracle, so nothing is built twice.  ``meter`` was read just
    before; it is read again after each stage.
    """
    stages: dict[str, float] = {}
    speeds: dict[str, float] = {}

    def timed(stage: str, call):
        start = time.perf_counter()
        result = call()
        stages[stage] = time.perf_counter() - start
        speeds[stage] = meter.lap()
        return result

    dataset = timed(
        "generate",
        lambda: load_dataset(workload.corpus, scale=workload.scale, seed=CORPUS_SEED),
    )
    engine = timed(
        "engine", lambda: SearchEngine(dataset.data_graph, dataset.transfer_schema)
    )
    ranker = store_dir = None
    if workload.store or workload.shape == "ingest":
        ranker = timed(
            "precompute", lambda: PrecomputedRanker(engine.graph, engine.index)
        )
    if workload.store:
        store_dir = workdir / "stores"
        timed(
            "publish",
            lambda: build_and_publish(store_dir / dataset.name, ranker, dataset.name),
        )
    return Corpus(dataset, engine, ranker, store_dir, stages, speeds)


def slab_megabytes(corpus: Corpus) -> float:
    return store_path(corpus.store_dir / corpus.name, 1).stat().st_size / 1e6


def make_workdir() -> Path:
    """A per-run scratch directory inside the checkout (stores, temp files)."""
    workdir = REPO_ROOT / ".bench_build" / "e2e" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # The native kernel compiles into tempfile.mkdtemp(): keep that, and the
    # server's copy of it, inside the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    return workdir


def in_process_service(workload: Workload, corpus: Corpus) -> QueryService:
    """A service configured exactly like the server subprocess."""
    config = ServeConfig(
        datasets=(corpus.name,),
        scale=workload.scale,
        seed=CORPUS_SEED,
        store_dir=str(corpus.store_dir) if workload.store else None,
        **workload.config,
    )
    return QueryService(config, datasets={corpus.name: corpus.dataset})


# -- the server subprocess ------------------------------------------------------


class Server:
    """``python -m repro.cli serve`` as a child process on an ephemeral port."""

    def __init__(self, workload: Workload, corpus: Corpus, workdir: Path) -> None:
        self.command = [
            sys.executable, "-m", "repro.cli", "serve", workload.corpus,
            "--port", "0", "--scale", str(workload.scale),
            "--seed", str(CORPUS_SEED), "--quiet", *workload.server_flags(),
        ]
        if workload.store:
            self.command += ["--store", str(corpus.store_dir)]
        self.workdir = workdir
        self.dataset = workload.corpus
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.start_seconds = 0.0
        self.first_answer_seconds = 0.0

    def start(self, prime_query: str) -> None:
        """Spawn, wait for ``/healthz`` = 200, then for one real answer.

        The first ``mode=auto`` answer is part of set-up because without a
        store the precompute is built lazily by the first request needing it.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        began = time.perf_counter()
        with open(self.workdir / "server.stderr", "ab") as stderr:
            self.process = subprocess.Popen(
                self.command, cwd=REPO_ROOT, env=env,
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise HarnessError(f"server did not start: {line!r}\n{self.stderr_tail()}")
        self.port = int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
        client = Client(self.port)
        try:
            if client.call("GET", "/healthz").status != 200:
                raise HarnessError("server /healthz did not answer 200")
            self.start_seconds = time.perf_counter() - began
            reply = client.call("GET", search_path(self.dataset, prime_query, "auto"))
            if reply.status != 200:
                raise HarnessError(f"priming query failed: {reply.payload}")
            self.first_answer_seconds = time.perf_counter() - began - self.start_seconds
        finally:
            client.close()

    @property
    def ready_seconds(self) -> float:
        return self.start_seconds + self.first_answer_seconds

    def stderr_tail(self) -> str:
        try:
            return (self.workdir / "server.stderr").read_text()[-2000:]
        except OSError:
            return ""

    def cpu_seconds(self) -> float:
        """User + system CPU of the server and its reaped children."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return sum(int(fields[i]) for i in (11, 12, 13, 14)) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise HarnessError("VmHWM missing from /proc status")

    def metrics(self, client: "Client") -> dict[str, float]:
        """The server's Prometheus counters and gauges by name."""
        reply = client.call("GET", "/metrics", parse=False)
        values = {}
        for line in reply.body.decode("utf-8").splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


# -- the HTTP client -------------------------------------------------------------


@dataclass
class Reply:
    status: int  # 0 = transport failure or timeout
    payload: dict | None
    body: bytes
    seconds: float


class Client:
    """One keep-alive connection; latency is request written -> body parsed."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection: http.client.HTTPConnection | None = None

    def connect(self) -> http.client.HTTPConnection:
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
            self.connection.connect()
            self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self.connection

    def call(self, method: str, path: str, body: dict | None = None, parse: bool = True) -> Reply:
        raw = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if raw is None else {"Content-Type": "application/json"}
        start = time.perf_counter()
        try:
            connection = self.connect()
            connection.request(method, path, body=raw, headers=headers)
            response = connection.getresponse()
            data = response.read()
            payload = json.loads(data) if parse else None
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return Reply(0, None, b"", time.perf_counter() - start)
        return Reply(response.status, payload, data, time.perf_counter() - start)

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def search_path(dataset: str, query: str, mode: str, params: dict | None = None) -> str:
    fields = {"dataset": dataset, "q": query, "mode": mode, "top_k": TOP_K}
    return "/search?" + urlencode({**fields, **(params or {})})


# -- the closed loop ---------------------------------------------------------------


@dataclass
class Sample:
    """One timed request."""

    op: int  # index into the workload's op list
    role: str  # "primary" (the latency metrics) or "write" (ingest refreshes)
    seconds: float
    status: int
    served_from: str | None
    nbytes: int
    #: Kept only where the oracle will look (every ``verify_every``-th op).
    payload: dict | None = None
    request: dict | None = None
    #: The box's speed during the segment the request was sent in.
    speed: float = 1.0


@dataclass
class Phase:
    """One closed-loop pass over part of the op list."""

    samples: list[Sample]
    #: Ops executed (an ingest op makes 13 requests, the others one).
    ops: int
    #: First request written -> last answer parsed.
    seconds: float
    #: Server CPU over the same interval (0 unless a reader was given).
    cpu_seconds: float
    #: Where the next pass over the same list starts.
    next_op: int = 0
    #: A measured phase: the box's speed per segment, and ``seconds`` and
    #: ``cpu_seconds`` with each segment's share multiplied by its speed.
    speeds: list[float] = field(default_factory=list)
    reference_seconds: float = 0.0
    reference_cpu_seconds: float = 0.0


def _execute(workload: Workload, dataset: str, client: Client, index: int, op) -> list[Sample]:
    """Send one op; return its timed requests."""
    keep = index % workload.verify_every == 0

    def sample(role: str, reply: Reply, request: dict | None = None) -> Sample:
        payload = reply.payload or {}
        return Sample(
            index, role, reply.seconds, reply.status, payload.get("served_from"),
            len(reply.body), payload if keep else None, request if keep else None,
        )

    if workload.shape == "search":
        path = search_path(dataset, op.text, workload.mode, workload.params)
        return [sample("primary", client.call("GET", path))]
    if workload.shape == "session":
        # The user looks at a result page (untimed), marks its top result
        # relevant, and waits for the reformulated ranking (timed).
        page = client.call("GET", search_path(dataset, op.text, "live"))
        if page.status != 200 or len(page.payload["results"]) < MARKED_RELEVANT:
            return [sample("primary", Reply(0, None, b"", page.seconds))]
        request = {
            "dataset": dataset,
            "query": op.text,
            "relevant_ids": [hit["id"] for hit in page.payload["results"][:MARKED_RELEVANT]],
            "apply": False,
        }
        reply = client.call("POST", "/feedback/reformulate", request)
        return [sample("primary", reply, request)]
    cycle: IngestCycle = op
    request = {"dataset": dataset, "mutations": list(cycle.mutations), "refresh": "force"}
    samples = [sample("write", client.call("POST", "/ingest", request))]
    for text in cycle.reads:
        samples.append(sample("primary", client.call("GET", search_path(dataset, text, "auto"))))
    return samples


def run_phase(
    workload: Workload,
    dataset: str,
    port: int,
    ops: list,
    first: int = 0,
    seconds: float | None = None,
    cpu_seconds=None,
) -> Phase:
    """Run ``ops`` from index ``first`` on ``workload.clients`` connections.

    Client ``i`` takes ops ``first + i, first + i + clients, ...`` so the
    assignment is fixed by the seed, not by scheduling.  With ``seconds`` each
    client stops at its first op boundary past the deadline; without, the
    whole list runs.  ``cpu_seconds()`` is read when the clients are released
    and when the last one has finished.
    """
    barrier = threading.Barrier(workload.clients + 1)
    lanes: list[list[Sample]] = [[] for _ in range(workload.clients)]
    done = [0] * workload.clients
    deadline = float("inf") if seconds is None else time.perf_counter() + seconds

    def loop(lane: int) -> None:
        client = Client(port)
        try:
            client.connect()
            barrier.wait()
            for index in range(first + lane, len(ops), workload.clients):
                if time.perf_counter() >= deadline:
                    break
                lanes[lane] += _execute(workload, dataset, client, index, ops[index])
                done[lane] += 1
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(lane,)) for lane in range(workload.clients)]
    for thread in threads:
        thread.start()
    cpu_before = cpu_seconds() if cpu_seconds else 0.0
    barrier.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    cpu = cpu_seconds() - cpu_before if cpu_seconds else 0.0
    samples = sorted((s for lane in lanes for s in lane), key=lambda s: s.op)
    return Phase(samples, sum(done), elapsed, cpu, first + workload.clients * max(done))


def run_measured(
    workload: Workload, dataset: str, server: Server, ops: list, seconds: float,
    meter: Speedometer,
) -> Phase:
    """The measured phase: closed-loop passes of ``SEGMENT_SECONDS`` each over
    the ops after the warm-up, ``seconds`` in all, the speedometer read before,
    between and after them."""
    whole = Phase([], 0, 0.0, 0.0, workload.warmup)
    segments = max(1, round(seconds / SEGMENT_SECONDS))
    meter.lap()
    for _ in range(segments):
        if whole.next_op >= len(ops):
            break
        part = run_phase(
            workload, dataset, server.port, ops, whole.next_op, seconds / segments,
            server.cpu_seconds,
        )
        speed = meter.lap()
        for sample in part.samples:
            sample.speed = speed
        whole.samples += part.samples
        whole.ops += part.ops
        whole.seconds += part.seconds
        whole.cpu_seconds += part.cpu_seconds
        whole.next_op = part.next_op
        whole.speeds.append(speed)
        whole.reference_seconds += part.seconds * speed
        whole.reference_cpu_seconds += part.cpu_seconds * speed
    return whole


# -- the oracle --------------------------------------------------------------------


def _page(payload: dict) -> list[tuple[str, float]]:
    return [(hit["id"], hit["score"]) for hit in payload["results"]]


class Oracle:
    """Recomputes sampled answers in this process; ids and floats must match
    bit for bit (JSON round-trips Python floats exactly)."""

    def __init__(self, workload: Workload, corpus: Corpus) -> None:
        self.workload = workload
        self.corpus = corpus
        self._two_stage = TwoStageEngine(
            corpus.engine,
            **{
                key.removeprefix("rerank_"): value
                for key, value in workload.config.items()
                if key == "candidates" or key.startswith("rerank_")
            },
        )
        self._service: QueryService | None = None

    def expected_page(self, query: str, served_from: str, engine=None, ranker=None):
        engine = engine or self.corpus.engine
        ranker = ranker or self.corpus.ranker
        if served_from in ("cache", "store", "precomputed"):
            return ranker.rank(engine.query_vector(query)).top_k(TOP_K)
        if served_from == "two_stage":
            return self._two_stage.search(query, top_k=TOP_K, **self.workload.params).top
        return engine.search(query, top_k=TOP_K).top

    def check(self, sample: Sample, query: str) -> str | None:
        """``None`` when the sampled answer is right, else what differs."""
        if self.workload.shape == "session":
            return self._check_feedback(sample)
        if _page(sample.payload) != self.expected_page(query, sample.served_from):
            return f"op {sample.op} ({query!r}, {sample.served_from}): page differs"
        return None

    def _check_feedback(self, sample: Sample) -> str | None:
        if self._service is None:
            # No precompute: the fields compared below never consult it.
            self._service = QueryService(
                ServeConfig(datasets=(self.corpus.name,), precompute=False),
                datasets={self.corpus.name: self.corpus.dataset},
            )
        request = sample.request
        expected = self._service.feedback_reformulate(
            request["dataset"], request["query"], request["relevant_ids"], apply=False
        )
        for key in ("results", "reformulated_query", "learned_rates", "iterations"):
            mine, theirs = expected[key], sample.payload[key]
            if key == "results":
                mine, theirs = _page(expected), _page(sample.payload)
            if mine != theirs:
                return f"op {sample.op} ({request['query']!r}): {key} differs"
        return None


def verify_ingest(
    workload: Workload, corpus: Corpus, cycles: list[IngestCycle], port: int, probes: list[str]
) -> list[str]:
    """Probe the mutated server against a from-scratch build of the same graph."""
    mirror = corpus.dataset.data_graph.copy()
    for cycle in cycles:
        for mutation in cycle.mutations:
            if mutation["op"] == "update_node":
                mirror.update_attributes(mutation["node_id"], mutation["attributes"])
            elif mutation["op"] == "add_node":
                mirror.add_node(mutation["node_id"], mutation["label"], mutation["attributes"])
            else:
                mirror.add_edge(mutation["source"], mutation["target"], mutation["role"])
    engine = SearchEngine(mirror, corpus.dataset.transfer_schema)
    ranker = PrecomputedRanker(engine.graph, engine.index)
    oracle = Oracle(workload, corpus)
    problems = []
    client = Client(port)
    try:
        for query in probes:
            reply = client.call("GET", search_path(corpus.name, query, "auto"))
            if reply.status != 200:
                problems.append(f"probe {query!r}: status {reply.status}")
                continue
            if reply.payload["staleness"]["epoch"] != len(cycles):
                problems.append(f"probe {query!r}: epoch {reply.payload['staleness']}")
            expected = oracle.expected_page(query, reply.payload["served_from"], engine, ranker)
            if _page(reply.payload) != expected:
                problems.append(f"probe {query!r}: page differs from a from-scratch build")
    finally:
        client.close()
    return problems
