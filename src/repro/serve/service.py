"""The query service: per-dataset engines, result caching, execution routing.

:class:`QueryService` is the serving layer the paper's Section 6.2 asks for —
on-the-fly ObjectRank2 is "clearly too long for exploratory searching", so a
deployed system answers from the cheapest source that is still correct:

1. the **result cache** (exact answers computed earlier under the same
   dataset, query vector, transfer rates and ``top_k``);
2. the **precomputed ranker** (per-keyword [BHP04] vectors blended at query
   time), used only while it is *fresh* — a structure-based reformulation
   that changes the serving rates makes it stale and routes traffic back to
3. **live ObjectRank2** over the shared engine, through the per-call
   transfer-rate views of :meth:`repro.query.engine.SearchEngine.search`
   (no shared-graph mutation, so concurrent sessions stay isolated).

The paper's loop (Section 5) is stateful — explain and reformulate *from the
scores the search already has* — and the endpoints are not, so the service
keeps what the loop would have kept: the converged ranking of every cold,
full-graph live ObjectRank2 run goes into the **score cache**, and a later
``/explain`` or ``/feedback/reformulate`` for the same query under the same
rates starts its session from it instead of searching again.

All responses are JSON-ready dicts; the HTTP layer in
:mod:`repro.serve.http_server` only adds transport concerns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import DEFAULT_RADIUS, SystemConfig
from repro.core.system import ObjectRankSystem
from repro.datasets import load_dataset
from repro.datasets.base import Dataset
from repro.errors import EmptyBaseSetError, PrecomputedCoverageError, ReproError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.data_graph import DataGraph
from repro.ingest.engine import IngestEngine
from repro.query.engine import SearchEngine, SearchResult, select_top
from repro.query.query import KeywordQuery, QueryVector
from repro.ranking.convergence import RankedResult
from repro.ranking.precompute import PrecomputedRanker
from repro.reformulate.combined import Reformulator
from repro.retrieval.engine import (
    DEFAULT_CANDIDATES,
    DEFAULT_RERANK_HORIZON,
    TwoStageEngine,
    TwoStageResult,
)
from repro.serve.cache import (
    ResultCache,
    make_key,
    query_fingerprint,
    rates_fingerprint,
)
from repro.serve.metrics import MetricsRegistry
from repro.store.generations import StoreManager

SERVE_MODES = ("auto", "live", "precomputed", "two_stage")

EXPLAIN_MODES = ("live", "two_stage")

#: Memory the score cache may hold, per process: a kept ranking is charged
#: its score vector (8 bytes per graph node) plus its base-weight map.
SCORE_CACHE_BYTES = 4 * 2**20
#: What one base-set node of a kept ranking is charged: a dict slot and a
#: float (the key is the graph's own id string).
BASE_WEIGHT_BYTES = 100


class DeadlineExceededError(ReproError):
    """The request's time budget ran out before the expensive work started."""


class Deadline:
    """A monotonic per-request time budget, checked before expensive stages.

    The power iteration itself is not preemptible, so the deadline is
    enforced at stage boundaries: a request that has already used its budget
    fails fast instead of starting another full ObjectRank2 run.
    """

    def __init__(self, seconds: float, clock=time.monotonic) -> None:
        self._clock = clock
        self.seconds = seconds
        self._expires_at = clock() + seconds

    def remaining(self) -> float:
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, stage: str) -> None:
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.seconds:.3f}s exceeded before {stage}"
            )


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one query service instance."""

    datasets: tuple[str, ...] = ("dblp_tiny",)
    scale: float = 1.0
    seed: int = 7
    default_top_k: int = 10
    radius: int | None = DEFAULT_RADIUS
    cache_max_entries: int = 512
    cache_ttl_seconds: float | None = None
    #: Two-stage retrieval defaults for ``mode=two_stage`` requests (each
    #: overridable per request): stage-1 candidate-set size and rerank
    #: neighborhood horizon (see :mod:`repro.retrieval`).
    candidates: int = DEFAULT_CANDIDATES
    rerank_horizon: int = DEFAULT_RERANK_HORIZON
    #: Hub-expansion cap and adaptive-deepening budget of the rerank
    #: neighborhood (see :func:`repro.ranking.focused.focused_neighborhood`);
    #: ``None`` keeps the exact uncapped, fixed-horizon expansion.
    rerank_expand_cap: int | None = None
    rerank_node_budget: int | None = None
    rerank_max_horizon: int | None = None
    precompute: bool = True
    precompute_min_document_frequency: int = 2
    precompute_keywords: tuple[str, ...] | None = None
    #: Fraction of a query's term weight the precomputed cache must cover to
    #: answer it; below this the request falls back to live ObjectRank2.
    precompute_min_coverage: float = 1.0
    #: Rebuild the per-keyword vectors under the learned rates after an
    #: applied reformulation (blocks the reformulation request, restores the
    #: precomputed fast path for everyone else).
    precompute_rebuild: bool = False
    #: Root directory of on-disk score stores (one subdirectory per dataset,
    #: see :mod:`repro.store`).  When set, the precomputed fast path serves
    #: zero-copy from the mmap'd store's published generation instead of
    #: building vectors in-process — the prefork cluster mode, where every
    #: worker maps the same physical pages.
    store_dir: str | None = None
    #: Manifest poll throttle: a runtime re-checks its store's CURRENT
    #: pointer at most this often (0 checks on every request).
    store_refresh_seconds: float = 0.05
    #: Entries held by the explanation cache (full adjusted-flow payloads,
    #: keyed on dataset + query + rate fingerprint + target).
    explain_cache_max_entries: int = 256
    max_concurrency: int = 8
    deadline_seconds: float = 30.0
    #: Accept ``/ingest`` mutations and maintain the precomputed matrix
    #: online (dirty-keyword incremental refresh, see :mod:`repro.ingest`).
    ingest: bool = False
    #: Pending mutations tolerated before a search/explain request forces a
    #: synchronous refresh (0 = never serve with pending mutations).
    ingest_staleness_bound: int = 0
    #: Dirty-column refresh mode: ``"exact"`` re-converges dirty columns
    #: cold (bit-identical to a full precompute), ``"warm"`` seeds them from
    #: their previous fixpoints (fewer iterations, tolerance-equal scores).
    ingest_refresh_mode: str = "exact"

    def session_config(self, retrieval_mode: str) -> SystemConfig:
        """The config of a request's :class:`ObjectRankSystem` session: the
        service's page size, radius and two-stage knobs over the paper's
        calibration defaults, without the global warm start (one whole
        global ObjectRank per request to save a few iterations)."""
        return SystemConfig(
            top_k=self.default_top_k,
            radius=self.radius,
            global_warm_start=False,
            retrieval_mode=retrieval_mode,
            candidates=self.candidates,
            rerank_horizon=self.rerank_horizon,
            rerank_expand_cap=self.rerank_expand_cap,
            rerank_node_budget=self.rerank_node_budget,
            rerank_max_horizon=self.rerank_max_horizon,
        )


class DatasetRuntime:
    """Everything the service holds per dataset: engine, rates, precompute.

    ``current_rates`` is the dataset's *serving* rate schema — the initial
    expert rates until a structure-based reformulation is applied, the
    learned rates afterwards.  The precomputed ranker is built lazily on
    first use (it runs one ObjectRank per index keyword) and is consulted
    only while :meth:`PrecomputedRanker.is_stale` says it matches the
    serving rates.
    """

    def __init__(
        self, dataset: Dataset, config: ServeConfig, name: str | None = None
    ) -> None:
        self.dataset = dataset
        self.config = config
        #: The name this dataset is served under (the /search ``dataset``
        #: parameter and the store subdirectory) — may differ from the
        #: loaded dataset's own name when preloaded under an alias.
        self.name = name if name is not None else dataset.name
        self.engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
        #: guarded by self._rates_lock
        self.current_rates: AuthorityTransferSchemaGraph = dataset.transfer_schema
        #: guarded by self._rates_lock
        self.reformulations_applied = 0
        self._rates_lock = threading.Lock()
        self._precompute_lock = threading.Lock()
        self._two_stage: TwoStageEngine | None = None
        self._precomputed: PrecomputedRanker | None = None
        # Store-backed serving: the manager polls the dataset's CURRENT
        # manifest and swaps generations between requests; ``None`` keeps
        # the classic in-process precompute behaviour.
        self.store: StoreManager | None = None
        if config.store_dir is not None:
            self.store = StoreManager(
                Path(config.store_dir) / self.name,
                min_coverage=config.precompute_min_coverage,
                refresh_seconds=config.store_refresh_seconds,
            )
        # Ingest: mutations buffer in the engine's working copies while
        # serving continues on the last adopted snapshot; refresh_ingest
        # swaps snapshots and republishes the precomputed ranker.
        self.ingest: IngestEngine | None = None
        self._ingest_lock = threading.Lock()
        #: guarded by self._ingest_lock
        self._ingest_epoch = 0
        #: guarded by self._ingest_lock
        self._ingest_ranker: PrecomputedRanker | None = None
        if config.ingest:
            self.ingest = IngestEngine(
                dataset.data_graph,
                dataset.transfer_schema,
                min_document_frequency=config.precompute_min_document_frequency,
                min_coverage=config.precompute_min_coverage,
            )

    @property
    def data_graph(self) -> DataGraph:
        """The data graph currently being served (tracks ingest adoptions).

        Payload builders must read this (not ``dataset.data_graph``): after
        a refresh the engine serves an adopted snapshot and the original
        dataset object no longer describes the served topology.
        """
        return self.engine.data_graph

    @property
    def ingest_epoch(self) -> int:
        """Adopted ingest snapshots so far (0 = the original dataset)."""
        with self._ingest_lock:
            return self._ingest_epoch

    def staleness_info(self) -> dict | None:
        """The response ``staleness`` field; ``None`` when ingest is off."""
        if self.ingest is None:
            return None
        info = self.ingest.staleness().as_dict()
        info["epoch"] = self.ingest_epoch
        return info

    def refresh_ingest(
        self,
        mode: str | None = None,
        force: bool = False,
    ) -> dict | None:
        """Synchronously refresh + adopt + publish; ``None`` when a no-op.

        Re-converges the dirty columns (incremental against the last
        published ranker), swaps the engine onto the refreshed snapshot,
        and republishes the ranker — through the store's generation-swap
        protocol when store-backed (cluster workers pick it up between
        requests), by replacing the in-process ranker otherwise.  Serialized
        under the ingest lock; mutations keep landing concurrently and are
        picked up by the next refresh.
        """
        if self.ingest is None:
            return None
        with self._ingest_lock:
            if self.ingest.pending_mutations == 0 and not force:
                return None
            previous = self._ingest_ranker
            if previous is None and self.store is None and self.config.precompute:
                with self._precompute_lock:
                    # Seed the first incremental refresh from the lazily
                    # built startup ranker (same snapshot the working copy
                    # started from), instead of a full rebuild.
                    previous = self._precomputed
            result = self.ingest.refresh(
                previous=previous,
                rates=self.rates,
                mode=mode if mode is not None else self.config.ingest_refresh_mode,
                precompute=self.config.precompute or self.store is not None,
            )
            self.engine.adopt(
                result.data_graph,
                result.graph.transfer_schema,
                result.graph,
                result.index,
            )
            if result.ranker is not None:
                if self.store is not None:
                    # The ingest lock is a coarse refresh serializer, not a
                    # fast-path fence: request threads never take it, and
                    # publishing inside it is what guarantees epoch N's slab
                    # is on disk before epoch N is announced.
                    # repro-lint: ignore[RL013] deliberate publish-in-refresh
                    self.store.publish(result.ranker, self.name)
                else:
                    with self._precompute_lock:
                        self._precomputed = result.ranker
            self._ingest_ranker = result.ranker
            self._ingest_epoch += 1
            epoch = self._ingest_epoch
        return {
            "epoch": epoch,
            "mode": result.mode,
            "full_rebuild": result.full_rebuild,
            "recomputed_columns": len(result.recomputed),
            "carried_columns": len(result.carried),
            "iterations": result.iterations,
            "pending_consumed": result.pending_consumed,
            "elapsed_seconds": result.elapsed_seconds,
        }

    @property
    def two_stage(self) -> TwoStageEngine:
        """The runtime's two-stage retrieval engine (config defaults).

        Built lazily without a lock: construction is a cheap stateless
        binding to the shared engine, so a racing duplicate is harmless.
        The bound engine reference survives ingest adoptions (``adopt``
        swaps the engine's internals, not the engine object).
        """
        if self._two_stage is None:
            self._two_stage = TwoStageEngine.from_config(self.engine, self.config)
        return self._two_stage

    @property
    def rates(self) -> AuthorityTransferSchemaGraph:
        with self._rates_lock:
            return self.current_rates

    def apply_rates(self, rates: AuthorityTransferSchemaGraph) -> None:
        """Swap in learned serving rates (reformulation wiring calls this)."""
        with self._rates_lock:
            self.current_rates = rates
            self.reformulations_applied += 1

    def precomputed_ranker(self) -> PrecomputedRanker | None:
        """The precomputed fast-path ranker; ``None`` if unavailable.

        Store-backed runtimes return the ranker over the currently
        published generation's mapped store (refreshing the manifest first, so a
        generation swap is picked up here, between requests) and never
        build vectors in-process — an empty store directory simply routes
        to live ObjectRank2 until a builder publishes.
        """
        if self.store is not None:
            return self.store.ranker()
        if not self.config.precompute:
            return None
        with self._precompute_lock:
            if self._precomputed is None:
                self._precomputed = self._build_precomputed(self.engine.graph)
            return self._precomputed

    def built_ranker(self) -> PrecomputedRanker | None:
        """The ranker if one is store-published or already built, else
        ``None`` — unlike :meth:`precomputed_ranker` this never builds."""
        if self.store is not None:
            return self.store.ranker()
        with self._precompute_lock:
            return self._precomputed

    def store_generation(self) -> int | None:
        """The published store generation in use; ``None`` off the store."""
        if self.store is None:
            return None
        return self.store.generation

    def rebuild_precomputed(self) -> PrecomputedRanker | None:
        """Rebuild the per-keyword vectors under the current serving rates.

        A structure-based reformulation leaves the precomputed cache stale;
        rebuilding it (one blocked run over the vocabulary, see
        :mod:`repro.ranking.batch`) restores the precomputed fast path
        instead of routing all traffic to live ObjectRank2 forever.  The
        rebuild happens outside the lock — readers keep using the stale
        ranker's staleness check (and the live path) until the swap.

        Store-backed runtimes instead *publish a new generation* under the
        learned rates: the builder writes ``store.gen-K``, flips the
        manifest, and every worker process of the cluster picks the new
        generation up between requests — serving never blocks on a rebuild.
        """
        if self.store is None and not self.config.precompute:
            return None
        ranker = self._build_precomputed(self.engine.transfer_view(self.rates))
        if self.store is not None:
            self.store.publish(ranker, self.name)
            return self.store.ranker()
        with self._precompute_lock:
            self._precomputed = ranker
        return ranker

    def _build_precomputed(self, graph) -> PrecomputedRanker:
        keywords = (
            list(self.config.precompute_keywords)
            if self.config.precompute_keywords is not None
            else None
        )
        return PrecomputedRanker(
            graph,
            self.engine.index,
            keywords=keywords,
            min_document_frequency=self.config.precompute_min_document_frequency,
            min_coverage=self.config.precompute_min_coverage,
        )


class QueryService:
    """Concurrent query serving over one or more datasets.

    Thread-safe: request handling mutates only the cache, the metrics and
    (under ``/feedback/reformulate``) a runtime's serving rates, each behind
    its own lock.  Dataset loading and engine construction happen at most
    once per dataset name.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        registry: MetricsRegistry | None = None,
        datasets: dict[str, Dataset] | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = registry or MetricsRegistry()
        self.cache = ResultCache(
            max_entries=self.config.cache_max_entries,
            ttl_seconds=self.config.cache_ttl_seconds,
        )
        # Explanations are cached separately from search results: they carry
        # full adjusted-flow edge lists, are keyed per target, and answering
        # one from cache skips an entire live ObjectRank2 run.  The rate
        # fingerprint in the key makes reformulated sessions self-keying.
        self.explain_cache = ResultCache(
            max_entries=self.config.explain_cache_max_entries,
            ttl_seconds=self.config.cache_ttl_seconds,
        )
        # Converged cold-start, full-graph live rankings, kept so the loop's
        # later steps reuse the scores of the search before them.  Written
        # by the live branch of ``_execute`` and by ``_session``; read only
        # by ``_session``.  Nothing warm-started, two-stage or blended is
        # admitted, so a hit is bit-for-bit the run it replaces.
        self.score_cache = ResultCache(
            max_entries=None,
            max_bytes=SCORE_CACHE_BYTES,
            ttl_seconds=self.config.cache_ttl_seconds,
        )
        self.reformulator = Reformulator()
        self._preloaded = dict(datasets) if datasets else {}
        self._runtimes: dict[str, DatasetRuntime] = {}
        self._runtimes_lock = threading.Lock()
        self._started_at = time.monotonic()

        m = self.metrics
        self._requests = m.counter(
            "repro_requests_total", "Requests accepted by the service"
        )
        self._rejected = m.counter(
            "repro_requests_rejected_total",
            "Requests refused by admission control or deadlines",
        )
        self._errors = m.counter(
            "repro_request_errors_total", "Requests that failed with an error"
        )
        self._cache_hits = m.counter(
            "repro_cache_hits_total", "Search responses served from the result cache"
        )
        self._cache_misses = m.counter(
            "repro_cache_misses_total", "Search requests not answerable from cache"
        )
        self._explain_cache_hits = m.counter(
            "repro_explain_cache_hits_total",
            "Explanations served from the explanation cache",
        )
        self._explain_cache_misses = m.counter(
            "repro_explain_cache_misses_total",
            "Explanation requests not answerable from cache",
        )
        self._score_cache_hits = m.counter(
            "repro_score_cache_hits_total",
            "Loop sessions started from a kept live ranking instead of a search",
        )
        self._score_cache_misses = m.counter(
            "repro_score_cache_misses_total",
            "Loop sessions that ran their own initial ObjectRank2",
        )
        self._served_precomputed = m.counter(
            "repro_served_precomputed_total",
            "Search responses served from precomputed keyword vectors",
        )
        self._served_live = m.counter(
            "repro_served_live_total",
            "Search responses computed by live ObjectRank2",
        )
        self._served_store = m.counter(
            "repro_served_store_total",
            "Search responses served zero-copy from the mmap score store",
        )
        self._served_two_stage = m.counter(
            "repro_served_two_stage_total",
            "Search responses computed by two-stage retrieval",
        )
        self._invalidations = m.counter(
            "repro_cache_invalidations_total",
            "Cache entries dropped by reformulation-driven invalidation",
        )
        self._ingest_mutations = m.counter(
            "repro_ingest_mutations_total",
            "Mutations applied through /ingest",
        )
        self._ingest_refreshes = m.counter(
            "repro_ingest_refreshes_total",
            "Incremental precompute refreshes (adopt + publish cycles)",
        )
        self._ingest_recomputed = m.counter(
            "repro_ingest_columns_recomputed_total",
            "Precomputed columns re-converged by incremental refreshes",
        )
        self._ingest_carried = m.counter(
            "repro_ingest_columns_carried_total",
            "Precomputed columns carried unchanged across refreshes",
        )
        self._or_iterations = m.counter(
            "repro_objectrank_iterations_total",
            "Power-iteration steps spent answering live queries",
        )
        self._latency = m.histogram(
            "repro_request_seconds", "End-to-end service latency per request"
        )
        self._search_latency = m.histogram(
            "repro_search_seconds", "Service latency of /search requests"
        )
        self._two_stage_candidates = m.histogram(
            "repro_two_stage_candidates",
            "Stage-1 candidate-set size per two-stage search",
        )
        self._stage1_latency = m.histogram(
            "repro_two_stage_stage1_seconds",
            "Stage-1 latency (top-N BM25 candidate generation)",
        )
        self._stage2_latency = m.histogram(
            "repro_two_stage_stage2_seconds",
            "Stage-2 latency (focused authority rerank)",
        )

    # -- dataset runtimes --------------------------------------------------

    def dataset_names(self) -> list[str]:
        return list(self.config.datasets)

    def runtime(self, dataset: str) -> DatasetRuntime:
        """The (lazily built) runtime for one configured dataset."""
        with self._runtimes_lock:
            runtime = self._runtimes.get(dataset)
        if runtime is not None:
            return runtime
        if dataset not in self.config.datasets and dataset not in self._preloaded:
            raise ReproError(
                f"dataset {dataset!r} is not served; configured: "
                f"{', '.join(self.config.datasets)}"
            )
        loaded = self._preloaded.get(dataset) or load_dataset(
            dataset, scale=self.config.scale, seed=self.config.seed
        )
        built = DatasetRuntime(loaded, self.config, name=dataset)
        with self._runtimes_lock:
            # Another thread may have built it concurrently; first one wins.
            runtime = self._runtimes.setdefault(dataset, built)
        return runtime

    def preload(self) -> None:
        """Build every configured dataset's engine up front (CLI startup)."""
        for name in self.config.datasets:
            self.runtime(name)

    # -- the read path: plan -> execute -> render --------------------------

    def _begin(
        self, dataset: str, query: str | KeywordQuery | QueryVector
    ) -> tuple:
        """The prologue every read endpoint shares.

        Counts the request, brings the runtime within the ingest staleness
        bound (a synchronous refresh when too many mutations are pending),
        and only then reads what the answer depends on: ``(runtime, query
        vector, serving rates, staleness block)``.
        """
        self._requests.inc()
        runtime = self.runtime(dataset)
        self._ingest_maybe_refresh(runtime)
        vector = runtime.engine.query_vector(query)
        return runtime, vector, runtime.rates, runtime.staleness_info()

    def _respond(
        self,
        payload: dict,
        start: float,
        served_from: str | None = None,
        staleness: dict | None = None,
    ) -> dict:
        """Stamp a copy of ``payload`` (the caches hold the original)."""
        elapsed = time.perf_counter() - start
        self._latency.observe(elapsed)
        response = dict(payload)
        if served_from is not None:
            response["served_from"] = served_from
        response["elapsed_seconds"] = elapsed
        if staleness is not None:
            # Recomputed per response (never from the cached payload): the
            # bound a client observes must describe *now*, not cache time.
            response["staleness"] = staleness
        return response

    def search(
        self,
        dataset: str,
        query: str | KeywordQuery | QueryVector,
        top_k: int | None = None,
        mode: str = "auto",
        labels: tuple[str, ...] | None = None,
        deadline: Deadline | None = None,
        **two_stage,
    ) -> dict:
        """Answer one search request, routed cache -> precomputed -> live.

        ``mode`` forces an execution path: ``"auto"`` (default) consults the
        cache and the precomputed ranker before falling back to live
        ObjectRank2; ``"precomputed"`` and ``"live"`` bypass the cache read
        and force their path (useful for benchmarking and debugging);
        ``"two_stage"`` runs top-N candidate generation + focused authority
        reranking (:mod:`repro.retrieval`), consulting the cache under a key
        extended with the two-stage parameters.  All modes still
        populate the cache.  ``two_stage`` may name any of
        :data:`repro.retrieval.engine.TWO_STAGE_PARAMETERS` to override the
        configured defaults per request; they are rejected outside
        ``mode="two_stage"``.
        """
        start = time.perf_counter()
        plan = self._plan(dataset, query, top_k, mode, labels, two_stage)
        # Built here, next to the cache calls it feeds, from a function
        # whose return the lint's cache-key rule (RL012) can follow.
        key = _result_key(plan)
        cached = None
        if mode in ("auto", "two_stage"):
            cached = self.cache.get(key)
            if cached is None:
                self._cache_misses.inc()
        if cached is not None:
            self._cache_hits.inc()
            payload, served_from = cached, "cache"
        else:
            if deadline is not None:
                deadline.check("ranking")
            ranked, top, stages, served_from = self._execute(plan)
            payload = _render_search(plan, ranked, top, stages)
            # A forced-precomputed request the ranker could not answer yields
            # an empty payload auto traffic would answer live: never cache it.
            if ranked.node_ids or served_from not in ("precomputed", "store"):
                self.cache.put(key, payload)
        response = self._respond(payload, start, served_from, plan.staleness)
        self._search_latency.observe(response["elapsed_seconds"])
        return response

    def _plan(
        self,
        dataset: str,
        query: str | KeywordQuery | QueryVector,
        top_k: int | None,
        mode: str,
        labels: tuple[str, ...] | None,
        overrides: dict,
    ) -> "_SearchPlan":
        """Decide everything about a search before any ranking runs."""
        if mode not in SERVE_MODES:
            raise ReproError(f"unknown mode {mode!r}; expected one of {SERVE_MODES}")
        if mode != "two_stage" and any(v is not None for v in overrides.values()):
            raise ReproError(
                "two-stage parameters require mode='two_stage'"
            )
        runtime, vector, rates, staleness = self._begin(dataset, query)
        # Resolved before the cache key is built: for store-backed runtimes
        # this refreshes the generation, and the key carries the generation
        # number so a swap starts a fresh cache cohort (the old cohort ages
        # out of the LRU instead of being trusted across a rebuild).
        ranker = (
            runtime.precomputed_ranker() if mode in ("auto", "precomputed") else None
        )
        return _SearchPlan(
            runtime=runtime,
            vector=vector,
            rates=rates,
            k=top_k if top_k is not None else self.config.default_top_k,
            mode=mode,
            labels=labels or None,
            ranker=ranker,
            generation=runtime.store_generation(),
            two_stage=(
                runtime.two_stage.resolve(**overrides) if mode == "two_stage" else None
            ),
            staleness=staleness,
        )

    def _execute(self, plan: "_SearchPlan") -> tuple:
        """Run the planned path: ``(ranked, top, stages, served_from)``."""
        runtime = plan.runtime
        ranked = self._rank_precomputed(plan)
        if ranked is not None:
            top = select_top(runtime.data_graph, ranked, plan.k, plan.labels)
            if runtime.store is not None:
                self._served_store.inc()
                return ranked, top, None, "store"
            self._served_precomputed.inc()
            return ranked, top, None, "precomputed"
        stages = None
        try:
            if plan.two_stage is not None:
                result = runtime.two_stage.search(
                    plan.vector, top_k=plan.k, rates=plan.rates,
                    labels=plan.labels, **plan.two_stage,
                )
                stages = result.stages
            else:
                result = runtime.engine.search(
                    plan.vector, top_k=plan.k, rates=plan.rates, labels=plan.labels
                )
                # The ranking does not depend on the page (top_k, labels):
                # whatever this user asks about next starts from it.
                key = _score_key(runtime.name, plan.vector, plan.rates, plan.staleness)
                self.score_cache.put(key, *_kept(result.ranked))
            ranked, top = result.ranked, result.top
        except EmptyBaseSetError:
            ranked, top = _empty_ranking(), []
        self._or_iterations.inc(ranked.iterations)
        if plan.two_stage is None:
            self._served_live.inc()
            return ranked, top, None, "live"
        self._served_two_stage.inc()
        if stages is not None:
            self._two_stage_candidates.observe(stages.num_candidates)
            self._stage1_latency.observe(stages.stage1_seconds)
            self._stage2_latency.observe(stages.stage2_seconds)
        return ranked, top, stages, "two_stage"

    def _rank_precomputed(self, plan: "_SearchPlan") -> RankedResult | None:
        """The precomputed blend, or ``None`` when live must answer.

        ``mode="precomputed"`` never falls back: an unavailable, stale or
        under-covering ranker is an error, an unmatched query an empty
        ranking.
        """
        if plan.mode not in ("auto", "precomputed"):
            return None
        forced = plan.mode == "precomputed"
        ranker = plan.ranker
        fresh = ranker is not None and not ranker.is_stale(plan.rates)
        if not fresh:
            if forced:
                raise ReproError(
                    "precomputed mode unavailable: "
                    + ("ranker disabled" if ranker is None else "ranker is stale")
                )
            return None
        try:
            return ranker.rank(plan.vector)
        except PrecomputedCoverageError as error:
            if forced:
                raise ReproError(f"precomputed mode unavailable: {error}") from error
            # auto: partial coverage falls back to live ObjectRank2, which
            # ranks with *every* query term.
            return None
        except EmptyBaseSetError:
            # auto: fall through to live, which may still match (or raise
            # the same error, mapped to an empty payload).
            return _empty_ranking() if forced else None

    # -- explanation -------------------------------------------------------

    def explain(
        self,
        dataset: str,
        query: str | KeywordQuery | QueryVector,
        target: str,
        max_edges: int = 50,
        deadline: Deadline | None = None,
        mode: str = "live",
    ) -> dict:
        """Explain why ``target`` ranks for ``query``: adjusted flow edges.

        Consults the explanation cache first — entries are keyed on the
        dataset, the canonical query fingerprint, the serving-rate
        fingerprint and the target, so a repeat request skips the live
        ObjectRank2 run entirely and a reformulation that changes the rates
        can never be answered stale.  On a miss a request session
        (:meth:`_session`) searches and explains: explanations need the full
        converged score vector, which cached top-k payloads do not carry
        (the score cache does: after a live ``/search`` of the same query
        the session starts from that run).  The flow-sorted edges are cached
        whole, as arrays; ``max_edges`` decides how many become response
        rows.

        ``mode="two_stage"`` explains a *two-stage* result instead: the
        session retrieves two-stage and confines the explaining subgraph to
        the candidates' rerank neighborhood — flow a two-stage score never
        saw cannot appear in its explanation.
        """
        if mode not in EXPLAIN_MODES:
            raise ReproError(
                f"unknown mode {mode!r}; expected one of {EXPLAIN_MODES}"
            )
        start = time.perf_counter()
        runtime, vector, rates, staleness = self._begin(dataset, query)
        key = (
            dataset,
            query_fingerprint(vector),
            rates_fingerprint(rates),
            target,
            self.config.radius,
        )
        if mode == "two_stage":
            # Two-stage explanations are a separate cohort: same query, same
            # rates, different scores and a restricted subgraph.
            key += ("two_stage",)
        if staleness is not None:
            # Same epoch cohorting as the result cache: an explanation's
            # subgraph references topology, so it must never outlive the
            # snapshot it was extracted from.
            key += (("epoch", staleness["epoch"]),)
        stored = self.explain_cache.get(key)
        if stored is not None:
            self._explain_cache_hits.inc()
            served_from = "cache"
        else:
            self._explain_cache_misses.inc()
            if deadline is not None:
                deadline.check("explanation")
            stored = self._explain(runtime, vector, rates, staleness, target, mode)
            self.explain_cache.put(key, stored)
            served_from = "live"
        summary, node_ids, sources, targets, flows = stored
        payload = dict(summary)
        payload["edges"] = [
            {"source": node_ids[source], "target": node_ids[edge_target], "flow": flow}
            for source, edge_target, flow in zip(
                sources[:max_edges].tolist(),
                targets[:max_edges].tolist(),
                flows[:max_edges].tolist(),
            )
        ]
        return self._respond(payload, start, served_from, staleness)

    def _session(
        self,
        runtime: DatasetRuntime,
        vector: QueryVector,
        rates: AuthorityTransferSchemaGraph,
        staleness: dict | None,
        mode: str = "live",
    ) -> ObjectRankSystem:
        """A request's short-lived loop session, its initial search done.

        :class:`ObjectRankSystem` owns search -> explain -> reformulate ->
        re-run, including whether an explanation spans the full graph or a
        two-stage result's neighborhood; the endpoints around it are
        transport.  It works over the runtime's shared engine under the
        request's serving ``rates`` and mutates neither, so concurrent
        requests stay isolated.

        A full-graph session whose initial search some request already ran
        — same dataset, exact query vector, exact rates, ingest epoch —
        adopts that run from the score cache and iterates nothing; any other
        runs the search itself and keeps it.  A two-stage session always
        searches: its scores depend on the candidate set.
        """
        session = ObjectRankSystem(
            runtime.data_graph,
            rates,
            self.config.session_config("two_stage" if mode == "two_stage" else "full"),
            engine=runtime.engine,
        )
        # One reformulator for every session: ``service.reformulator`` stays
        # what feedback requests reformulate with.
        session.reformulator = self.reformulator
        if mode == "two_stage":
            self._or_iterations.inc(session.query(vector).iterations)
            return session
        key = _score_key(runtime.name, vector, rates, staleness)
        ranked = self.score_cache.get(key)
        # A ranking indexes the node list it was computed over; one kept
        # across a topology refresh that raced this request is not ours.
        if ranked is not None and ranked.node_ids is runtime.engine.graph.node_ids:
            self._score_cache_hits.inc()
            top = ranked.top_k(self.config.default_top_k)
            session.adopt_initial(vector, SearchResult(vector, ranked, top, 0.0))
        else:
            self._score_cache_misses.inc()
            ranked = session.query(vector).ranked
            self._or_iterations.inc(ranked.iterations)
            self.score_cache.put(key, *_kept(ranked))
        return session

    def _explain(
        self,
        runtime: DatasetRuntime,
        vector: QueryVector,
        rates: AuthorityTransferSchemaGraph,
        staleness: dict | None,
        target: str,
        mode: str,
    ) -> tuple:
        """Compute one cacheable explanation: ``(summary, node ids, sources,
        targets, flows)`` — every response field but ``edges``, and the
        edges by descending flow as node-index and flow arrays (a response
        row is built only for the edges a request returns)."""
        session = self._session(runtime, vector, rates, staleness, mode)
        explanation = session.explain(target)
        subgraph = explanation.subgraph
        summary = {
            "dataset": runtime.name,
            "query": dict(vector.weights),
            "target": target,
            "mode": mode,
            "target_caption": runtime.data_graph.caption(target),
            "target_inflow": explanation.target_inflow(),
            "adjustment_iterations": explanation.iterations,
            "converged": explanation.converged,
            "subgraph_nodes": len(subgraph.nodes),
            "subgraph_edges": int(len(subgraph.edge_ids)),
        }
        return summary, subgraph.graph.node_ids, *explanation.edge_flow_arrays(by_flow=True)

    # -- ingest ------------------------------------------------------------

    INGEST_REFRESH_MODES = ("auto", "force", "none")

    def ingest(
        self,
        dataset: str,
        mutations: list,
        refresh: str = "auto",
        deadline: Deadline | None = None,
    ) -> dict:
        """Apply a mutation batch; refresh per policy; report staleness.

        ``mutations`` mixes typed records and wire-format dicts, applied
        through :meth:`repro.ingest.engine.IngestEngine.apply_batch`.
        Failures are per-mutation: a rejected entry lands in the response's
        ``errors`` list (with its position and reason) while the rest of the
        batch applies — the working state never half-applies a single
        mutation.

        ``refresh`` picks the policy: ``"auto"`` refreshes only when the
        staleness bound is exceeded (the same trigger serving uses),
        ``"force"`` refreshes synchronously before returning, ``"none"``
        just buffers (a later request or batch pays for the refresh).
        """
        if refresh not in self.INGEST_REFRESH_MODES:
            raise ReproError(
                f"unknown refresh policy {refresh!r}; expected one of "
                f"{self.INGEST_REFRESH_MODES}"
            )
        start = time.perf_counter()
        self._requests.inc()
        runtime = self.runtime(dataset)
        if runtime.ingest is None:
            raise ReproError(
                "ingest is disabled; start the service with ingest=True "
                "(repro serve --ingest)"
            )
        applied, errors = runtime.ingest.apply_batch(mutations)
        self._ingest_mutations.inc(applied)
        if deadline is not None:
            deadline.check("ingest refresh")
        refreshed = None
        if refresh == "force":
            refreshed = self._refresh_runtime(runtime, force=True)
        elif refresh == "auto":
            refreshed = self._ingest_maybe_refresh(runtime)
        payload = {
            "dataset": dataset,
            "applied": applied,
            "errors": errors,
            "staleness": runtime.staleness_info(),
            "epoch": runtime.ingest_epoch,
            "graph_version": runtime.ingest.graph_version,
            "refresh": refreshed,  # None when this batch only buffered
        }
        return self._respond(payload, start)

    def _ingest_maybe_refresh(self, runtime: DatasetRuntime) -> dict | None:
        """Refresh iff pending mutations exceed the staleness bound."""
        if runtime.ingest is None:
            return None
        if runtime.ingest.pending_mutations <= self.config.ingest_staleness_bound:
            return None
        return self._refresh_runtime(runtime)

    def _refresh_runtime(
        self, runtime: DatasetRuntime, force: bool = False
    ) -> dict | None:
        """Run one refresh cycle and account for it (metrics + caches).

        The epoch in the cache keys already fences stale entries off; the
        explicit invalidation here just reclaims their memory promptly.
        """
        summary = runtime.refresh_ingest(force=force)
        if summary is None:
            return None
        self._ingest_refreshes.inc()
        self._ingest_recomputed.inc(summary["recomputed_columns"])
        self._ingest_carried.inc(summary["carried_columns"])
        self._invalidate(runtime.name)
        return summary

    def _invalidate(self, dataset: str) -> int:
        """Drop a dataset's result, explanation and score cache entries.

        Returns (and counts) the answers dropped; kept scores are working
        state of the loop, not answers, and are not in the figure.
        """
        invalidated = self.cache.invalidate(dataset)
        invalidated += self.explain_cache.invalidate(dataset)
        self._invalidations.inc(invalidated)
        self.score_cache.invalidate(dataset)
        return invalidated

    # -- feedback / reformulation ------------------------------------------

    def feedback_reformulate(
        self,
        dataset: str,
        query: str | KeywordQuery | QueryVector,
        relevant_ids: list[str],
        apply: bool = True,
        deadline: Deadline | None = None,
    ) -> dict:
        """Reformulate from marked-relevant results; optionally apply rates.

        With ``apply=True`` (default) the learned transfer rates become the
        dataset's serving rates, which *invalidates* the dataset's result
        cache entries and leaves the precomputed ranker stale (subsequent
        queries route to live ObjectRank2 until the rates return to the
        precomputed snapshot or the ranker is rebuilt).  ``apply=False`` is a
        what-if: the reformulation and its reranked results are returned but
        serving state is untouched.
        """
        start = time.perf_counter()
        runtime, vector, rates, staleness = self._begin(dataset, query)
        if deadline is not None:
            deadline.check("feedback search")
        session = self._session(runtime, vector, rates, staleness)
        if deadline is not None:
            deadline.check("feedback explanations")
        explanations, reformulated = session.reformulate(relevant_ids)

        applied = bool(apply and explanations)
        invalidated = 0
        if applied:
            runtime.apply_rates(reformulated.transfer_schema)
            invalidated = self._invalidate(dataset)
            if self.config.precompute_rebuild:
                # One blocked run over the vocabulary restores the
                # precomputed fast path under the learned rates.
                runtime.rebuild_precomputed()

        if deadline is not None:
            deadline.check("reformulated search")
        rerun = session.rerun()
        self._or_iterations.inc(rerun.iterations)

        # Reported, never paid for: a ranker nobody built yet is not built
        # here (that would be a whole precompute inside a feedback request).
        ranker = runtime.built_ranker()
        payload = {
            "dataset": dataset,
            "query": dict(vector.weights),
            "relevant_ids": list(relevant_ids),
            "applied": applied,
            "invalidated_cache_entries": invalidated,
            "precomputed_stale": (
                ranker.is_stale(runtime.rates) if ranker is not None else None
            ),
            "reformulated_query": dict(reformulated.query_vector.weights),
            "learned_rates": {
                str(edge_type): reformulated.transfer_schema.rate(edge_type)
                for edge_type in reformulated.transfer_schema.edge_types()
            },
            "results": _result_rows(runtime.data_graph, rerun.top),
            "iterations": rerun.iterations,
        }
        return self._respond(payload, start, staleness=staleness)

    # -- introspection -----------------------------------------------------

    def note_rejected(self) -> None:
        """Count a request refused by admission control or a deadline."""
        self._rejected.inc()

    def note_error(self) -> None:
        """Count a request that failed with a client or server error."""
        self._errors.inc()

    def health(self) -> dict:
        stats = self.cache.stats()
        with self._runtimes_lock:
            runtimes = dict(self._runtimes)
        payload = {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "datasets": {
                "configured": list(self.config.datasets),
                "loaded": sorted(runtimes),
            },
            "cache": {
                "size": stats.size,
                "max_entries": stats.max_entries,
                "hit_rate": stats.hit_rate,
            },
        }
        if self.config.store_dir is not None:
            payload["store"] = {
                "dir": self.config.store_dir,
                "generations": {
                    name: runtime.store_generation()
                    for name, runtime in sorted(runtimes.items())
                    if runtime.store is not None
                },
            }
        return payload

    def metrics_text(self) -> str:
        """Prometheus text exposition, cache gauges refreshed on the way out."""
        stats = self.cache.stats()
        self.metrics.gauge(
            "repro_cache_entries", "Entries currently held by the result cache"
        ).set(stats.size)
        self.metrics.gauge(
            "repro_cache_evictions", "LRU evictions since startup"
        ).set(stats.evictions)
        self.metrics.gauge(
            "repro_cache_expirations", "TTL expirations since startup"
        ).set(stats.expirations)
        self.metrics.gauge(
            "repro_explain_cache_entries",
            "Entries currently held by the explanation cache",
        ).set(self.explain_cache.stats().size)
        if self.config.store_dir is not None:
            with self._runtimes_lock:
                runtimes = dict(self._runtimes)
            managers = [r.store for r in runtimes.values() if r.store is not None]
            self.metrics.gauge(
                "repro_store_generation",
                "Published score-store generation in use (max across datasets)",
            ).set(max((m.generation or 0 for m in managers), default=0))
            self.metrics.gauge(
                "repro_store_swaps",
                "Generation swaps observed since startup",
            ).set(sum(m.swaps for m in managers))
            self.metrics.gauge(
                "repro_store_load_errors",
                "Published generations this process failed to open",
            ).set(sum(m.load_errors for m in managers))
        return self.metrics.render()


# -- planning and serialization helpers ------------------------------------


@dataclass
class _SearchPlan:
    """Everything one ``/search`` request decided before ranking."""

    runtime: DatasetRuntime
    vector: QueryVector
    rates: AuthorityTransferSchemaGraph
    k: int
    mode: str
    labels: tuple[str, ...] | None
    #: Resolved under ``auto``/``precomputed`` only; ``None`` elsewhere.
    ranker: PrecomputedRanker | None
    generation: int | None
    #: The resolved two-stage parameters; ``None`` outside ``two_stage``.
    two_stage: dict | None
    staleness: dict | None


def _result_key(plan: _SearchPlan) -> tuple:
    """The result-cache key: everything a planned answer depends on."""
    key = make_key(plan.runtime.name, plan.vector, plan.rates, plan.k)
    if plan.labels:
        key += (plan.labels,)
    if plan.two_stage is not None:
        # Two-stage answers depend on every two-stage parameter, so the key
        # carries them all — a different candidate budget or horizon must
        # never be answered from another cohort's entry.
        key += (("two_stage", tuple(sorted(plan.two_stage.items()))),)
    if plan.generation is not None:
        key += (("gen", plan.generation),)
    if plan.staleness is not None:
        # The adopted-snapshot epoch keys the cache alongside the rate
        # fingerprint: an ingest refresh starts a fresh cohort, so a
        # pre-mutation entry can never answer a post-mutation request.
        key += (("epoch", plan.staleness["epoch"]),)
    return key


def _score_key(
    dataset: str,
    vector: QueryVector,
    rates: AuthorityTransferSchemaGraph,
    staleness: dict | None,
) -> tuple:
    """The score-cache key: what a cold full-graph ObjectRank2 run depends on.

    Fenced like every serve-tier key (query and rate fingerprints, ingest
    epoch), then made exact: a kept ranking stands in for a run bit for
    bit, so weights or rates that differ past ``FINGERPRINT_DIGITS``, or
    terms in another order, are another key.
    """
    key = (
        dataset,
        query_fingerprint(vector),
        rates_fingerprint(rates),
        tuple(vector.weights.items()),
        tuple(rates.as_vector()),
    )
    if staleness is not None:
        key += (("epoch", staleness["epoch"]),)
    return key


def _kept(ranked: RankedResult) -> tuple[RankedResult, int]:
    """``ranked`` as the score cache holds it — scores frozen, since the
    requests that share it only ever read — and the bytes it is charged."""
    ranked.scores.setflags(write=False)
    return ranked, ranked.scores.nbytes + BASE_WEIGHT_BYTES * len(ranked.base_weights)


def _render_search(
    plan: _SearchPlan,
    ranked: RankedResult,
    top: list[tuple[str, float]],
    stages: TwoStageResult | None,
) -> dict:
    """The cacheable ``/search`` payload of one executed plan."""
    payload = {
        "dataset": plan.runtime.name,
        "query": dict(plan.vector.weights),
        "top_k": plan.k,
        "results": _result_rows(plan.runtime.data_graph, top),
        "iterations": ranked.iterations,
        "converged": ranked.converged,
        "coverage": ranked.coverage,
    }
    if plan.generation is not None:
        payload["store_generation"] = plan.generation
    if stages is not None:
        payload["two_stage"] = {
            "requested_candidates": plan.two_stage["candidates"],
            "candidates": stages.num_candidates,
            "horizon": stages.horizon,
            "expand_cap": plan.two_stage["expand_cap"],
            "node_budget": plan.two_stage["node_budget"],
            "max_horizon": plan.two_stage["max_horizon"],
            "subgraph_nodes": stages.subgraph_nodes,
            "subgraph_edges": stages.subgraph_edges,
            "stage1_seconds": stages.stage1_seconds,
            "stage2_seconds": stages.stage2_seconds,
        }
    return payload


def _result_rows(data_graph: DataGraph, top: list[tuple[str, float]]) -> list[dict]:
    """Ranked hits as response rows.

    ``label`` is ``None`` for ids this process's graph predates: a cluster
    worker serving a builder-published store generation can rank nodes that
    ingest added after the worker loaded its dataset — rows degrade to
    id-only entries for those instead of failing the request.
    """
    return [
        {
            "rank": rank,
            "id": node_id,
            "label": (
                data_graph.node(node_id).label if data_graph.has_node(node_id) else None
            ),
            "caption": data_graph.caption(node_id),
            "score": score,
        }
        for rank, (node_id, score) in enumerate(top, start=1)
    ]


def _empty_ranking() -> RankedResult:
    """What a query that matches nothing ranks: no nodes, trivially converged."""
    return RankedResult([], np.zeros(0), 0, True)
