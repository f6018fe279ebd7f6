"""The traced run: spans around each layer's public calls, replayed in-process.

Spans are recorded from here, in the benchmark's own files; nothing inside
``repro`` is instrumented.  Each replayed op runs twice, single-threaded:

* as the **composite** call the HTTP handler makes (``QueryService.search``,
  ``.feedback_reformulate``, ``.ingest``) — a root span named ``serve.*``;
* **decomposed** into the layer calls the service makes, in its order — a
  root span ``op`` whose children are named after the per-layer metrics.

Calls the service does *not* make on its own (``weighted_base_set`` alone, the
``ObjectRankSystem`` session, the set-up layers) are recorded as parentless
probe spans, so they feed the per-layer numbers without inflating
``trace.coverage_share``.  Where a layer already accounts for its own stages
(two-stage ``stage1/2_seconds``, the ingest refresh's ``elapsed_seconds``) the
span carries the program's figure as an attribute instead of timing it twice.

A layer is measured only on the workloads whose own ops exercise it; elsewhere
its metric reads 0 with ``n=0``.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchmarks.e2e.workloads import MARKED_RELEVANT, TOP_K, Workload

from repro.core.config import DEFAULT_RADIUS
from repro.core.system import ObjectRankSystem
from repro.explain.batch import batched_adjust_flows, batched_build_explaining_subgraphs
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ingest.engine import IngestEngine
from repro.ingest.mutations import mutation_from_json
from repro.ir.index import InvertedIndex
from repro.query.engine import select_top
from repro.ranking.objectrank2 import objectrank2, weighted_base_set
from repro.store.generations import StoreManager

REPLAY_OPS = 200
CORE_FEEDBACK_ITERATIONS = 4


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            op=op if op is not None else (parent.op if parent else None),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.seconds - covered
    return result


# -- decomposed replays -----------------------------------------------------------


def _ranked_page(rec: Recorder, engine, graph, vector, init=None):
    """ObjectRank2 + top-k as ``SearchEngine.search`` runs them."""
    with rec.span("ranking.objectrank2") as span:
        ranked = objectrank2(
            graph, engine.scorer, vector, engine.damping, engine.tolerance,
            engine.max_iterations, init,
        )
        span.attrs["iterations"] = ranked.iterations
    with rec.span("ranking.topk"):
        select_top(engine.data_graph, ranked, TOP_K, None)
    return ranked


def replay_search(
    rec: Recorder, service, dataset: str, op: int, text: str, mode: str, params: dict
) -> None:
    runtime = service.runtime(dataset)
    engine = runtime.engine
    with rec.span("serve.search", op=op) as composite:
        served_from = service.search(dataset, text, top_k=TOP_K, mode=mode, **params)[
            "served_from"
        ]
    composite.attrs["served_from"] = served_from
    if served_from == "cache":
        return  # a hit runs no layer below serve.cache
    composite.attrs["decomposed"] = True
    with rec.span("op", op=op, kind=served_from):
        with rec.span("ir.query_vector"):
            vector = engine.query_vector(text)
        if served_from == "two_stage":
            with rec.span("retrieval.two_stage") as span:
                stages = runtime.two_stage.search(vector, top_k=TOP_K, **params).stages
            found = stages.candidate_set
            span.attrs.update(
                stage1_seconds=stages.stage1_seconds,
                stage2_seconds=stages.stage2_seconds,
                candidates=stages.num_candidates,
                subgraph_nodes=stages.subgraph_nodes,
                scored_share=found.evaluated / max(1, found.evaluated + found.pruned),
            )
        elif served_from == "live":
            _ranked_page(rec, engine, engine.transfer_view(runtime.rates), vector)
        else:
            with rec.span("store.rank"):
                ranked = runtime.precomputed_ranker().rank(vector)
            with rec.span("ranking.topk"):
                ranked.top_k(TOP_K)
    if served_from == "live":
        with rec.span("ir.base_set", op=op) as span:
            span.attrs["size"] = len(weighted_base_set(engine.scorer, vector))


def replay_feedback(rec: Recorder, service, dataset: str, op: int, text: str) -> None:
    runtime = service.runtime(dataset)
    engine = runtime.engine
    page = service.search(dataset, text, top_k=TOP_K, mode="live")
    relevant = [hit["id"] for hit in page["results"][:MARKED_RELEVANT]]
    with rec.span("serve.feedback", op=op, decomposed=True):
        service.feedback_reformulate(dataset, text, relevant, apply=False)
    with rec.span("op", op=op, kind="feedback"):
        with rec.span("ir.query_vector"):
            vector = engine.query_vector(text)
        rates = runtime.rates
        graph = engine.transfer_view(rates)
        ranked = _ranked_page(rec, engine, graph, vector)
        with rec.span("explain.subgraph") as span:
            subgraphs = batched_build_explaining_subgraphs(
                graph, list(ranked.base_weights), relevant, DEFAULT_RADIUS
            )
            span.attrs["edges"] = sum(len(sg.edge_ids) for sg in subgraphs)
        with rec.span("explain.adjust") as span:
            explanations = batched_adjust_flows(subgraphs, ranked.scores)
            span.attrs["iterations"] = sum(e.iterations for e in explanations)
        with rec.span("reformulate.reformulate"):
            reformulated = service.reformulator.reformulate(vector, rates, explanations)
        with rec.span("graph.with_rates"):
            view = engine.graph.with_rates(reformulated.transfer_schema)
        _ranked_page(rec, engine, view, reformulated.query_vector, ranked.scores)
    with rec.span("serve.explain", op=op):
        service.explain(dataset, text, relevant[0])


def replay_ingest(rec: Recorder, service, applier: IngestEngine, dataset: str, op: int, cycle) -> None:
    """One write/read cycle.  The refresh is timed by the ingest layer itself
    (``RefreshResult.elapsed_seconds``, echoed in the response); ``apply`` is
    timed on a second, never-refreshed engine fed the same mutations."""
    with rec.span("serve.ingest", op=op, decomposed=True) as composite:
        refresh = service.ingest(dataset, list(cycle.mutations), refresh="force")["refresh"]
    columns = refresh["recomputed_columns"] + refresh["carried_columns"]
    composite.attrs.update(
        topology=cycle.topology,
        layer_seconds=refresh["elapsed_seconds"],
        recomputed_share=refresh["recomputed_columns"] / max(1, columns),
    )
    for mutation in cycle.mutations:
        typed = mutation_from_json(mutation)
        with rec.span("ingest.apply", op=op):
            applier.apply(typed)
    for text in cycle.reads:
        with rec.span("serve.search", op=op) as read:
            read.attrs["served_from"] = service.search(
                dataset, text, top_k=TOP_K, mode="auto"
            )["served_from"]


def replay_core_session(rec: Recorder, corpus, text: str) -> None:
    """Fig. 14's protocol on ``ObjectRankSystem``: one query, then feedback
    iterations warm-started from the previous scores."""
    system = ObjectRankSystem(
        corpus.dataset.data_graph, corpus.dataset.transfer_schema, engine=corpus.engine
    )
    with rec.span("core.query"):
        result = system.query(text)
    for _ in range(CORE_FEEDBACK_ITERATIONS):
        with rec.span("core.feedback") as span:
            outcome = system.feedback(result.hit_ids()[:MARKED_RELEVANT])
        result = outcome.result
        cold = corpus.engine.search(
            outcome.reformulated.query_vector, rates=outcome.reformulated.transfer_schema
        )
        span.attrs["iterations_saved"] = cold.iterations - result.iterations


# -- the traced run -----------------------------------------------------------------


def probe_setup_layers(rec: Recorder, corpus) -> None:
    """Time the set-up layers on their own (``SearchEngine`` fuses them)."""
    dataset = corpus.dataset
    with rec.span("graph.transfer_build"):
        AuthorityTransferDataGraph(dataset.data_graph, dataset.transfer_schema)
    with rec.span("ir.index_build"):
        InvertedIndex.from_graph(dataset.data_graph)
    if corpus.store_dir is not None:
        manager = StoreManager(corpus.store_dir / corpus.name)
        with rec.span("store.open") as span:
            manager.refresh(force=True)
        span.attrs["load_errors"] = manager.load_errors


def run_replay(rec: Recorder, workload: Workload, corpus, service, ops: list, budget: float) -> None:
    """Replay the workload's first ops until ``REPLAY_OPS`` or the budget.

    ``session`` also runs its first op through ``ObjectRankSystem``: ``core``
    and ``serve`` run the same stages, so the two should agree.
    """
    applier = None
    if workload.shape == "ingest":
        applier = IngestEngine(corpus.dataset.data_graph, corpus.dataset.transfer_schema)
    deadline = time.perf_counter() + budget
    if workload.shape == "session":
        replay_core_session(rec, corpus, ops[0].text)
    for index, op in enumerate(ops[:REPLAY_OPS]):
        if time.perf_counter() >= deadline:
            break
        if workload.shape == "search":
            replay_search(
                rec, service, corpus.name, index, op.text, workload.mode, workload.params
            )
        elif workload.shape == "session":
            replay_feedback(rec, service, corpus.name, index, op.text)
        else:
            replay_ingest(rec, service, applier, corpus.name, index, op)


# -- spans -> per-layer metrics -------------------------------------------------------


def _median(values: list[float], scale: float = 1.0) -> tuple[float, int]:
    return (statistics.median(values) * scale if values else 0.0), len(values)


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, int]]:
    """``metric name -> (value, sample count)`` for everything spans supply."""
    by_name: dict[str, list[Span]] = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)

    def matching(name: str, where: dict) -> list[Span]:
        return [
            span for span in by_name.get(name, ())
            if all(span.attrs.get(key) == value for key, value in where.items())
        ]

    def seconds(name: str, scale: float, **where) -> tuple[float, int]:
        return _median([span.seconds for span in matching(name, where)], scale)

    def attr(name: str, key: str, scale: float = 1.0, **where) -> tuple[float, int]:
        return _median(
            [span.attrs[key] for span in matching(name, where) if key in span.attrs], scale
        )

    blended = matching("serve.search", {"served_from": "store"}) + matching(
        "serve.search", {"served_from": "precomputed"}
    )
    saved = [span.attrs["iterations_saved"] for span in by_name.get("core.feedback", ())]
    return {
        "graph.transfer_build_s": seconds("graph.transfer_build", 1.0),
        "ir.index_build_s": seconds("ir.index_build", 1.0),
        "graph.with_rates_ms": seconds("graph.with_rates", 1e3),
        "ir.query_vector_us": seconds("ir.query_vector", 1e6),
        "ir.base_set_ms": seconds("ir.base_set", 1e3),
        "ir.base_set_size": attr("ir.base_set", "size"),
        "ranking.objectrank2_ms": seconds("ranking.objectrank2", 1e3),
        "ranking.objectrank2_iterations": attr("ranking.objectrank2", "iterations"),
        "ranking.topk_ms": seconds("ranking.topk", 1e3),
        "retrieval.stage1_ms": attr("retrieval.two_stage", "stage1_seconds", 1e3),
        "retrieval.stage2_ms": attr("retrieval.two_stage", "stage2_seconds", 1e3),
        "retrieval.wand_scored_share": attr("retrieval.two_stage", "scored_share"),
        "retrieval.candidates": attr("retrieval.two_stage", "candidates"),
        "retrieval.subgraph_nodes": attr("retrieval.two_stage", "subgraph_nodes"),
        "explain.subgraph_ms": seconds("explain.subgraph", 1e3),
        "explain.subgraph_edges": attr("explain.subgraph", "edges"),
        "explain.adjust_ms": seconds("explain.adjust", 1e3),
        "explain.adjust_iterations": attr("explain.adjust", "iterations"),
        "reformulate.reformulate_ms": seconds("reformulate.reformulate", 1e3),
        "core.query_ms": seconds("core.query", 1e3),
        "core.feedback_ms": seconds("core.feedback", 1e3),
        "core.warm_iterations_saved": (float(sum(saved)), len(saved)),
        "store.open_ms": seconds("store.open", 1e3),
        "store.load_errors": attr("store.open", "load_errors"),
        "store.rank_ms": seconds("store.rank", 1e3),
        "ingest.apply_us": seconds("ingest.apply", 1e6),
        "ingest.refresh_content_ms": attr("serve.ingest", "layer_seconds", 1e3, topology=False),
        "ingest.refresh_topology_ms": attr("serve.ingest", "layer_seconds", 1e3, topology=True),
        "ingest.recomputed_share": attr("serve.ingest", "recomputed_share", topology=False),
        "serve.search_cache_ms": seconds("serve.search", 1e3, served_from="cache"),
        "serve.search_store_ms": _median([span.seconds for span in blended], 1e3),
        "serve.search_live_ms": seconds("serve.search", 1e3, served_from="live"),
        "serve.search_two_stage_ms": seconds("serve.search", 1e3, served_from="two_stage"),
        "serve.explain_ms": seconds("serve.explain", 1e3),
        "serve.feedback_ms": seconds("serve.feedback", 1e3),
        "serve.ingest_ms": seconds("serve.ingest", 1e3),
    }


def coverage_and_overhead(spans: list[Span]) -> tuple[float, float, int]:
    """``(coverage, overhead, ops)`` over the replayed ops.

    Coverage of one op: time inside layer calls (children of its decomposed
    ``op`` root, plus the ingest layer's own refresh accounting) over the time
    of its composite call.  Overhead of one op: the share of its decomposed
    replay spent outside any layer call — span bookkeeping plus glue.  Both
    are medians over ops: the composite runs first and alone pays first-touch
    costs (cold mmap pages), which a ratio of sums would read as missing
    coverage.
    """
    own = self_times(spans)
    roots = {span.op: span for span in spans if span.name == "op"}
    coverage, overhead = [], []
    for composite in spans:
        if not composite.attrs.get("decomposed"):
            continue
        inside = composite.attrs.get("layer_seconds", 0.0)
        root = roots.get(composite.op)
        if root is not None:
            layers = root.seconds - own[root.id]
            inside += layers
            overhead.append(1.0 - layers / root.seconds)
        coverage.append(inside / composite.seconds)
    return _median(coverage)[0], _median(overhead)[0], len(coverage)
