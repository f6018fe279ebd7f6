"""The five workloads, the metric registry and the seeded input samplers.

Everything the benchmark sends to the server is generated here from the
``--seed`` argument and the corpus's own document-frequency statistics; the
server only ever sees the generated requests.  Corpora themselves are
generated with the fixed :data:`CORPUS_SEED`, so a workload seed changes the
traffic, never the data.

Query kinds are df bands relative to the corpus size ``N`` (cost depends on
base-set size, so a benchmark that does not control it measures its sampler):

* ``selective`` — ``2 <= df < max(5, 0.002 N)``: base sets of a few nodes;
* ``topical``   — between the two bands: base sets in the hundreds;
* ``popular``   — ``df >= max(5, 0.03 N)``: base sets in the thousands.

Terms with ``df == 1`` are never drawn: the precompute (``min_df = 2``)
skips them, so they would silently turn ``mode=auto`` traffic into live
ObjectRank2 runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb

CORPUS_SEED = 7
TOP_K = 10
#: Results a ``session`` user marks relevant (the top ranks of the page).  One,
#: not the issue's three: at ~0.1 s per op a 10 s phase times ~100 ops from a
#: narrow latency distribution; with three it was ~35 ops spread over
#: 0.14-0.45 s, and sampling error alone moved the median by 11 % between seeds.
MARKED_RELEVANT = 1

KINDS = ("selective", "topical", "popular")
SELECTIVE_BELOW = 0.002
POPULAR_FROM = 0.03
MIN_BAND_DF = 5

#: ``ServeConfig`` field -> ``repro serve`` flag, for the fields workloads set.
#: One dict drives both the server subprocess and the in-process twin of the
#: traced run, so the two can never be configured differently.
FLAG_OF = {
    "ingest": "--ingest",
    "ingest_staleness_bound": "--staleness-bound",
    "candidates": "--candidates",
    "rerank_horizon": "--rerank-horizon",
    "rerank_expand_cap": "--rerank-expand-cap",
    "rerank_node_budget": "--rerank-node-budget",
    "rerank_max_horizon": "--rerank-max-horizon",
}


class WorkloadError(Exception):
    """A workload could not be generated as designed."""


@dataclass(frozen=True)
class Workload:
    """One traffic mix: where it runs, what it sends, and why it exists."""

    name: str
    why: str
    corpus: str
    scale: float
    #: Publish an mmap score store and serve with ``--store``.
    store: bool
    #: ``search`` (one GET per op), ``session`` (untimed live search, then the
    #: timed ``/feedback/reformulate``) or ``ingest`` (one write + 12 reads).
    shape: str
    clients: int
    #: Ops run before the measured phase and excluded from every metric.
    warmup: int
    #: Ops generated per measured second — a ceiling well above what this
    #: code serves today; the measured phase ends when time or ops run out.
    rate_cap: int
    #: Designed share of each query kind among the distinct queries.
    kind_shares: dict[str, float]
    #: Every how many measured responses one is compared with the oracle.
    verify_every: int
    mode: str = "auto"
    #: Extra ``/search`` parameters (two-stage early exit).
    params: dict[str, int] = field(default_factory=dict)
    #: ``ServeConfig`` overrides (see :data:`FLAG_OF`).
    config: dict[str, object] = field(default_factory=dict)
    #: Size of the Zipf universe; ``None`` sends every query once.
    distinct: int | None = None
    #: Fresh server starts timed per run; ``setup_s`` is their median.
    setup_repeats: int = 1

    def server_flags(self) -> list[str]:
        flags: list[str] = []
        for key, value in self.config.items():
            flags.append(FLAG_OF[key])
            if value is not True:
                flags.append(str(value))
        return flags

    def smoke(self) -> "Workload":
        """The same traffic shape on ``dblp_tiny`` with tiny op counts."""
        return replace(
            self,
            corpus="dblp_tiny",
            scale=1.0,
            warmup=min(self.warmup, 20),
            rate_cap=min(self.rate_cap, 200),
            distinct=None if self.distinct is None else 300,
            setup_repeats=1,
        )


TWO_STAGE_CONFIG = {
    "candidates": 200,
    "rerank_horizon": 2,
    "rerank_expand_cap": 128,
    "rerank_node_budget": 256,
    "rerank_max_horizon": 5,
}

THIRDS = {"selective": 1 / 3, "topical": 1 / 3, "popular": 1 / 3}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve_hot",
            why="Zipf traffic over store-covered queries: the deployed read "
            "path (HTTP, result cache, mmap store blend, JSON); p50 is a "
            "cache hit, p90 a store miss, power iteration does nothing",
            corpus="dblp_complete", scale=0.5, store=True, shape="search",
            clients=2, warmup=1000, rate_cap=6000, kind_shares=THIRDS,
            verify_every=25, mode="auto", distinct=1700,
        ),
        Workload(
            name="serve_cold",
            why="every query distinct and mode=live: one full ObjectRank2 per "
            "request, so base set, power iteration and top-k dominate and a "
            "ranking-kernel change shows here while serve_hot stays put",
            corpus="dblp_complete", scale=0.5, store=True, shape="search",
            clients=1, warmup=50, rate_cap=250, kind_shares=THIRDS,
            verify_every=25, mode="live",
        ),
        Workload(
            name="serve_two_stage",
            why="distinct queries through WAND candidates plus focused rerank: "
            "the same ranking layer on a subgraph; p50 is the bounded "
            "selective case, p90 the topical/popular tail",
            corpus="dblp_complete", scale=0.5, store=True, shape="search",
            clients=1, warmup=50, rate_cap=700,
            kind_shares={"selective": 0.70, "topical": 0.15, "popular": 0.15},
            verify_every=25, mode="two_stage", params={"early_k": 10},
            config=TWO_STAGE_CONFIG,
        ),
        Workload(
            name="session",
            why="the paper's loop: explain the top result, reformulate content "
            "and structure, re-rank; almost all time is in explain and "
            "reformulate, which no serve_* workload touches",
            corpus="dblp_top", scale=1.0, store=False, shape="session",
            clients=1, warmup=4, rate_cap=30, kind_shares={"topical": 1.0},
            verify_every=5, mode="live", setup_repeats=3,
        ),
        Workload(
            name="ingest_mixed",
            why="forced refreshes beside cached reads on the same precompute "
            "and cache layers as serve_hot: a read-path gain that makes "
            "refresh or post-refresh misses dearer shows here",
            corpus="dblp_top", scale=1.0, store=False, shape="ingest",
            clients=1, warmup=2, rate_cap=25, kind_shares={"topical": 1.0},
            verify_every=1, mode="auto", setup_repeats=3,
            config={"ingest": True, "ingest_staleness_bound": 1_000_000},
        ),
    )
}

#: name, unit, better, bound — the bound is the share of the parent's median
#: a later change may worsen the metric by.  Times are at the reference box's
#: speed (``harness.Speedometer``); even so ten runs of unchanged code spread
#: by 0.04-0.16 of their median, and the contract wants a bound three times
#: the spread and at most 0.25, so the timing bounds sit at that ceiling.
#: Memory repeats to 1 % except on ``ingest_mixed``, whose high-water mark
#: lands on 149 or 160 MB depending on the seed (spread up to 0.074).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("throughput_rps", "ops/s", "higher", 0.25),
    ("server_cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: name, unit, better.  Layer = ``repro.<module>``; README has the call each
#: one times and the end-to-end metric it should move.
PER_LAYER = (
    ("datasets.generate_s", "s", "lower"),
    ("graph.transfer_build_s", "s", "lower"),
    ("graph.with_rates_ms", "ms", "lower"),
    ("ir.index_build_s", "s", "lower"),
    ("ir.query_vector_us", "us", "lower"),
    ("ir.base_set_ms", "ms", "lower"),
    ("ir.base_set_size", "count", "lower"),
    ("ranking.objectrank2_ms", "ms", "lower"),
    ("ranking.objectrank2_iterations", "count", "lower"),
    ("ranking.topk_ms", "ms", "lower"),
    ("ranking.precompute_s", "s", "lower"),
    ("ranking.precompute_iterations", "count", "lower"),
    ("ranking.precompute_columns", "count", "lower"),
    ("ranking.native_available", "flag", "higher"),
    ("retrieval.stage1_ms", "ms", "lower"),
    ("retrieval.wand_scored_share", "ratio", "lower"),
    ("retrieval.stage2_ms", "ms", "lower"),
    ("retrieval.candidates", "count", "lower"),
    ("retrieval.subgraph_nodes", "count", "lower"),
    ("explain.subgraph_ms", "ms", "lower"),
    ("explain.subgraph_edges", "count", "lower"),
    ("explain.adjust_ms", "ms", "lower"),
    ("explain.adjust_iterations", "count", "lower"),
    ("reformulate.reformulate_ms", "ms", "lower"),
    ("core.query_ms", "ms", "lower"),
    ("core.feedback_ms", "ms", "lower"),
    ("core.warm_iterations_saved", "count", "higher"),
    ("store.publish_s", "s", "lower"),
    ("store.slab_mb", "MB", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("store.load_errors", "count", "lower"),
    ("store.rank_ms", "ms", "lower"),
    ("ingest.apply_us", "us", "lower"),
    ("ingest.refresh_content_ms", "ms", "lower"),
    ("ingest.refresh_topology_ms", "ms", "lower"),
    ("ingest.recomputed_share", "ratio", "lower"),
    ("serve.start_s", "s", "lower"),
    ("serve.first_answer_ms", "ms", "lower"),
    ("serve.search_cache_ms", "ms", "lower"),
    ("serve.search_store_ms", "ms", "lower"),
    ("serve.search_live_ms", "ms", "lower"),
    ("serve.search_two_stage_ms", "ms", "lower"),
    ("serve.explain_ms", "ms", "lower"),
    ("serve.feedback_ms", "ms", "lower"),
    ("serve.ingest_ms", "ms", "lower"),
    ("serve.http_overhead_ms", "ms", "lower"),
    ("serve.response_bytes", "B", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.live_share", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.latency_p50_ms", "ms", "lower"),
    ("serve.latency_p90_ms", "ms", "lower"),
    ("serve.latency_tail_ms", "ms", "lower"),
    ("serve.latency_tail_percentile", "pct", "higher"),
    ("trace.coverage_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("box.speed", "ratio", "higher"),
)


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document for this registry."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# -- samplers ----------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    text: str
    kind: str


@dataclass(frozen=True)
class IngestCycle:
    """One write (a mutation batch, forced refresh) and the reads after it."""

    mutations: tuple[dict, ...]
    reads: tuple[str, ...]
    topology: bool


def term_pools(index, covered=None) -> dict[str, list[str]]:
    """Index terms by kind; ``covered`` optionally filters (store coverage)."""
    n = index.num_documents
    selective_below = max(MIN_BAND_DF, SELECTIVE_BELOW * n)
    popular_from = max(MIN_BAND_DF, POPULAR_FROM * n)
    pools: dict[str, list[str]] = {kind: [] for kind in KINDS}
    for term in sorted(index.vocabulary()):
        df = index.document_frequency(term)
        if df < 2 or (covered is not None and not covered(term)):
            continue
        if df < selective_below:
            pools["selective"].append(term)
        elif df >= popular_from:
            pools["popular"].append(term)
        else:
            pools["topical"].append(term)
    return pools


def _distinct_texts(pool: list[str], count: int, rng: random.Random) -> list[str]:
    """``count`` distinct queries: term pairs, then triples once pairs run out.

    A query is a sorted term tuple, so ``a b`` and ``b a`` (the same query
    vector, hence the same cache key) count once.
    """
    pairs = comb(len(pool), 2)
    if count > pairs + comb(len(pool), 3):
        raise WorkloadError(
            f"pool of {len(pool)} terms cannot supply {count} distinct queries"
        )
    if count > pairs // 2:
        # Rejection sampling would crawl near exhaustion: enumerate instead.
        universe = list(combinations(pool, 2))
        if count > pairs:
            universe += list(combinations(pool, 3))
        return [" ".join(terms) for terms in rng.sample(universe, count)]
    seen: set[tuple[str, ...]] = set()
    while len(seen) < count:
        seen.add(tuple(sorted(rng.sample(pool, 2))))
    return [" ".join(terms) for terms in sorted(seen)]


def distinct_queries(
    pools: dict[str, list[str]],
    shares: dict[str, float],
    count: int,
    rng: random.Random,
) -> list[Query]:
    """``count`` distinct queries with exactly the designed kind shares."""
    exact = {kind: share * count for kind, share in shares.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(exact, key=lambda kind: counts[kind] - exact[kind])
    for kind in by_remainder[: count - sum(counts.values())]:
        counts[kind] += 1
    queries = [
        Query(text, kind)
        for kind in sorted(counts)
        for text in _distinct_texts(pools[kind], counts[kind], rng)
    ]
    rng.shuffle(queries)
    check_kind_shares(queries, shares)
    return queries


def check_kind_shares(queries: list[Query], shares: dict[str, float]) -> None:
    """The generated mix must be the designed one (to within one query)."""
    total = len(queries)
    for kind, share in shares.items():
        observed = sum(1 for q in queries if q.kind == kind)
        if abs(observed - share * total) > 1.0:
            raise WorkloadError(
                f"kind {kind!r}: designed share {share:.3f}, generated "
                f"{observed}/{total}"
            )
    if any(q.kind not in shares for q in queries):
        raise WorkloadError("generated a query kind the workload did not design")


def zipf_sequence(
    queries: list[Query], length: int, rng: random.Random, s: float = 1.0
) -> list[Query]:
    """``length`` draws with P(rank r) proportional to ``1 / r**s``."""
    weights = [1.0 / (rank**s) for rank in range(1, len(queries) + 1)]
    return rng.choices(queries, weights=weights, k=length)


def ingest_cycles(
    data_graph, pools: dict[str, list[str]], count: int, rng: random.Random
) -> list[IngestCycle]:
    """Write/read cycles: four title rewrites, every 6th a new cited paper.

    A rewrite swaps one title word for a topical term, so a content cycle
    dirties a handful of keyword columns; a topology cycle dirties them all.
    Reads are three topical queries asked four times each: three misses and
    nine hits per refresh epoch.
    """
    papers = sorted(
        node.node_id for node in data_graph.nodes() if node.label == "Paper"
    )
    topical = pools["topical"]
    cycles = []
    for number in range(count):
        topology = number % 6 == 5
        if topology:
            new_id = f"paper:e2e-{number}"
            mutations = (
                {
                    "op": "add_node",
                    "node_id": new_id,
                    "label": "Paper",
                    "attributes": {"title": " ".join(rng.sample(topical, 4))},
                },
                {
                    "op": "add_edge",
                    "source": new_id,
                    "target": rng.choice(papers),
                    "role": "cites",
                },
            )
        else:
            mutations = tuple(
                _title_rewrite(data_graph.node(paper), rng.choice(topical), rng)
                for paper in rng.sample(papers, 4)
            )
        reads = _distinct_texts(topical, 3, rng) * 4
        cycles.append(IngestCycle(mutations, tuple(reads), topology))
    return cycles


def _title_rewrite(node, term: str, rng: random.Random) -> dict:
    words = node.attributes.get("title", "").split() or [term]
    words[rng.randrange(len(words))] = term
    return {
        "op": "update_node",
        "node_id": node.node_id,
        "attributes": {**node.attributes, "title": " ".join(words)},
    }


def generate_ops(workload: Workload, corpus, seed: int, seconds: float) -> list:
    """The workload's whole seeded op list: warm-up prefix, then measured."""
    rng = random.Random(f"{workload.name}:{seed}")
    covered = corpus.ranker.has_keyword if corpus.ranker is not None else None
    pools = term_pools(corpus.engine.index, covered)
    length = workload.warmup + max(1, int(workload.rate_cap * seconds))
    if workload.shape == "ingest":
        return ingest_cycles(corpus.dataset.data_graph, pools, length, rng)
    if workload.distinct is not None:
        universe = distinct_queries(
            pools, workload.kind_shares, workload.distinct, rng
        )
        return zipf_sequence(universe, length, rng)
    return distinct_queries(pools, workload.kind_shares, length, rng)
