"""Extension benchmark: two-stage retrieval vs full and focused ObjectRank2.

The two-stage engine claims cost proportional to the result page: stage 1
generates an exact top-N BM25 candidate set, stage 2 reranks only the
candidates' authority neighborhood.  This benchmark quantifies the claim on
the DBLPcomplete-scale corpus:

* **correctness first** — for every benchmark query and candidate budget,
  the stage-1 top N is verified identical (ids, score floats, first-hit
  order) to the document-at-a-time oracle in ``tests/ir/reference.py``
  before any timing is reported;
* **latency** — per-query p50/p99 for full-graph ObjectRank2, focused
  ObjectRank2 (horizon 2) and the tuned two-stage configuration at
  N in {50, 200, 1000};
* **quality** — precision@10 / precision@50 of each mode against the
  full-graph ObjectRank2 ranking, plus a per-kind breakdown (selective /
  topical / popular) of the headline configuration.

The workload is ``WorkloadGenerator.mixed``: equal parts topical queries
(hot topic-label terms, S(Q) in the thousands — the adversarial case for
neighborhood truncation), selective queries (S(Q) ~ 1) and popular-term
queries.  Measuring only one kind either hides the hard case or pretends
every query is one.

Run under pytest (``pytest benchmarks/bench_two_stage.py --benchmark-only -s``)
or directly as a script::

    PYTHONPATH=src python benchmarks/bench_two_stage.py           # scale 4
    PYTHONPATH=src python benchmarks/bench_two_stage.py --smoke   # CI quick mode

Script mode defaults to ``REPRO_BENCH_SCALE=4`` (~120k nodes, ~1.5M transfer
entries): at scale 1 the whole graph sits hot in cache and full ObjectRank2
answers in ~14ms, so there is nothing left to accelerate and the speedup
bar is meaningless.  The acceptance asserts therefore gate on the measured
full-graph baseline, not on the nominal scale.

Smoke mode checks the identities that make the fast path trustworthy on the
small corpus: stage-1 top N == the document-at-a-time oracle; the
degenerate two-stage configuration (candidates >= corpus) bit-identical to
focused ObjectRank2; and, per query at the tuned operating point, the
rerank over gathered rows == the rerank over the reference induced matrix
(``tests/ranking/reference.py``) and the page cut inside the neighbourhood
== the page cut over the full vector.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make `benchmarks.` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from repro.datasets import load_dataset
from repro.query import KeywordQuery, SearchEngine
from repro.ranking import focused_objectrank2, objectrank2
from repro.retrieval import TwoStageEngine, top_n_candidates

from benchmarks.conftest import BENCH_SEED, write_result
from benchmarks.reporting import format_table
from benchmarks.workload import WorkloadGenerator
from tests.ir.reference import reference_first_hit_order, reference_top_n
from tests.ranking.reference import reference_induced_objectrank

# Script-mode scale (the pytest path uses the shared conftest fixtures).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "4"))

NUM_QUERIES = 18
CANDIDATE_SIZES = (50, 200, 1000)
FOCUSED_HORIZON = 2
PRECISION_KS = (10, 50)

# The shipped operating point (serve's two_stage defaults are conservative;
# these are the tuned values the DESIGN doc recommends for DBLP-shaped
# corpora).  Hub-capped expansion keeps topical neighborhoods from swallowing
# the graph through year/venue hubs; adaptive deepening grows the tiny
# neighborhoods of selective queries until the node budget is met, so their
# pages stop missing authority flow that arrives from two extra hops out.
TUNED = dict(
    horizon=FOCUSED_HORIZON,
    expand_cap=128,
    node_budget=256,
    max_horizon=5,
    early_k=10,
)
HEADLINE_N = 200

# Only assert the speedup bar when the baseline is slow enough for "5x
# faster" to mean anything (see module docstring on scale).
BASELINE_FLOOR_MS = 25.0


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (the serve tier's convention)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _workload(dataset, count: int):
    """Balanced mixed workload: list of (query vector, kind) pairs."""
    generator = WorkloadGenerator(dataset, seed=5)
    return [
        (KeywordQuery.parse(query.text).vector(), query.kind)
        for query in generator.mixed(count)
    ]


def verify_stage1_is_exact(scorer, vectors, sizes) -> int:
    """Assert top N == the document-at-a-time oracle for every (query, N):
    ids, score floats, tie order, first-hit order.  Returns the documents
    stage 1 scored over all checks."""
    scored = 0
    for vector in vectors:
        ranked = reference_top_n(scorer, vector, max(sizes))
        for n in sizes:
            top = top_n_candidates(scorer, vector, n)
            assert [(c.doc_id, c.score) for c in top] == ranked[:n], (
                "stage-1 candidates diverged from the oracle"
            )
            assert top.first_hit_order == reference_first_hit_order(
                scorer, vector, top.doc_ids
            )
            scored += top.evaluated
    return scored


def run_comparison(dataset):
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    workload = _workload(dataset, NUM_QUERIES)
    vectors = [vector for vector, _ in workload]

    # A timing for a wrong ranking is worthless: prove exactness first.
    verify_stage1_is_exact(engine.scorer, vectors, CANDIDATE_SIZES)

    exact_pages: list[dict[int, set[str]]] = []
    full_latencies = []
    for vector in vectors:
        start = time.perf_counter()
        ranked = objectrank2(engine.graph, engine.scorer, vector)
        full_latencies.append(time.perf_counter() - start)
        exact_pages.append(
            {k: {nid for nid, _ in ranked.top_k(k)} for k in PRECISION_KS}
        )

    def measure(run):
        """(latencies, mean precision@k, per-query records) for one mode."""
        latencies, overlaps = [], {k: 0 for k in PRECISION_KS}
        per_query = []  # (kind, latency seconds, precision@10)
        for (vector, kind), pages in zip(workload, exact_pages):
            start = time.perf_counter()
            ranked = run(vector)
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            page = {k: {nid for nid, _ in ranked.top_k(k)} for k in PRECISION_KS}
            for k in PRECISION_KS:
                overlaps[k] += len(pages[k] & page[k])
            per_query.append((kind, elapsed, len(pages[10] & page[10]) / 10))
        precision = {k: overlaps[k] / (len(vectors) * k) for k in PRECISION_KS}
        return latencies, precision, per_query

    modes = [("full ObjectRank2", full_latencies, {k: 1.0 for k in PRECISION_KS})]

    focused_latencies, focused_precision, _ = measure(
        lambda vector: focused_objectrank2(
            engine.graph, engine.scorer, vector, horizon=FOCUSED_HORIZON
        ).ranked
    )
    modes.append(
        (f"focused L={FOCUSED_HORIZON}", focused_latencies, focused_precision)
    )

    two_stage = TwoStageEngine(engine, candidates=HEADLINE_N, **TUNED)
    headline_per_query = None
    for n in CANDIDATE_SIZES:
        latencies, precision, per_query = measure(
            lambda vector, n=n: two_stage.search(
                vector, top_k=max(PRECISION_KS), candidates=n
            ).ranked
        )
        modes.append((f"two-stage N={n}", latencies, precision))
        if n == HEADLINE_N:
            headline_per_query = per_query

    rows = [
        (
            name,
            _percentile(latencies, 0.5) * 1000.0,
            _percentile(latencies, 0.99) * 1000.0,
            precision[10],
            precision[50],
        )
        for name, latencies, precision in modes
    ]
    return rows, headline_per_query


def _per_kind_rows(per_query):
    rows = []
    for kind in ("selective", "topical", "popular"):
        records = [r for r in per_query if r[0] == kind]
        if not records:
            continue
        rows.append(
            (
                kind,
                len(records),
                statistics.median(r[1] for r in records) * 1000.0,
                statistics.fmean(r[2] for r in records),
            )
        )
    return rows


def run_two_stage_bench() -> None:
    dataset = load_dataset("dblp_complete", scale=BENCH_SCALE, seed=BENCH_SEED)
    rows, per_query = run_comparison(dataset)
    _report_and_check(rows, per_query)


def _report_and_check(rows, per_query) -> None:
    table = format_table(
        ["mode", "p50 ms", "p99 ms", "prec@10", "prec@50"],
        [
            (name, f"{p50:.2f}", f"{p99:.2f}", f"{p10:.2f}", f"{p50_prec:.2f}")
            for name, p50, p99, p10, p50_prec in rows
        ],
        title=(
            "Extension: two-stage retrieval vs full/focused ObjectRank2 "
            f"(dblp_complete, {NUM_QUERIES} mixed queries; stage 1 verified "
            "against the document-at-a-time oracle)"
        ),
    )
    breakdown = format_table(
        ["kind", "queries", "p50 ms", "prec@10"],
        [
            (kind, str(count), f"{p50:.2f}", f"{p10:.2f}")
            for kind, count, p50, p10 in _per_kind_rows(per_query)
        ],
        title=(
            f"Headline two-stage N={HEADLINE_N} by query kind "
            f"(horizon={TUNED['horizon']}, expand_cap={TUNED['expand_cap']}, "
            f"node_budget={TUNED['node_budget']}, "
            f"max_horizon={TUNED['max_horizon']}, early_k={TUNED['early_k']})"
        ),
    )
    write_result("two_stage", table + "\n\n" + breakdown)

    by_mode = {name: (p50, p99, p10, p50p) for name, p50, p99, p10, p50p in rows}
    full_p50 = by_mode["full ObjectRank2"][0]
    if full_p50 < BASELINE_FLOOR_MS:
        print(
            f"note: full ObjectRank2 p50 {full_p50:.1f}ms < "
            f"{BASELINE_FLOOR_MS:.0f}ms — corpus too small for the speedup "
            "bar, skipping acceptance asserts (run with REPRO_BENCH_SCALE=4)"
        )
        return
    # The page-proportional claim: some candidate budget beats full-graph
    # ObjectRank2 by >= 5x at the median while keeping the page right.
    best = max(
        (
            full_p50 / p50
            for name, (p50, _, p10, _) in by_mode.items()
            if name.startswith("two-stage") and p10 >= 0.9
        ),
        default=0.0,
    )
    assert best >= 5.0, f"best qualifying two-stage speedup {best:.1f}x < 5x"
    # Larger candidate budgets converge on the exact page.
    assert by_mode[f"two-stage N={CANDIDATE_SIZES[-1]}"][2] >= 0.9


def test_two_stage_tradeoff(benchmark, dblp_complete):
    rows, per_query = benchmark.pedantic(
        run_comparison, args=(dblp_complete,), rounds=1, iterations=1
    )
    _report_and_check(rows, per_query)


# ---------------------------------------------------------------------------
# CI smoke mode: exactness identities on the small corpus
# ---------------------------------------------------------------------------


def run_two_stage_smoke() -> int:
    dataset = load_dataset("dblp_tiny", seed=BENCH_SEED)
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    vectors = [vector for vector, _ in _workload(dataset, 6)]

    scored = verify_stage1_is_exact(engine.scorer, vectors, (1, 10, 100))
    print(
        f"smoke: stage-1 top N == the document-at-a-time oracle on "
        f"{len(vectors)} queries x 3 budgets ({scored} documents scored)"
    )

    two_stage = TwoStageEngine(engine, candidates=10_000)
    for vector in vectors:
        mine = two_stage.search(vector, top_k=10)
        focused = focused_objectrank2(
            engine.graph, engine.scorer, vector, horizon=two_stage.horizon
        )
        assert np.array_equal(mine.ranked.scores, focused.ranked.scores), (
            "degenerate two-stage diverged from focused ObjectRank2"
        )
        assert mine.ranked.iterations == focused.ranked.iterations
    print("smoke: degenerate two-stage bit-identical to focused ObjectRank2")

    tuned = TwoStageEngine(engine, candidates=20, **TUNED)
    for vector in vectors:
        mine = tuned.search(vector, top_k=10)
        stages = mine.stages
        outcome, edge_count = reference_induced_objectrank(
            engine.graph, stages.neighborhood, mine.ranked.base_weights,
            engine.damping, engine.tolerance, engine.max_iterations,
            early_k=TUNED["early_k"],
        )
        assert np.array_equal(
            mine.ranked.scores[stages.neighborhood], outcome.scores
        ), "rerank over rows diverged from the induced matrix"
        assert mine.ranked.residuals == outcome.residuals
        assert (mine.ranked.iterations, mine.ranked.converged) == (
            outcome.iterations, outcome.converged,
        )
        assert stages.subgraph_edges == edge_count
        assert mine.top == mine.ranked.top_k(10), (
            "page within the neighbourhood diverged from the full-vector page"
        )
    print(
        "smoke: rerank over rows == rerank over the induced matrix, "
        "page within the neighbourhood == page over the full vector"
    )
    print("smoke OK: two-stage fast paths proven exact on dblp_tiny")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: stage-1/degenerate exactness identities on dblp_tiny",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_two_stage_smoke()
    run_two_stage_bench()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
