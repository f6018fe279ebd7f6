"""Blocked multi-restart precomputation vs the serial per-keyword loop.

The [BHP04] serving mode precomputes one authority vector per index keyword.
Serially that is ``|vocabulary|`` independent power iterations, each making
its own pass over the transition matrix per step.  The blocked engine
(:mod:`repro.ranking.batch`) stacks all restart vectors into one ``(n, k)``
matrix and amortizes every sparse pass across all still-active columns, so
the matrix's nonzeros are streamed once per iteration instead of once per
keyword per iteration.

This benchmark times two builds of the full DBLPcomplete vocabulary —
serial loop and blocked — and verifies the tentpole claim: blocking is a
pure performance change.  Per keyword, the blocked scores match the serial
engine to ≤1e-12 with identical iteration counts.

Run under pytest (``pytest benchmarks/bench_batch.py --benchmark-only -s``)
or directly as a script::

    PYTHONPATH=src python benchmarks/bench_batch.py           # full run
    PYTHONPATH=src python benchmarks/bench_batch.py --smoke   # CI quick mode

Smoke mode uses the tiny dataset and checks only the identity guarantees
(small graphs are overhead-dominated, so no speedup is asserted there) —
blocked == serial per keyword, and the live single-vector loop (the compiled
SELL-4 step when the kernel is available) ``==`` the reference loop of
``tests/ranking/reference.py`` over 50 queries.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # script mode: make `benchmarks.` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, write_result

from repro.datasets import load_dataset
from repro.graph.transfer_graph import SellMatrix
from repro.query import QueryVector
from repro.query.engine import SearchEngine
from repro.ranking import (
    batched_keyword_vectors,
    keyword_objectrank,
    objectrank2,
    objectrank2_topk,
)
from repro.ranking.batch import DEFAULT_BLOCK_WIDTH
from repro.ranking.pagerank import live_operator
from tests.ranking.reference import (
    reference_power_iteration,
    reference_topk_power_iteration,
)

MIN_DOCUMENT_FREQUENCY = 2
TOLERANCE = 1e-8
IDENTITY_BOUND = 1e-12
REQUIRED_SPEEDUP = 3.0


@dataclass
class BatchReport:
    dataset: str
    num_nodes: int
    num_keywords: int
    serial_seconds: float
    blocked_seconds: float
    max_abs_diff: float
    iterations_identical: bool

    @property
    def blocked_speedup(self) -> float:
        return self.serial_seconds / self.blocked_seconds

    @property
    def identical(self) -> bool:
        return self.iterations_identical and self.max_abs_diff <= IDENTITY_BOUND

    def table(self) -> str:
        lines = [
            f"Blocked keyword precomputation — dataset={self.dataset}, "
            f"{self.num_keywords} keywords (df >= {MIN_DOCUMENT_FREQUENCY}), "
            f"{self.num_nodes} nodes",
            f"  serial (keyword_objectrank loop)   : {self.serial_seconds:8.2f} s",
            f"  blocked (batched, in-process)      : {self.blocked_seconds:8.2f} s"
            f"   {self.blocked_speedup:5.1f}x",
            f"verification: per-column |Δscore|max = {self.max_abs_diff:.2e} "
            f"(bound {IDENTITY_BOUND:.0e}), iteration counts "
            + ("identical" if self.iterations_identical else "DIFFER"),
        ]
        return "\n".join(lines)


def vocabulary_keywords(engine: SearchEngine) -> list[str]:
    return [
        term
        for term in engine.index.vocabulary()
        if engine.index.document_frequency(term) >= MIN_DOCUMENT_FREQUENCY
    ]


def run_comparison(dataset) -> BatchReport:
    """Time serial vs blocked precomputation, interleaved per segment.

    The vocabulary is split into segments (multiples of the blocked engine's
    chunk width) and each segment is timed serial-then-blocked back to
    back.  On shared machines background load drifts over minutes;
    interleaving makes both sides see the same conditions so the reported
    ratio reflects the engines, not the neighbours.  The summed work is
    identical to timing each engine over the whole vocabulary at once.
    """
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    graph, index = engine.graph, engine.index
    keywords = vocabulary_keywords(engine)
    graph.matrix()  # warm the CSR cache so neither side pays the build
    # Warm the blocked engine's one-time per-process kernel compile too: a
    # serving deployment pays it once per process, not once per precompute.
    batched_keyword_vectors(graph, index, keywords[:1], tolerance=TOLERANCE)

    segment_size = 3 * DEFAULT_BLOCK_WIDTH
    serial_seconds = blocked_seconds = 0.0
    serial: dict = {}
    blocked: dict = {}
    for lo in range(0, len(keywords), segment_size):
        segment = keywords[lo : lo + segment_size]

        start = time.perf_counter()
        for keyword in segment:
            serial[keyword] = keyword_objectrank(
                graph, index, keyword, tolerance=TOLERANCE
            )
        serial_seconds += time.perf_counter() - start

        start = time.perf_counter()
        blocked.update(
            batched_keyword_vectors(graph, index, segment, tolerance=TOLERANCE)
        )
        blocked_seconds += time.perf_counter() - start

    max_abs_diff = 0.0
    iterations_identical = set(serial) == set(blocked)
    for keyword, exact in serial.items():
        result = blocked[keyword]
        diff = float(np.abs(result.scores - exact.scores).max())
        max_abs_diff = max(max_abs_diff, diff)
        iterations_identical &= result.iterations == exact.iterations

    return BatchReport(
        dataset=dataset.name,
        num_nodes=dataset.num_nodes,
        num_keywords=len(keywords),
        serial_seconds=serial_seconds,
        blocked_seconds=blocked_seconds,
        max_abs_diff=max_abs_diff,
        iterations_identical=iterations_identical,
    )


def live_loop_mismatches(dataset, queries: int = 50) -> tuple[list[str], str]:
    """Two-term queries whose live ObjectRank2 run — exact and top-k, cold
    and warm-started — differs from the reference loop in scores, residual
    list, iterations or ``converged``; and which step ran."""
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    graph = engine.graph
    terms = engine.index.vocabulary()
    rng = np.random.default_rng(BENCH_SEED)
    warm = None
    mismatches = []
    for _ in range(queries):
        vector = QueryVector(dict.fromkeys(map(str, rng.choice(terms, 2, replace=False)), 1.0))
        exact = objectrank2(graph, engine.scorer, vector, init=warm)
        top = objectrank2_topk(graph, engine.scorer, vector, init=warm)
        restart = graph.restart_vector(exact.base_weights)
        pairs = (
            (exact, reference_power_iteration(graph.matrix(), restart, init=warm)),
            (top, reference_topk_power_iteration(graph.matrix(), restart, 10, init=warm)),
        )
        if not all(
            np.array_equal(mine.scores, theirs.scores)
            and mine.residuals == theirs.residuals
            and (mine.iterations, mine.converged) == (theirs.iterations, theirs.converged)
            for mine, theirs in pairs
        ):
            mismatches.append(" ".join(vector.terms))
        warm = exact.scores
    step = "SELL-4 kernel" if isinstance(live_operator(graph), SellMatrix) else "numpy"
    return mismatches, step


def test_batch_precompute_identical_and_faster(benchmark, dblp_complete):
    report = benchmark.pedantic(
        run_comparison, args=(dblp_complete,), rounds=1, iterations=1
    )
    write_result("batch", report.table())
    assert report.identical, report.table()
    assert report.blocked_speedup >= REQUIRED_SPEEDUP, report.table()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: tiny dataset, identity checks only",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        dataset = load_dataset("dblp_tiny")
        report = run_comparison(dataset)
        print(report.table())
        if not report.identical:
            print("FAIL: blocked results diverge from the serial engine")
            return 1
        print("smoke OK: blocked == serial for every keyword")
        mismatches, step = live_loop_mismatches(dataset)
        if mismatches:
            print(f"FAIL: live loop ({step}) != reference loop for {mismatches}")
            return 1
        print(f"smoke OK: live loop ({step}) == reference loop on 50 queries")
        return 0

    dataset = load_dataset("dblp_complete", scale=BENCH_SCALE, seed=BENCH_SEED)
    report = run_comparison(dataset)
    write_result("batch", report.table())
    if not report.identical:
        print("FAIL: blocked results diverge from the serial engine")
        return 1
    if report.blocked_speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: blocked speedup {report.blocked_speedup:.1f}x < {REQUIRED_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
