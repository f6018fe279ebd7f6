"""Batched explanation engine vs the serial per-target loop.

Explaining the full top-k of a query serially repeats, per target, a Python
BFS over adjacency dicts and its own flow-adjustment power iteration.  The
batched engine (:mod:`repro.explain.batch`) expands whole BFS frontiers as
numpy index arrays over the shared positive-rate incidence and runs one
multi-column fixpoint over the concatenated subgraph edge lists, with
per-target convergence freezing — so every numpy pass is amortized across
all still-active targets.

This benchmark explains the top targets of one DBLPcomplete query two
ways — serial loop and batched — and verifies the tentpole claim: batching
is a pure performance change.  Per target, flows, node reduction factors and
iteration counts are bit-identical (exact float equality, not a tolerance).

Run under pytest (``pytest benchmarks/bench_explain_batch.py
--benchmark-only -s``) or directly as a script::

    PYTHONPATH=src python benchmarks/bench_explain_batch.py           # full run
    PYTHONPATH=src python benchmarks/bench_explain_batch.py --smoke   # CI quick mode

Smoke mode uses the tiny dataset and checks only the identity guarantees
(small graphs are overhead-dominated, so no speedup is asserted there), then
checks the feedback loop on ``dblp_top``: the array-native reformulation
(Equations 11-15) must equal the reference loops kept in
``tests/reformulate/reference.py``.  What reformulating and explaining cost —
read off the session's own ``IterationTiming`` rows — is printed as
information only: the two identity checks are the gate, a wall-clock
comparison is not a referee.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # script mode: make `benchmarks.`/`tests.` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, write_result
from tests.reformulate.reference import reference_reformulate

from repro.core import ObjectRankSystem
from repro.datasets import load_dataset
from repro.explain import (
    SubgraphExtractor,
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
)
from repro.query.engine import SearchEngine

QUERY = "olap"
NUM_TARGETS = 16
RADIUS = 3
TOLERANCE = 1e-8
REQUIRED_SPEEDUP = 2.0
FEEDBACK_ITERATIONS = 5


@dataclass
class ExplainReport:
    dataset: str
    num_nodes: int
    num_targets: int
    radius: int
    serial_seconds: float
    batched_seconds: float
    bit_identical: bool

    @property
    def batched_speedup(self) -> float:
        return self.serial_seconds / self.batched_seconds

    def table(self) -> str:
        per_target = 1000.0 * self.serial_seconds / self.num_targets
        per_batched = 1000.0 * self.batched_seconds / self.num_targets
        lines = [
            f"Batched explanations — dataset={self.dataset}, "
            f"{self.num_targets} targets, radius={self.radius}, "
            f"{self.num_nodes} nodes",
            f"  serial (per-target loop)          : {self.serial_seconds:8.2f} s"
            f"   ({per_target:7.1f} ms/target)",
            f"  batched (in-process)              : {self.batched_seconds:8.2f} s"
            f"   ({per_batched:7.1f} ms/target)   {self.batched_speedup:5.1f}x",
            "verification: flows, reductions and iteration counts "
            + ("bit-identical" if self.bit_identical else "DIFFER"),
        ]
        return "\n".join(lines)


def _explanations_identical(serial, batched) -> bool:
    """Exact equality of every per-target output the serial path produces."""
    for a, b in zip(serial, batched):
        if a.subgraph.nodes != b.subgraph.nodes:
            return False
        if not np.array_equal(a.subgraph.edge_ids, b.subgraph.edge_ids):
            return False
        if a.subgraph.depth_to_target != b.subgraph.depth_to_target:
            return False
        if not np.array_equal(a.flows, b.flows):
            return False
        if not np.array_equal(a.original_flows, b.original_flows):
            return False
        if a.reduction != b.reduction:
            return False
        if (a.iterations, a.converged) != (b.iterations, b.converged):
            return False
    return len(serial) == len(batched)


def run_comparison(dataset) -> ExplainReport:
    """Time serial vs batched explanation of one query's top targets.

    One live ObjectRank2 run fixes the base set, scores and targets; the
    two explanation engines then run back to back over identical inputs.
    The batched side pre-warms the shared positive-rate incidence (a serving
    process builds it once per rate vector, not once per request).
    """
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    result = engine.search(QUERY, top_k=NUM_TARGETS)
    base_ids = list(result.ranked.base_weights)
    targets = [node_id for node_id, _ in result.top]
    scores = result.ranked.scores
    graph = engine.graph

    extractor = SubgraphExtractor(graph)  # warm the shared incidence once

    start = time.perf_counter()
    serial = [
        adjust_flows(
            build_explaining_subgraph(graph, base_ids, target, RADIUS),
            scores,
            tolerance=TOLERANCE,
        )
        for target in targets
    ]
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = batched_adjust_flows(
        batched_build_explaining_subgraphs(
            graph, base_ids, targets, RADIUS, extractor=extractor
        ),
        scores,
        tolerance=TOLERANCE,
    )
    batched_seconds = time.perf_counter() - start

    bit_identical = _explanations_identical(serial, batched)

    return ExplainReport(
        dataset=dataset.name,
        num_nodes=dataset.num_nodes,
        num_targets=len(targets),
        radius=RADIUS,
        serial_seconds=serial_seconds,
        batched_seconds=batched_seconds,
        bit_identical=bit_identical,
    )


def check_feedback_shape(dataset) -> list[str]:
    """Problems with the feedback loop on ``dataset`` (empty = none).

    One session, one warm-up iteration (the node-term table is built on first
    use), then ``FEEDBACK_ITERATIONS`` iterations marking the top result:
    every reformulation must ``==`` the reference loops on the same
    explanations.  The session's recorded ``reformulate_seconds`` and
    ``subgraph_seconds + adjust_seconds`` over those iterations are printed,
    not judged.
    """
    system = ObjectRankSystem(dataset.data_graph, dataset.transfer_schema)
    result = system.query(QUERY)
    problems: list[str] = []
    timings = []
    for iteration in range(FEEDBACK_ITERATIONS + 1):
        vector, rates = system.current_vector, system.current_rates
        outcome = system.feedback(result.hit_ids()[:1])
        expected = reference_reformulate(
            system.reformulator, vector, rates, outcome.explanations
        )
        if outcome.reformulated != expected:
            problems.append(
                f"iteration {iteration}: reformulation differs from the reference loops"
            )
        if iteration:
            timings.append(outcome.timing)
        result = outcome.result
    reformulate = sum(t.reformulate_seconds for t in timings)
    explain = sum(t.subgraph_seconds + t.adjust_seconds for t in timings)
    print(
        f"feedback shape — dataset={dataset.name}, {len(timings)} iterations: "
        f"reformulate {1000 * reformulate:.1f} ms vs explain {1000 * explain:.1f} ms"
    )
    return problems


def test_batched_explain_identical_and_faster(benchmark, dblp_complete):
    report = benchmark.pedantic(
        run_comparison, args=(dblp_complete,), rounds=1, iterations=1
    )
    write_result("explain_batch", report.table())
    assert report.bit_identical, report.table()
    assert report.batched_speedup >= REQUIRED_SPEEDUP, report.table()


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
        if not report.bit_identical:
            print("FAIL: batched explanations diverge from the serial engine")
            return 1
        print("smoke OK: batched == serial for every target")
        problems = check_feedback_shape(load_dataset("dblp_top"))
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            return 1
        print("smoke OK: reformulation == reference loops")
        return 0

    dataset = load_dataset("dblp_complete", scale=BENCH_SCALE, seed=BENCH_SEED)
    report = run_comparison(dataset)
    write_result("explain_batch", report.table())
    if not report.bit_identical:
        print("FAIL: batched explanations diverge from the serial engine")
        return 1
    if report.batched_speedup < REQUIRED_SPEEDUP:
        print(
            f"FAIL: batched speedup {report.batched_speedup:.1f}x"
            f" < {REQUIRED_SPEEDUP}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
