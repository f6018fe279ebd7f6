"""Shared runner for the performance experiments (Figures 14-17, Table 3).

One run executes the paper's protocol on one dataset: an initial query, then
four feedback-and-reformulate iterations (structure+content, C_e = C_f = 0.5,
L = 3, convergence threshold 0.0001), with warm starts enabled ("Manipulating
Initial ObjectRank values").  Feedback objects come from a simulated user.

The collected rows are exactly what the paper plots:
* per-stage seconds per iteration — Figures 14a-17a's stacked bars;
* ObjectRank2 iteration counts — Figures 14b-17b;
* Explaining-ObjectRank2 iteration counts — Table 3.

Runs are cached per dataset name so the per-dataset figure benchmarks and
the Table 3 benchmark share one execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import ObjectRankSystem, SystemConfig
from repro.core.timing import IterationTiming
from repro.feedback import SimulatedUser
from repro.query import SearchEngine

from benchmarks.reporting import format_table

FEEDBACK_ITERATIONS = 4
PRESENTED_K = 10
MAX_FEEDBACK_OBJECTS = 3  # survey users mark a few results, not all ten
QUERY_BY_SCHEMA = {"Paper": "olap", "EntrezGene": "cancer"}


@dataclass
class PerformanceRun:
    """All measurements from one dataset's protocol run."""

    dataset_name: str
    timings: list[IterationTiming] = field(default_factory=list)
    explaining_iterations: list[list[int]] = field(default_factory=list)
    cold_initial_iterations: int = 0

    def objectrank_iterations(self) -> list[int]:
        return [t.objectrank_iterations for t in self.timings]

    def table(self) -> str:
        rows = [
            (
                t.label,
                f"{t.search_seconds:.4f}",
                f"{t.subgraph_seconds:.4f}",
                f"{t.adjust_seconds:.4f}",
                f"{t.reformulate_seconds:.4f}",
                t.objectrank_iterations,
            )
            for t in self.timings
        ]
        return format_table(
            [
                "iteration",
                "OR2 exec (s)",
                "subgraph (s)",
                "explain OR2 (s)",
                "reformulate (s)",
                "OR2 iters",
            ],
            rows,
            title=(
                f"{self.dataset_name}: per-stage times (a) and OR2 iterations (b)"
                f" [cold-start control: {self.cold_initial_iterations} iters]"
            ),
        )


_CACHE: dict[str, PerformanceRun] = {}


def performance_run(dataset) -> PerformanceRun:
    """Execute (or return the cached) protocol run for ``dataset``."""
    if dataset.name in _CACHE:
        return _CACHE[dataset.name]

    query = QUERY_BY_SCHEMA.get(dataset.schema.labels[0])
    if query is None:  # biological schemas start with EntrezGene
        query = "cancer" if "EntrezGene" in dataset.schema.labels else "olap"

    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    config = SystemConfig(top_k=PRESENTED_K)  # paper defaults: Ce=Cf=0.5, L=3
    system = ObjectRankSystem(
        dataset.data_graph, dataset.transfer_schema, config, engine=engine
    )
    user = SimulatedUser(engine, dataset.ground_truth_rates, relevance_depth=30)

    run = PerformanceRun(dataset_name=dataset.name)
    # Cold-start control: the same initial query from a uniform vector
    # (Figures 14b-17b's baseline is the warm-start *saving* relative to it).
    run.cold_initial_iterations = engine.search(
        query, top_k=PRESENTED_K, rates=dataset.transfer_schema
    ).iterations
    result = system.query(query)
    seen: set[str] = set()
    for _ in range(FEEDBACK_ITERATIONS):
        presented = [
            node_id for node_id in result.ranked.ranking() if node_id not in seen
        ][:PRESENTED_K]
        seen.update(presented)
        marked = (user.judge(presented, query) or presented[:1])[:MAX_FEEDBACK_OBJECTS]
        outcome = system.feedback(marked)
        run.explaining_iterations.append(
            [e.iterations for e in outcome.explanations]
        )
        result = outcome.result
    run.timings = list(system.timings)
    _CACHE[dataset.name] = run
    return run


def check_performance_shapes(run: PerformanceRun) -> None:
    """The paper's scale-invariant structural claims, for any dataset.

    1. Warm starts: reformulated queries converge in fewer ObjectRank2
       iterations on average than the initial query (Figures 14b-17b).
    2. The whole explain-and-reformulate pipeline stays interactive: every
       stage of every iteration completes within seconds.

    Note on stage *proportions*: on the paper's million-node corpora the
    full-graph ObjectRank2 execution dominates (~28s of a ~28.5s iteration
    on DBLPcomplete); at laptop scale that stage shrinks to milliseconds,
    so the explaining stages are of the same order instead of negligible,
    while reformulation is one to two orders cheaper from the second
    iteration on (the first builds the node-term table).  Discussed in
    EXPERIMENTS.md.
    """
    iterations = run.objectrank_iterations()
    reformulated_mean = sum(iterations[1:]) / len(iterations[1:])
    # Every warm-started query (initial-from-global-ObjectRank or
    # reformulated-from-previous-scores) beats the cold-start control.
    assert iterations[0] <= run.cold_initial_iterations, iterations
    assert reformulated_mean <= run.cold_initial_iterations + 0.5, (
        iterations,
        run.cold_initial_iterations,
    )

    for timing in run.timings:
        for stage_seconds in (
            timing.search_seconds,
            timing.subgraph_seconds,
            timing.adjust_seconds,
            timing.reformulate_seconds,
        ):
            assert stage_seconds < 30.0
