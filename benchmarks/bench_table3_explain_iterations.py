"""Table 3: average Explaining-ObjectRank2 iterations per dataset.

Paper values (average iterations of the flow-adjustment fixpoint, per
feedback iteration 1-5):

    DBLPcomplete  7.2  8.4  7.4  11   8.4
    DBLPtop       7.4  8.2  7.4  8.4  8.6
    DS7           5.0  4.8  4.6  5.2  5.6
    DS7cancer     4.4  3.8  5.2  5.6  5.0

The shape to reproduce: the fixpoint converges in a *handful* of iterations
on every dataset (single digits to low teens), making explanation
interactive-speed even where full ObjectRank2 is not.
"""


from benchmarks.conftest import write_result
from benchmarks.perf_common import FEEDBACK_ITERATIONS, performance_run
from benchmarks.reporting import format_table

PAPER_ROWS = {
    "dblp_complete": (7.2, 8.4, 7.4, 11.0, 8.4),
    "dblp_top": (7.4, 8.2, 7.4, 8.4, 8.6),
    "ds7": (5.0, 4.8, 4.6, 5.2, 5.6),
    "ds7_cancer": (4.4, 3.8, 5.2, 5.6, 5.0),
}


def collect(datasets):
    return {dataset.name: performance_run(dataset) for dataset in datasets}


def test_table3_explaining_iterations(
    benchmark, dblp_complete, dblp_top, ds7, ds7_cancer
):
    runs = benchmark.pedantic(
        collect, args=((dblp_complete, dblp_top, ds7, ds7_cancer),),
        rounds=1, iterations=1,
    )

    rows = []
    for name, run in runs.items():
        averages = [
            sum(group) / len(group) if group else 0.0
            for group in run.explaining_iterations
        ]
        paper = PAPER_ROWS[name][: len(averages)]
        rows.append(
            (
                name,
                "  ".join(f"{a:.1f}" for a in averages),
                "  ".join(f"{p:.1f}" for p in paper),
            )
        )
    table = format_table(
        ["dataset", f"ours (iters 1-{FEEDBACK_ITERATIONS})", "paper (iters 1-4)"],
        rows,
        title="Table 3: average Explaining ObjectRank2 iterations",
    )
    write_result("table3_explain_iterations", table)

    # Shape: the explaining fixpoint converges fast everywhere — a handful
    # of iterations, never runaway.
    for run in runs.values():
        for group in run.explaining_iterations:
            for count in group:
                assert 1 <= count <= 40
        flat = [c for group in run.explaining_iterations for c in group]
        assert flat, f"no explanations recorded for {run.dataset_name}"
        assert sum(flat) / len(flat) <= 25.0
