"""Extension benchmark: scalability of the pipeline with corpus size.

Section 6's framing claim is feasibility "over large graphs": ObjectRank2 is
a sparse-matrix power iteration, explaining subgraphs are local, and
reformulation is linear in the subgraph.  This benchmark generates the DBLP
corpus at several scales and measures how each pipeline stage grows,
asserting near-linear behaviour (time ratio bounded by a modest multiple of
the size ratio — power iteration is O(edges x iterations) and the iteration
count is scale-free).
"""

import time

from repro.core import ObjectRankSystem, SystemConfig
from repro.datasets import DblpConfig, generate_dblp

from benchmarks.conftest import write_result
from benchmarks.reporting import format_table

SCALES = (0.25, 0.5, 1.0, 2.0)
BASE_PAPERS = 6000
BASE_AUTHORS = 1800


def run_sweep():
    rows = []
    for scale in SCALES:
        config = DblpConfig(
            num_papers=int(BASE_PAPERS * scale),
            num_authors=int(BASE_AUTHORS * scale),
            num_conferences=10,
            seed=7,
        )
        start = time.perf_counter()
        dataset = generate_dblp(config, name=f"dblp@{scale}")
        generation = time.perf_counter() - start

        start = time.perf_counter()
        system = ObjectRankSystem(
            dataset.data_graph, dataset.transfer_schema, SystemConfig(top_k=10)
        )
        build = time.perf_counter() - start

        start = time.perf_counter()
        result = system.query("olap")
        query_time = time.perf_counter() - start

        start = time.perf_counter()
        system.explain(result.top[0][0])
        explain_time = time.perf_counter() - start

        rows.append(
            (
                scale,
                dataset.num_nodes,
                dataset.num_edges,
                generation,
                build,
                query_time,
                result.iterations,
                explain_time,
            )
        )
    return rows


def test_scalability_sweep(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = format_table(
        ["scale", "nodes", "edges", "generate (s)", "build (s)", "query (s)",
         "OR2 iters", "explain (s)"],
        [
            (s, n, e, f"{g:.2f}", f"{b:.2f}", f"{q:.4f}", i, f"{x:.4f}")
            for s, n, e, g, b, q, i, x in rows
        ],
        title="Extension: pipeline scalability with corpus size",
    )
    write_result("scalability", table)

    smallest, largest = rows[0], rows[-1]
    size_ratio = largest[2] / smallest[2]  # edges
    query_ratio = largest[5] / max(smallest[5], 1e-9)
    # Near-linear: query time grows at most ~6x the edge growth (slack for
    # cache effects and the base-set scoring component).
    assert query_ratio <= 6.0 * size_ratio

    # Iteration counts are scale-free (damping-controlled, not size-controlled).
    iteration_counts = [r[6] for r in rows]
    assert max(iteration_counts) - min(iteration_counts) <= 10
