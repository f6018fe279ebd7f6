"""Extension benchmark: focused-subgraph execution vs full-graph ObjectRank2.

Section 6.2 lists "define focused subsets" among the remedies for slow
full-graph ObjectRank2, and the related work cites the Hubs of Knowledge
project's query-dependent subgraphs [SIY06].  This benchmark quantifies the
trade-off on our DBLPcomplete-scale graph: per-query focused execution at
horizons 1-4 against the exact full-graph run, measuring

* top-10 overlap with the exact ranking (quality),
* subgraph coverage (how much of the graph the horizon touches),
* wall-clock per query.

Also compares the top-k early-termination variant, which keeps the full
graph but stops the power iteration once the visible ranking is stable.
"""

import time

from repro.query import KeywordQuery, SearchEngine
from repro.ranking import focused_objectrank2, objectrank2, objectrank2_topk

from benchmarks.conftest import write_result
from benchmarks.reporting import format_table
from benchmarks.workload import WorkloadGenerator

NUM_QUERIES = 8
TOP_K = 10


def run_comparison(dataset):
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    workload = WorkloadGenerator(dataset, seed=3).sample("topical", NUM_QUERIES)

    exact_results = {}
    exact_time = 0.0
    for query in workload:
        vector = KeywordQuery.parse(query.text).vector()
        start = time.perf_counter()
        exact_results[query.text] = objectrank2(engine.graph, engine.scorer, vector)
        exact_time += time.perf_counter() - start

    rows = []
    for horizon in (1, 2, 3, 4):
        overlap_total = 0
        coverage_total = 0.0
        elapsed = 0.0
        for query in workload:
            vector = KeywordQuery.parse(query.text).vector()
            start = time.perf_counter()
            focused = focused_objectrank2(
                engine.graph, engine.scorer, vector, horizon=horizon
            )
            elapsed += time.perf_counter() - start
            exact_top = {nid for nid, _ in exact_results[query.text].top_k(TOP_K)}
            focused_top = {nid for nid, _ in focused.ranked.top_k(TOP_K)}
            overlap_total += len(exact_top & focused_top)
            coverage_total += focused.coverage
        rows.append(
            (
                f"focused L={horizon}",
                overlap_total / (NUM_QUERIES * TOP_K),
                coverage_total / NUM_QUERIES,
                elapsed / NUM_QUERIES,
            )
        )

    topk_overlap = 0
    topk_time = 0.0
    for query in workload:
        vector = KeywordQuery.parse(query.text).vector()
        start = time.perf_counter()
        fast = objectrank2_topk(engine.graph, engine.scorer, vector, k=TOP_K)
        topk_time += time.perf_counter() - start
        exact_top = {nid for nid, _ in exact_results[query.text].top_k(TOP_K)}
        topk_overlap += len(exact_top & {nid for nid, _ in fast.top_k(TOP_K)})
    rows.append(
        ("top-k early stop", topk_overlap / (NUM_QUERIES * TOP_K), 1.0,
         topk_time / NUM_QUERIES)
    )
    rows.append(("exact full graph", 1.0, 1.0, exact_time / NUM_QUERIES))
    return rows


def test_focused_execution_tradeoff(benchmark, dblp_complete):
    rows = benchmark.pedantic(
        run_comparison, args=(dblp_complete,), rounds=1, iterations=1
    )
    table = format_table(
        ["execution mode", "top-10 overlap", "graph coverage", "sec/query"],
        [(m, f"{o:.2f}", f"{c:.2f}", f"{s:.4f}") for m, o, c, s in rows],
        title="Extension: focused execution vs exact ObjectRank2 (dblp_complete)",
    )
    write_result("focused_execution", table)

    by_mode = {mode: (overlap, coverage, sec) for mode, overlap, coverage, sec in rows}
    # Quality grows with the horizon and is near-exact by L=3.
    overlaps = [by_mode[f"focused L={h}"][0] for h in (1, 2, 3, 4)]
    assert overlaps == sorted(overlaps)
    assert by_mode["focused L=3"][0] >= 0.6
    # Early-stopped top-k matches the exact top-10 almost perfectly.
    assert by_mode["top-k early stop"][0] >= 0.9
