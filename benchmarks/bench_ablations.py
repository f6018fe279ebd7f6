"""Ablations of the design choices DESIGN.md calls out.

Not a paper table/figure — these benches probe the knobs the paper fixes:

* warm start vs cold start for reformulated queries (Section 6.2's trick);
* explaining-subgraph radius L (the paper picks L = 3);
* damping factor d (the paper uses 0.85);
* base-set weighting: BM25 (ObjectRank2) vs uniform (ObjectRank) vs tf-idf;
* aggregation function for multiple feedback objects (sum/min/max/avg).
"""

import pytest

from repro.core import ObjectRankSystem, SystemConfig
from repro.explain import adjust_flows, build_explaining_subgraph
from repro.ir import BM25Scorer, TfIdfScorer, UniformScorer
from repro.query import KeywordQuery, SearchEngine
from repro.ranking import objectrank2
from repro.reformulate import Reformulator, StructureReformulator

from benchmarks.conftest import write_result
from benchmarks.reporting import format_table

QUERY = "olap"


@pytest.fixture(scope="module")
def engine(request):
    dataset = request.getfixturevalue("dblp_top")
    return dataset, SearchEngine(dataset.data_graph, dataset.transfer_schema)


def test_ablation_warm_vs_cold_start(benchmark, engine):
    """Warm starts must cut ObjectRank2 iterations for reformulated queries."""
    dataset, _ = engine

    def run():
        rows = []
        for warm in (True, False):
            config = SystemConfig(top_k=10, warm_start=warm)
            system = ObjectRankSystem(
                dataset.data_graph, dataset.transfer_schema, config
            )
            result = system.query(QUERY)
            counts = [result.iterations]
            for _ in range(3):
                outcome = system.feedback([result.top[0][0]])
                result = outcome.result
                counts.append(result.iterations)
            rows.append(("warm" if warm else "cold", counts))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["start", "OR2 iterations per query"],
        [(name, " ".join(map(str, counts))) for name, counts in rows],
        title="Ablation: warm vs cold start (Section 6.2)",
    )
    write_result("ablation_warm_start", table)

    warm_counts = dict(rows)["warm"]
    cold_counts = dict(rows)["cold"]
    assert sum(warm_counts[1:]) <= sum(cold_counts[1:])


def test_ablation_radius(benchmark, engine):
    """Radius L trades subgraph size/time against captured authority."""
    dataset, shared = engine
    result = shared.search(QUERY, top_k=5)
    target = result.top[0][0]
    base_ids = list(result.ranked.base_weights)

    def run():
        rows = []
        for radius in (1, 2, 3, 4, 5):
            subgraph = build_explaining_subgraph(
                shared.graph, base_ids, target, radius
            )
            explanation = adjust_flows(subgraph, result.scores, 0.85)
            rows.append(
                (
                    radius,
                    subgraph.num_nodes,
                    subgraph.num_edges,
                    explanation.target_inflow(),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["L", "nodes", "edges", "target inflow"],
        [(r, n, e, f"{f:.3e}") for r, n, e, f in rows],
        title="Ablation: explaining-subgraph radius L",
    )
    write_result("ablation_radius", table)

    # Subgraph size and captured inflow grow monotonically with L...
    sizes = [n for _, n, _, _ in rows]
    inflows = [f for _, _, _, f in rows]
    assert sizes == sorted(sizes)
    for small, large in zip(inflows, inflows[1:]):
        assert large >= small - 1e-12
    # ...and L=3 already captures nearly all of the unbounded inflow —
    # the paper's justification for a small L.
    assert inflows[2] >= 0.8 * inflows[-1]


def test_ablation_damping(benchmark, engine):
    """Higher damping -> slower convergence but more link influence."""
    dataset, shared = engine

    def run():
        rows = []
        for damping in (0.5, 0.7, 0.85, 0.95):
            ranked = objectrank2(
                shared.graph,
                shared.scorer,
                KeywordQuery([QUERY]).vector(),
                damping=damping,
                tolerance=1e-6,
            )
            base_ids = set(ranked.base_weights)
            top20 = [nid for nid, _ in ranked.top_k(20)]
            outside = sum(1 for nid in top20 if nid not in base_ids)
            rows.append((damping, ranked.iterations, outside))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["damping d", "iterations", "top-20 hits outside base set"],
        rows,
        title="Ablation: damping factor",
    )
    write_result("ablation_damping", table)

    iterations = [i for _, i, _ in rows]
    assert iterations == sorted(iterations)  # more damping, more iterations
    outside = [o for _, _, o in rows]
    assert outside[-1] >= outside[0]  # more damping, more link influence


def test_ablation_base_set_weighting(benchmark, engine):
    """BM25 vs uniform vs tf-idf base sets (the OR2-vs-OR axis of Table 2)."""
    dataset, shared = engine
    topics = dataset.extras["paper_topics"]
    query = KeywordQuery.parse("xml indexing")

    def precision(ranking):
        papers = [nid for nid in ranking if nid in topics][:10]
        return sum(1 for nid in papers if topics[nid] in {"xml", "indexing"}) / 10

    def run():
        rows = []
        for name, scorer in (
            ("bm25", BM25Scorer(shared.index)),
            ("tfidf", TfIdfScorer(shared.index)),
            ("uniform", UniformScorer(shared.index)),
        ):
            ranked = objectrank2(shared.graph, scorer, query.vector())
            rows.append((name, precision(ranked.ranking())))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["base-set weighting", "topical precision@10"],
        [(n, f"{p:.2f}") for n, p in rows],
        title="Ablation: base-set weighting ('xml indexing')",
    )
    write_result("ablation_base_weighting", table)

    by_name = dict(rows)
    assert by_name["bm25"] >= by_name["uniform"]


def test_ablation_aggregation(benchmark, engine):
    """Section 5.3 aggregation functions: all keep rates convergent; sum and
    max weight the strongest evidence highest."""
    dataset, shared = engine
    result = shared.search(QUERY, top_k=5)
    base_ids = list(result.ranked.base_weights)
    explanations = [
        adjust_flows(
            build_explaining_subgraph(shared.graph, base_ids, nid, 3),
            result.scores,
            0.85,
        )
        for nid, _ in result.top[:3]
    ]

    def run():
        rows = []
        for how in ("sum", "min", "max", "avg"):
            reformulator = StructureReformulator(0.5, aggregation=how)
            after = reformulator.reformulate(dataset.transfer_schema, explanations)
            vector = after.as_vector()
            rows.append((how, after.is_convergent(), max(vector)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["aggregation", "convergent", "max rate"],
        [(h, c, f"{m:.3f}") for h, c, m in rows],
        title="Ablation: multi-object aggregation (Section 5.3)",
    )
    write_result("ablation_aggregation", table)

    assert all(convergent for _, convergent, _ in rows)
