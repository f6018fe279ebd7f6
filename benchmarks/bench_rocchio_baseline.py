"""Extension benchmark: traditional Rocchio feedback vs link-based feedback.

The related-work section argues that classic term-selection feedback
("[Efth93, Har88, MSB98, ...] works well for traditional IR which is
content-based.  For link-based metrics like ObjectRank this yields poor
results") — the justification for the paper's structure-based reformulation.
This benchmark makes the claim concrete on our corpus: four feedback
strategies drive the same session protocol, judged by the same oracle:

* ``rocchio+ir``: Rocchio query expansion re-ranking with *pure IR*
  (the fully traditional pipeline);
* ``rocchio+or2``: Rocchio expansion feeding ObjectRank2 (terms only);
* ``content-or2``: the paper's content-based reformulation (C_e=0.2);
* ``structure-or2``: the paper's structure-based reformulation (C_f=0.5).
"""

import statistics

from repro.core import ObjectRankSystem, SystemConfig
from repro.feedback import (
    ResidualCollection,
    RocchioReformulator,
    SimulatedUser,
)
from repro.graph import AuthorityTransferSchemaGraph
from repro.query import SearchEngine
from repro.ranking import ir_only_rank

from benchmarks.conftest import write_result
from benchmarks.reporting import format_series

QUERIES = ["olap", "xml", "mining"]
ITERATIONS = 3
K = 10
DEPTH = 60


def _session_rocchio(engine, user, query, use_objectrank):
    rocchio = RocchioReformulator(num_terms=5)
    residual = ResidualCollection()
    relevant = user.relevant_set(query)
    vector = engine.query_vector(query)
    precisions = []
    for _ in range(ITERATIONS + 1):
        if use_objectrank:
            ranked = engine.search(vector, top_k=K).ranked
        else:
            ranked = ir_only_rank(engine.graph, engine.scorer, vector)
        ranking = ranked.ranking()
        presented = residual.present(ranking, K)
        precisions.append(residual.precision(ranking, relevant, K))
        marked = user.judge(presented, query)
        residual.mark_seen(presented)
        vector = rocchio.reformulate(vector, engine.index, marked)
    return precisions


def _session_paper(engine, user, query, config, dataset, initial_rates):
    from repro.feedback import run_feedback_session

    system = ObjectRankSystem(dataset.data_graph, initial_rates, config, engine=engine)
    return run_feedback_session(system, user, query, ITERATIONS, K).precisions


def run_comparison(dataset):
    initial_rates = AuthorityTransferSchemaGraph(dataset.schema, default_rate=0.3)
    engine = SearchEngine(dataset.data_graph, initial_rates)
    user = SimulatedUser(engine, dataset.ground_truth_rates, relevance_depth=DEPTH)

    curves = {}
    for name in ("rocchio+ir", "rocchio+or2", "content-or2", "structure-or2"):
        per_query = []
        for query in QUERIES:
            if name == "rocchio+ir":
                per_query.append(_session_rocchio(engine, user, query, False))
            elif name == "rocchio+or2":
                per_query.append(_session_rocchio(engine, user, query, True))
            elif name == "content-or2":
                per_query.append(
                    _session_paper(
                        engine, user, query,
                        SystemConfig.content_only(top_k=K), dataset, initial_rates,
                    )
                )
            else:
                per_query.append(
                    _session_paper(
                        engine, user, query,
                        SystemConfig.structure_only(top_k=K), dataset, initial_rates,
                    )
                )
        curves[name] = [
            sum(session[i] for session in per_query) / len(per_query)
            for i in range(ITERATIONS + 1)
        ]
    return curves


def test_rocchio_vs_link_based_feedback(benchmark, dblp_top):
    curves = benchmark.pedantic(run_comparison, args=(dblp_top,), rounds=1, iterations=1)

    lines = ["Extension: traditional (Rocchio) vs link-based feedback"]
    for name, curve in curves.items():
        lines.append("  " + format_series(name, range(len(curve)), curve))
    write_result("rocchio_baseline", "\n".join(lines))

    def mean_reformulated(name):
        return statistics.mean(curves[name][1:])

    # The related-work claim: structure-based (link-aware) feedback beats any
    # purely term-based strategy under the same judge and budget.
    assert mean_reformulated("structure-or2") > mean_reformulated("rocchio+or2")
    assert mean_reformulated("structure-or2") > mean_reformulated("rocchio+ir")
    # Honest side observation (recorded, not from the paper): with *untrained*
    # transfer rates, ObjectRank2 under term-only feedback can do worse than
    # plain IR — wrong rates actively misroute authority, and no amount of
    # term reweighting fixes them.  Only the structure-based component can,
    # which is exactly the paper's argument for it.
    assert mean_reformulated("structure-or2") > 2 * mean_reformulated("rocchio+or2")
