"""Figure 12: external survey — structure-only average precision.

Paper setup (Section 6.1.2): DBLPtop, structure-only reformulation
(C_f = 0.5), 20 queries by 10 external users (database researchers at IBM TJ
Watson/Almaden), 5 iterations.  The precision curve sits lower than the
internal survey's (external users are stricter/noisier) but keeps the same
shape: precision holds or improves over the reformulation iterations.

Our substitution: more user seeds than Figure 10 plus judgment noise of 10%
— external judges disagree with the hidden relevance model more often than
the internal "domain expert" oracle does.
"""

import statistics

from repro.core import ObjectRankSystem, SystemConfig
from repro.feedback import SimulatedUser, average_precision_curve, run_feedback_session
from repro.graph import AuthorityTransferSchemaGraph
from repro.query import SearchEngine

from benchmarks.conftest import write_result
from benchmarks.reporting import format_series

QUERIES = ["olap", "xml", "mining", "distributed"]
USER_SEEDS = [10, 11, 12, 13, 14]
NOISE = 0.1
FEEDBACK_ITERATIONS = 4
PRESENTED_K = 10
RELEVANCE_DEPTH = 60


def run_survey(dataset):
    initial_rates = AuthorityTransferSchemaGraph(dataset.schema, default_rate=0.3)
    engine = SearchEngine(dataset.data_graph, initial_rates)
    config = SystemConfig.structure_only(top_k=PRESENTED_K)
    traces = []
    for seed in USER_SEEDS:
        user = SimulatedUser(
            engine,
            dataset.ground_truth_rates,
            relevance_depth=RELEVANCE_DEPTH,
            noise=NOISE,
            seed=seed,
        )
        for query in QUERIES:
            system = ObjectRankSystem(
                dataset.data_graph, initial_rates, config, engine=engine
            )
            traces.append(
                run_feedback_session(
                    system, user, query, FEEDBACK_ITERATIONS, PRESENTED_K
                )
            )
    return average_precision_curve(traces)


def test_fig12_external_survey(benchmark, dblp_top):
    curve = benchmark.pedantic(run_survey, args=(dblp_top,), rounds=1, iterations=1)

    lines = [
        "Figure 12: external survey, structure-only (Cf=0.5) average precision",
        f"  ({len(QUERIES)} queries x {len(USER_SEEDS)} users, noise={NOISE})",
        "  " + format_series("structure-only", range(len(curve)), curve),
    ]
    write_result("fig12_external_survey", "\n".join(lines))

    # Shape 1: reformulation keeps precision in a useful band — the mean of
    # the reformulated iterations is at least 60% of the initial precision
    # (the paper's curve moves within ~27%-37%, never collapsing).
    assert statistics.mean(curve[1:]) > 0.6 * curve[0]
    # Shape 2: at least one reformulated iteration improves on the first
    # reformulation (the curve is not monotonically decaying).
    assert max(curve[2:]) >= curve[1] - 0.05
