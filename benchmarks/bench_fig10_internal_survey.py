"""Figure 10: internal survey — average precision per reformulation setting.

Paper setup (Section 6.1.1): DBLPtop, five database researchers, residual
collection evaluation, three calibration settings across the initial query
plus four reformulated queries:

    Content-Only          (C_f = 0,   C_e = 0.2)
    Content & Structure   (C_f = 0.5, C_e = 0.2)
    Structure-Only        (C_f = 0.5, C_e = 0)

Paper finding: "the structure-only reformulation performs the best.  Content
based reformulation is not effective in our setting" — precision roughly
20-45%, with structure-only on top after the first reformulations.

Our substitution: simulated expert users whose hidden relevance model is
ObjectRank2 under the [BHP04] ground-truth rates (DESIGN.md, substitutions).
The shape to reproduce is the *ordering* of the three curves and the
improvement of structure-based reformulation over the feedback iterations.
"""

import statistics

from repro.core import ObjectRankSystem, SystemConfig
from repro.feedback import SimulatedUser, average_precision_curve, run_feedback_session
from repro.graph import AuthorityTransferSchemaGraph
from repro.query import SearchEngine

from benchmarks.conftest import write_result
from benchmarks.reporting import ascii_chart, format_series

QUERIES = ["olap", "xml", "mining", "streams", "ranked search"]
USER_SEEDS = [0, 1]
FEEDBACK_ITERATIONS = 4
PRESENTED_K = 10
RELEVANCE_DEPTH = 60

SETTINGS = [
    ("content-only", SystemConfig.content_only(top_k=PRESENTED_K)),
    ("content+structure", SystemConfig.content_and_structure(top_k=PRESENTED_K)),
    ("structure-only", SystemConfig.structure_only(top_k=PRESENTED_K)),
]


def run_survey(dataset):
    """All sessions for all settings; returns setting -> precision curve."""
    initial_rates = AuthorityTransferSchemaGraph(dataset.schema, default_rate=0.3)
    engine = SearchEngine(dataset.data_graph, initial_rates)
    curves = {}
    for name, config in SETTINGS:
        traces = []
        for seed in USER_SEEDS:
            user = SimulatedUser(
                engine,
                dataset.ground_truth_rates,
                relevance_depth=RELEVANCE_DEPTH,
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
        curves[name] = average_precision_curve(traces)
    return curves


def test_fig10_internal_survey(benchmark, dblp_top):
    curves = benchmark.pedantic(run_survey, args=(dblp_top,), rounds=1, iterations=1)

    lines = ["Figure 10: internal survey, average precision per iteration",
             f"  ({len(QUERIES)} queries x {len(USER_SEEDS)} users, residual collection,"
             f" k={PRESENTED_K}, L=3)"]
    iterations = list(range(FEEDBACK_ITERATIONS + 1))
    for name, curve in curves.items():
        lines.append("  " + format_series(name, iterations, curve))
    lines.append("")
    lines.append(ascii_chart(curves, y_min=0.0, y_max=1.0,
                             title="  precision@10 per iteration"))
    write_result("fig10_internal_survey", "\n".join(lines))

    def reformulated_mean(name):
        return statistics.mean(curves[name][1:])

    # Paper shape 1: structure-only is the best reformulation strategy.
    assert reformulated_mean("structure-only") > reformulated_mean("content-only")
    # Paper shape 2: adding structure to content always helps content.
    assert reformulated_mean("content+structure") > reformulated_mean("content-only")
    # Paper shape 3: structure-based reformulation holds precision high
    # across iterations (content-only collapses under residual evaluation).
    assert min(curves["structure-only"][1:3]) > curves["content-only"][2]
