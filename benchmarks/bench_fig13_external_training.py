"""Figure 13: external-survey training of authority transfer rates.

Paper setup: like Figure 11 but driven by the external users' feedback; the
paper notes the curves "are similar to those in the internal survey".  We
therefore run the same protocol with noisy simulated users (10% judgment
noise) and check that the Figure 11 shapes survive the noise.
"""

from repro.datasets import dblp_edge_order
from repro.feedback import train_transfer_rates

from benchmarks.conftest import write_result
from benchmarks.reporting import format_series

QUERIES = ["olap", "mining", "xml", "distributed"]
ADJUSTMENT_FACTORS = [0.3, 0.5, 0.9]
ITERATIONS = 5
NOISE = 0.1


def run_training(dataset):
    order = dblp_edge_order(dataset.schema)
    return [
        train_transfer_rates(
            dataset,
            QUERIES,
            adjustment_factor=factor,
            iterations=ITERATIONS,
            edge_order=order,
            user_noise=NOISE,
            user_seed=21,
        )
        for factor in ADJUSTMENT_FACTORS
    ]


def test_fig13_external_training(benchmark, dblp_top):
    curves = benchmark.pedantic(run_training, args=(dblp_top,), rounds=1, iterations=1)

    lines = [
        "Figure 13: external-survey rate training (noisy users)",
        f"  (DBLPtop, {len(QUERIES)} queries, noise={NOISE})",
    ]
    for curve in curves:
        lines.append(
            "  "
            + format_series(
                f"Cf={curve.adjustment_factor}",
                range(len(curve.similarities)),
                curve.similarities,
            )
            + f"   peak@{curve.peak_iteration}"
        )
    write_result("fig13_external_training", "\n".join(lines))

    # Same shape as Figure 11, surviving judgment noise: training beats the
    # untrained vector for every C_f.
    for curve in curves:
        assert max(curve.similarities) > curve.similarities[0] + 0.01
    # The peak iteration is still non-increasing in C_f.
    peaks = [curve.peak_iteration for curve in curves]
    assert peaks == sorted(peaks, reverse=True), peaks
