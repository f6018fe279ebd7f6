"""Figure 11: training the authority transfer rates (internal survey).

Paper setup: rates initialized to 0.3; structure-only feedback (C_e = 0);
after each of six iterations the learned ``UserVector`` is compared to the
[BHP04] ground truth ``ObjVector = [0.7, 0, 0.2, 0.2, 0.3, 0.3, 0.3, 0.1]``
by cosine similarity, for C_f in {0.1, 0.3, 0.5, 0.7, 0.9}.

Paper findings to reproduce:
* similarity rises with iterations, then flattens/declines (overfitting);
* larger C_f values peak in fewer iterations ("larger C_f values lead to
  faster peak, since the adjustment of the rates is less smooth").
"""

from repro.datasets import dblp_edge_order
from repro.feedback import train_transfer_rates

from benchmarks.conftest import write_result
from benchmarks.reporting import ascii_chart, format_series

QUERIES = ["olap", "mining", "xml", "streams"]
ADJUSTMENT_FACTORS = [0.1, 0.3, 0.5, 0.7, 0.9]
ITERATIONS = 5


def run_training(dataset):
    order = dblp_edge_order(dataset.schema)
    return [
        train_transfer_rates(
            dataset,
            QUERIES,
            adjustment_factor=factor,
            iterations=ITERATIONS,
            edge_order=order,
        )
        for factor in ADJUSTMENT_FACTORS
    ]


def test_fig11_rate_training(benchmark, dblp_top):
    curves = benchmark.pedantic(run_training, args=(dblp_top,), rounds=1, iterations=1)

    lines = [
        "Figure 11: cosine(UserVector, ObjVector) per training iteration",
        f"  (DBLPtop, {len(QUERIES)} queries, structure-only, rates init 0.3)",
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
    lines.append("")
    lines.append(
        ascii_chart(
            {f"Cf={c.adjustment_factor}": c.similarities for c in curves},
            y_min=0.78,
            y_max=1.0,
            title="  cosine similarity per iteration",
        )
    )
    write_result("fig11_training", "\n".join(lines))

    # Shape 1: training helps — every C_f beats the untrained similarity.
    for curve in curves:
        assert max(curve.similarities) > curve.similarities[0] + 0.01

    # Shape 2: similarity rises then flattens/overfits; the largest C_f must
    # show the overfitting drop from its peak by the final iteration.
    sharpest = curves[-1]
    assert sharpest.similarities[-1] <= max(sharpest.similarities)

    # Shape 3: the peak iteration is non-increasing in C_f.
    peaks = [curve.peak_iteration for curve in curves]
    assert peaks == sorted(peaks, reverse=True), peaks
