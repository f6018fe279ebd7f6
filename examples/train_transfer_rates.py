#!/usr/bin/env python3
"""Training authority transfer rates from user feedback (Figure 11).

ObjectRank's transfer rates were set "manually by a domain expert on a trial
and error basis" [BHP04].  This example shows the paper's alternative: start
every rate at 0.3, let a (simulated) user mark relevant results, and let
structure-based reformulation learn the rates.  It prints the cosine
similarity to the expert ground truth after each feedback iteration, for
several values of the adjustment factor C_f — reproducing the rise-then-
overfit shape of Figure 11.

Usage:  python examples/train_transfer_rates.py
"""

from repro.datasets import dblp_edge_order, load_dataset
from repro.feedback import train_transfer_rates


def main() -> None:
    dataset = load_dataset("dblp_tiny")
    order = dblp_edge_order(dataset.schema)
    queries = ["olap", "mining", "xml"]
    iterations = 5

    print("Training curves: cosine(UserVector, ObjVector) per iteration")
    print(f"  queries: {queries}, {iterations} feedback iterations each\n")
    curves = []
    for adjustment_factor in (0.1, 0.3, 0.5, 0.7, 0.9):
        curve = train_transfer_rates(
            dataset,
            queries,
            adjustment_factor=adjustment_factor,
            iterations=iterations,
            edge_order=order,
        )
        curves.append(curve)
        points = "  ".join(f"{i}={sim:.4g}" for i, sim in enumerate(curve.similarities))
        print(
            f"Cf={adjustment_factor}: {points}"
            f"   (peak at iteration {curve.peak_iteration})"
        )

    best = max(curves, key=lambda c: max(c.similarities))
    print(f"\nBest run: Cf={best.adjustment_factor}")
    names = ["PP", "PPb", "PA", "AP", "CY", "YC", "YP", "PY"]
    learned = best.rate_vectors[best.peak_iteration]
    truth = dataset.ground_truth_rates.as_vector(order)
    print("  edge type | learned | expert")
    for name, l, t in zip(names, learned, truth):
        print(f"     {name:4s}   |  {l:.3f}  | {t:.3f}")


if __name__ == "__main__":
    main()
