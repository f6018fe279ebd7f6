"""Evaluation metrics for the survey experiments (Section 6.1).

The paper reports average precision of the top-k ("the recall is the same as
the precision in our case since we limit the output results to k") and, for
rate training, cosine similarity between the learned and ground-truth rate
vectors (Figure 11).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.fold import left_sum


def precision_at_k(retrieved: Sequence[str], relevant: set[str], k: int) -> float:
    """Fraction of the first ``k`` retrieved items that are relevant."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    head = list(retrieved)[:k]
    if not head:
        return 0.0
    hits = sum(1 for item in head if item in relevant)
    return hits / k


def recall_at_k(retrieved: Sequence[str], relevant: set[str], k: int) -> float:
    """Fraction of relevant items found in the first ``k`` retrieved."""
    if not relevant:
        return 0.0
    head = list(retrieved)[:k]
    hits = sum(1 for item in head if item in relevant)
    return hits / len(relevant)


def average_precision(retrieved: Sequence[str], relevant: set[str]) -> float:
    """Mean of precision values at each relevant hit (classic AP)."""
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, item in enumerate(retrieved, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def reciprocal_rank(retrieved: Sequence[str], relevant: set[str]) -> float:
    """1/rank of the first relevant hit (0 when none)."""
    for rank, item in enumerate(retrieved, start=1):
        if item in relevant:
            return 1.0 / rank
    return 0.0


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine of the angle between two equal-length vectors.

    The Figure 11 training metric: cos(ObjVector, UserVector).  Zero vectors
    have similarity 0 by convention.
    """
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    dot = left_sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(left_sum(x * x for x in a))
    norm_b = math.sqrt(left_sum(y * y for y in b))
    # Norms are non-negative by construction; <= states that, and catches a
    # denormal-underflow zero the exact == comparison was never going to.
    if norm_a <= 0.0 or norm_b <= 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def kendall_tau(first: Sequence[str], second: Sequence[str]) -> float:
    """Kendall rank correlation between two rankings of the same items.

    1.0 = identical order, -1.0 = reversed.  Items missing from either
    ranking are ignored; fewer than two common items gives 0 by convention.
    Used to quantify how much a reformulation (or an approximation such as
    focused execution) perturbs a ranking.
    """
    positions_first = {item: i for i, item in enumerate(first)}
    positions_second = {item: i for i, item in enumerate(second)}
    common = [item for item in first if item in positions_second]
    n = len(common)
    if n < 2:
        return 0.0
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = positions_first[common[i]] - positions_first[common[j]]
            b = positions_second[common[i]] - positions_second[common[j]]
            if a * b > 0:
                concordant += 1
            elif a * b < 0:
                discordant += 1
    total = n * (n - 1) / 2
    return (concordant - discordant) / total


def spearman_footrule(first: Sequence[str], second: Sequence[str]) -> float:
    """Normalized Spearman footrule distance between two rankings.

    0.0 = identical positions for all common items, 1.0 = maximal
    displacement.  Complements :func:`kendall_tau` with a displacement-based
    (rather than inversion-based) view.
    """
    positions_second = {item: i for i, item in enumerate(second)}
    common = [item for item in first if item in positions_second]
    n = len(common)
    if n < 2:
        return 0.0
    first_ranks = {item: i for i, item in enumerate(common)}
    second_order = sorted(common, key=lambda item: positions_second[item])
    second_ranks = {item: i for i, item in enumerate(second_order)}
    displacement = sum(abs(first_ranks[i] - second_ranks[i]) for i in common)
    maximum = (n * n) // 2  # the footrule maximum: floor(n^2 / 2)
    return displacement / maximum
