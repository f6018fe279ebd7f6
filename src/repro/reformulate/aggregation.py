"""Monotone aggregation functions for multiple feedback objects (Section 5.3).

When the user marks several objects relevant, the per-object expansion-term
weights (Equation 14) and per-edge-type flow factors (Equation 15) must be
combined.  "Typical choices are sum, min, max and average.  We use summation
in our user surveys and experiments."  All four are provided; the ablation
benchmark compares them.

Both equations keep their weights as arrays over a fixed key space (the
node-term vocabulary, the graph's edge types), one row per feedback object
with a presence mask, and :func:`aggregate_arrays` combines the rows column
by column; :func:`top_weights` then picks Equation 14's top-Z terms without
sorting the vocabulary.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fold import left_sum

#: Name -> the aggregator over one key's present values, in feedback order.
#: The definition :func:`aggregate_arrays` reproduces bit for bit; ``sum``
#: and ``avg`` fold left to right (:func:`~repro.fold.left_sum`), the same
#: floats on every Python version.
AGGREGATORS: dict[str, Callable[[list[float]], float]] = {
    "sum": left_sum,
    "min": min,
    "max": max,
    "avg": lambda values: left_sum(values) / len(values),
}


def aggregate_arrays(
    stack: np.ndarray, present: np.ndarray, how: str = "sum"
) -> np.ndarray:
    """Combine the rows of ``stack`` column by column with ``how``.

    ``stack`` is ``(k, m)``: row ``i`` holds feedback object ``i``'s weight
    per key, and ``present`` (same shape, bool) says which keys it has.  An
    absent key is absent, not zero: ``min`` over {a: 1} and {a: 2, b: 3}
    gives {a: 1, b: 3}.  Each column of the result is ``AGGREGATORS[how]``
    over the column's present values in row order, bit for bit: ``sum`` and
    ``avg`` fold with absent entries as ``-0.0``, which every addition
    leaves unchanged; ``min`` and ``max`` replace the running value exactly
    where builtin ``min``/``max`` would (a later value strictly below or
    above it), NaN included.  A column no row has is meaningless.

    Raises :class:`~repro.errors.ParameterError` when a combined value is
    NaN (non-finite Equation 10 flows, from rates whose outgoing sums
    exceed 1): no order of the keys is then defined.
    """
    if how not in AGGREGATORS:
        raise ValueError(f"unknown aggregation {how!r}; known: {sorted(AGGREGATORS)}")
    if how in ("sum", "avg"):
        combined = left_sum(np.where(present, stack, -0.0))
        if how == "avg":
            combined = combined / np.maximum(present.sum(axis=0), 1)
    else:
        replaces = np.less if how == "min" else np.greater
        combined = stack[0].copy()
        seen = present[0].copy()
        for row, has in zip(stack[1:], present[1:]):
            take = has & (~seen | replaces(row, combined))
            combined[take] = row[take]
            seen |= has
    if np.isnan(combined[present.any(axis=0)]).any():
        raise ParameterError(
            "the feedback objects' flows aggregate to NaN: the explaining "
            "flows are not finite"
        )
    return combined


def top_weights(
    weights: np.ndarray, keys: np.ndarray, names: Sequence[str], count: int
) -> list[tuple[str, float]]:
    """The ``count`` largest ``weights`` as ``(names[key], weight)`` pairs.

    Ordered by ``(-weight, name)``: exactly ``sorted(pairs, key=...)[:count]``
    over all pairs.  ``np.partition`` finds the ``count``-th largest weight,
    every weight at or above it survives (ties at the boundary included),
    and only the survivors are sorted.  ``weights`` holds no NaN
    (:func:`aggregate_arrays`).
    """
    if 0 < count < weights.size:
        cut = weights.size - count
        survive = weights >= np.partition(weights, cut)[cut]
        weights, keys = weights[survive], keys[survive]
    pairs = zip(map(names.__getitem__, keys.tolist()), weights.tolist())
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))[: max(count, 0)]
