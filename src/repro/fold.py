"""One float sum whose result does not depend on the Python version.

Builtin ``sum`` over floats is a plain left-to-right fold up to Python 3.11
and Neumaier-compensated from 3.12 on, so the same inputs can sum to
different floats on two interpreters.  Every float sum of the paper's
loop and of its evaluation goes through :func:`left_sum` instead, which
adds plainly in input order on every version: Equation 4's base-set total,
Equation 12's ``a_q``, the per-label outgoing rate sums of Equation 13
(``AuthorityTransferSchemaGraph.label_sums``), the ``sum``/``avg``
aggregation of Section 5.3, Figure 11's cosine similarity and mean rate
vectors, and the mean precision curves of Figures 10 and 12.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def left_sum(values: Iterable[float] | np.ndarray) -> float | np.ndarray:
    """``((v0 + v1) + v2) + …``: IEEE additions, left to right.

    Equal bit for bit to ``functools.reduce(operator.add, values)`` (and so
    to Python 3.11's builtin ``sum`` over floats, except that a lone
    ``-0.0`` stays ``-0.0``); ``0.0`` for no values.  An array is folded
    along its first axis with ``np.add.accumulate``, which adds strictly in
    sequence: a 1-D array gives a scalar, a ``(k, m)`` stack the ``m``
    column folds.
    """
    if isinstance(values, np.ndarray):
        if not len(values):
            return 0.0
        # As the builtin does, overflow to inf (and inf - inf to NaN) silently.
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.accumulate(values, axis=0)[-1]
        return float(total) if values.ndim == 1 else total
    iterator = iter(values)
    total = next(iterator, 0.0)
    for value in iterator:
        total += value
    return total
