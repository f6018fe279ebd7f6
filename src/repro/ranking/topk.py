"""Top-k early termination: the stop rule for a ranking only a page of.

The interactive system only ever shows the user the top-k objects, so the
power iteration can stop as soon as the *identity and order* of the top-k is
stable, well before the scores themselves converge to the tolerance — the
classic iterative-ranking optimization in the ObjectRank family.

The stopping rule: after each iteration, compare the top-k id sequence to the
previous iteration's; after :data:`STABLE_ITERATIONS` consecutive identical
sequences (and a residual below :data:`RESIDUAL_GUARD`), stop.  The guard
prevents declaring stability during the first flat iterations of a cold
start.  ``converged`` then means "top-k stable", not "residual below
tolerance", and the scores are slightly unconverged iterates: fine for
ranking, not for flow explanation — explain with exact scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ParameterError

#: Consecutive iterations the top-k sequence must repeat before stopping.
STABLE_ITERATIONS = 3
#: Stability is not counted while an iteration's L1 change is this large.
RESIDUAL_GUARD = 0.05


@dataclass(frozen=True)
class TopKStable:
    """Stop once the top-``k`` id sequence has been stable (module docstring).

    A rule over one score vector: :func:`repro.ranking.core.rank` accepts
    it for a single restart column only.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError(f"k must be positive, got {self.k}")

    def rule(self) -> Callable[[np.ndarray, float], bool]:
        """A fresh stateful stop callable for one :func:`iterate` run."""
        k = self.k
        previous_top: tuple[int, ...] | None = None
        stable = 0

        def top_ids(vector: np.ndarray) -> tuple[int, ...]:
            head = min(k, len(vector))
            if head == len(vector):
                candidates = np.arange(len(vector))
            else:
                # argpartition is O(n); only the k candidates need full sorting.
                candidates = np.argpartition(-vector, head - 1)[:head]
            order = candidates[np.argsort(-vector[candidates], kind="stable")]
            return tuple(int(i) for i in order)

        def top_k_is_stable(scores: np.ndarray, residual: float) -> bool:
            nonlocal previous_top, stable
            if residual >= RESIDUAL_GUARD:
                # Stability cannot count yet; skip the top-k extraction entirely
                # so the guard phase costs nothing beyond the matvec.
                previous_top, stable = None, 0
                return False
            current_top = top_ids(scores)
            stable = stable + 1 if current_top == previous_top else 0
            previous_top = current_top
            return stable >= STABLE_ITERATIONS

        return top_k_is_stable
