"""Result types and convergence accounting for iterative rankings.

The paper's performance study reports the *number of iterations* ObjectRank2
needs for initial vs. reformulated queries (Figures 14b-17b) and for the
explaining fixpoint (Table 3), so every iterative routine in this package
returns its iteration count and residual trace alongside the scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PowerIterationResult:
    """Outcome of one power-iteration run.

    ``residuals`` holds the L1 change of the score vector after each
    iteration, so convergence curves can be plotted or asserted on.
    """

    scores: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)

    @property
    def residual(self) -> float:
        """Final residual (L1 change of the last iteration)."""
        return self.residuals[-1] if self.residuals else 0.0


def top_k_order(scores: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-scores, kind="stable")[:k]`` without sorting the rest.

    ``partition`` finds the ``k``-th largest score; everything at or above it
    survives — all ties at the boundary included — and only the survivors are
    stable-sorted.  Survivors are taken in index order, so ties break by
    index exactly as in the full sort.
    """
    n = scores.size
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k < n:
        survivors = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    else:
        survivors = np.arange(n)
    return survivors[np.argsort(-scores[survivors], kind="stable")[:k]]


@dataclass
class RankedResult:
    """A ranking over the nodes of an authority transfer data graph."""

    node_ids: list[str]
    scores: np.ndarray
    iterations: int
    converged: bool
    base_weights: dict[str, float] = field(default_factory=dict)
    residuals: list[float] = field(default_factory=list)

    def score_of(self, node_id: str) -> float:
        # O(n) lookup is fine for tests/examples; hot paths use the array.
        return float(self.scores[self.node_ids.index(node_id)])

    def top_k(
        self, k: int, within: np.ndarray | None = None
    ) -> list[tuple[str, float]]:
        """The ``k`` highest-scored nodes as ``(node_id, score)`` pairs.

        Ties are broken by node order (deterministic for a fixed graph).
        ``within`` (ascending node indices) restricts the selection to those
        nodes — the rows :meth:`ranking` would list, filtered, then cut.
        """
        if within is None:
            order = top_k_order(self.scores, k)
        else:
            order = within[top_k_order(self.scores[within], k)]
        return [(self.node_ids[i], float(self.scores[i])) for i in order]

    def ranking(self) -> list[str]:
        """All node ids in descending score order."""
        order = np.argsort(-self.scores, kind="stable")
        return [self.node_ids[i] for i in order]
