"""Generic personalized PageRank by power iteration.

Everything in the authority-flow family (PageRank, topic-sensitive PageRank,
ObjectRank, ObjectRank2) is the fixpoint of

    r = d A r + (1 - d) s                                  (Equation 4 shape)

for a (sub)stochastic transition matrix ``A``, damping factor ``d`` and a
restart (base-set) distribution ``s``.  This module implements that fixpoint
once; the callers differ only in how they build ``A`` and ``s``.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np
from scipy import sparse

from repro.ranking.convergence import PowerIterationResult

DEFAULT_DAMPING = 0.85
DEFAULT_TOLERANCE = 0.0001  # convergence threshold used in Section 6.2
DEFAULT_MAX_ITERATIONS = 500


class TransitionOperator(Protocol):
    """``A`` as the loop uses it (contract: :func:`iterate`)."""

    shape: tuple[int, int]

    def __matmul__(self, vector: np.ndarray) -> np.ndarray: ...


def iterate(
    operator: TransitionOperator,
    restart: np.ndarray,
    damping: float,
    max_iterations: int,
    init: np.ndarray | None,
    stop: Callable[[np.ndarray, float], bool],
) -> PowerIterationResult:
    """``r <- d (A @ r) + (1 - d) restart`` until ``stop(r, L1 change)``.

    The one Equation 4 loop under both stopping rules (:func:`power_iteration`,
    :func:`repro.ranking.topk.topk_power_iteration`).  All it asks of ``A``
    is ``shape[0]``, the vector length, and ``A @ x`` on a float64 vector of
    it: a scipy sparse matrix, or the focused rerank's
    :class:`repro.ranking.focused.RowOperator`.
    """
    n = operator.shape[0]
    scores = (
        np.full(n, 1.0 / max(n, 1))
        if init is None
        else np.asarray(init, dtype=np.float64).copy()
    )
    jump = (1.0 - damping) * restart
    residuals: list[float] = []
    converged = False
    while not converged and len(residuals) < max_iterations:
        new_scores = damping * (operator @ scores) + jump
        residuals.append(float(np.abs(new_scores - scores).sum()))
        scores = new_scores
        converged = stop(scores, residuals[-1])
    return PowerIterationResult(scores, len(residuals), converged, residuals)


def power_iteration(
    matrix: TransitionOperator,
    restart: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> PowerIterationResult:
    """Iterate ``r <- d A r + (1 - d) restart`` until the L1 change < tolerance.

    ``matrix`` must be oriented so that ``A[j, i]`` is the rate of edge
    ``i -> j`` (see :meth:`AuthorityTransferDataGraph.matrix`).  ``init`` seeds
    the iteration — passing the previous query's scores is the warm-start
    trick of Section 6.2 ("Manipulating Initial ObjectRank values"), which the
    benchmarks show cuts the iteration count for reformulated queries.
    """
    n = matrix.shape[0]
    if restart.shape != (n,):
        raise ValueError(f"restart vector has shape {restart.shape}, expected ({n},)")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if sparse.issparse(matrix):
        matrix = matrix.tocsr()
    return iterate(
        matrix, restart, damping, max_iterations, init,
        lambda _, residual: residual < tolerance,
    )


def pagerank(
    matrix: sparse.spmatrix,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> PowerIterationResult:
    """Classic global PageRank: uniform restart over all nodes [BP98]."""
    n = matrix.shape[0]
    restart = np.full(n, 1.0 / n)
    return power_iteration(matrix, restart, damping, tolerance, max_iterations)


def restart_distribution(
    n: int,
    restart_nodes: np.ndarray,
    restart_weights: np.ndarray | None = None,
) -> np.ndarray:
    """The normalized restart vector over ``restart_nodes``.

    A node index appearing more than once (e.g. a base-set object matched by
    two keywords) *accumulates* its weight — ``np.add.at`` instead of fancy
    assignment, which would silently keep only the last occurrence's weight.
    """
    restart = np.zeros(n)
    nodes = np.asarray(restart_nodes, dtype=np.int64)
    if restart_weights is None:
        np.add.at(restart, nodes, 1.0)
    else:
        np.add.at(restart, nodes, np.asarray(restart_weights, dtype=np.float64))
    total = restart.sum()
    if total <= 0:
        raise ValueError("restart distribution is empty or non-positive")
    restart /= total
    return restart


def personalized_pagerank(
    matrix: sparse.spmatrix,
    restart_nodes: np.ndarray,
    restart_weights: np.ndarray | None = None,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> PowerIterationResult:
    """PageRank with restarts confined to ``restart_nodes``.

    ``restart_weights`` (default uniform) is normalized to sum to one — the
    paper's base-set probabilities.  Duplicate node indices accumulate weight.
    """
    restart = restart_distribution(matrix.shape[0], restart_nodes, restart_weights)
    return power_iteration(matrix, restart, damping, tolerance, max_iterations, init)
