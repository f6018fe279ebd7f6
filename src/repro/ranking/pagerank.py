"""The single-vector Equation 4 loop, its tolerance stop and its parameters.

Everything in the authority-flow family (PageRank, topic-sensitive PageRank,
ObjectRank, ObjectRank2) is the fixpoint of

    r = d A r + (1 - d) s                                  (Equation 4 shape)

for a (sub)stochastic transition matrix ``A``, damping factor ``d`` and a
restart (base-set) distribution ``s``.  This module holds the loop that
iterates it for one restart vector; :func:`repro.ranking.core.rank` is the
one caller, and the variants differ only in the restart block they hand it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.errors import ParameterError
from repro.graph.transfer_graph import AuthorityTransferDataGraph, SellMatrix
from repro.ranking import _native
from repro.ranking.convergence import PowerIterationResult

DEFAULT_DAMPING = 0.85
DEFAULT_TOLERANCE = 0.0001  # convergence threshold used in Section 6.2
DEFAULT_MAX_ITERATIONS = 500


def check_damping(damping: float) -> None:
    """Refuse a damping factor outside ``(0, 1)``: at 1 or above the
    fixpoint does not exist, at 0 or below there is no authority flow."""
    if not 0.0 < damping < 1.0:
        raise ParameterError(f"damping must be in (0, 1), got {damping}")


def check_max_iterations(max_iterations: int) -> None:
    """Refuse a fixpoint cut-off below one iteration: there would be no
    residual to report and nothing but the start vector to return."""
    if max_iterations < 1:
        raise ParameterError(
            f"max_iterations must be at least 1, got {max_iterations}"
        )


@dataclass(frozen=True)
class Tolerance:
    """Stop once an iteration's L1 change is below ``tolerance``."""

    tolerance: float = DEFAULT_TOLERANCE

    def rule(self) -> Callable[[np.ndarray, float], bool]:
        """The stop callable :func:`iterate` asks after every step."""
        tolerance = self.tolerance
        return lambda _scores, residual: residual < tolerance


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

    The one single-vector Equation 4 loop under every stop rule
    (:class:`Tolerance`, :class:`repro.ranking.topk.TopKStable`); its
    caller, :func:`repro.ranking.core.rank`, has checked ``damping`` and
    ``max_iterations``.  All it asks of ``A``
    is ``shape[0]``, the vector length, and ``A @ x`` on a float64 vector of
    it: a scipy sparse matrix, or the focused rerank's
    :class:`repro.ranking.focused.RowOperator`.  A
    :class:`~repro.graph.transfer_graph.SellMatrix` (:func:`live_operator`)
    is stepped by the compiled kernel when the process has it — same
    floats, and the residual is the same numpy sum over the same
    differences.  ``stop`` must not keep the vector it is shown: the kernel
    reuses its buffers.
    """
    n = operator.shape[0]
    if restart.shape != (n,):
        raise ValueError(f"restart vector has shape {restart.shape}, expected ({n},)")
    if init is not None and np.shape(init) != (n,):
        raise ValueError(f"init has shape {np.shape(init)}, expected ({n},)")
    scores = (
        np.full(n, 1.0 / max(n, 1))
        if init is None
        else np.asarray(init, dtype=np.float64).copy()
    )
    jump = (1.0 - damping) * restart
    step = (
        _native.bind_sell_step(operator, jump, damping, scores)
        if isinstance(operator, SellMatrix)
        else None
    )
    residuals: list[float] = []
    converged = False
    while not converged and len(residuals) < max_iterations:
        if step is None:
            new_scores = damping * (operator @ scores) + jump
            difference = np.abs(new_scores - scores)
        else:
            new_scores, difference = step()
        residuals.append(float(difference.sum()))
        scores = new_scores
        converged = stop(scores, residuals[-1])
    return PowerIterationResult(scores, len(residuals), converged, residuals)


def live_operator(graph: AuthorityTransferDataGraph) -> TransitionOperator:
    """``graph``'s transition matrix as a full live run should iterate it:
    its :meth:`~AuthorityTransferDataGraph.sell_matrix` when the compiled
    kernel is there to step it, else the CSR :meth:`matrix` (a process
    without the kernel never builds the layout)."""
    return graph.sell_matrix() if _native.available() else graph.matrix()
