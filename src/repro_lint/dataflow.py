"""A generic worklist fixpoint solver over join-semilattices.

:func:`solve` runs any forward :class:`DataflowProblem` over a
:class:`~repro_lint.cfg.ControlFlowGraph` until the per-block states stop
changing, with a hard bound on worklist iterations (the "widening cap"): a
problem whose lattice has unbounded ascending chains still terminates, it
just reports ``converged=False`` and checkers treat its states as unusable
rather than wrong.  That discipline is the same one the paper's Theorem 1
imposes on the authority-flow fixpoints this package audits — a
convergence loop must either contract or be cut off.

Its one instance is the interval analysis of :mod:`repro_lint.absint`.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro_lint.cfg import BasicBlock, BlockItem, ControlFlowGraph

#: Per-block visit bound multiplier: a solve may touch each block at most
#: ``WIDENING_CAP`` times before it is declared non-convergent.  The
#: interval domain has infinite chains (``b -= 1`` in a loop lowers a bound
#: forever), so the cap, not the lattice, is what makes every solve stop.
WIDENING_CAP = 64


class DataflowProblem:
    """One analysis: lattice operations + transfer functions.

    Subclasses define the lattice by ``initial()`` (the pre-fixpoint state
    of unvisited blocks), ``boundary()`` (the state entering the graph) and
    ``join``; the semantics by ``transfer_item`` (one block item at a time,
    in execution order — the solver folds it over a block's body) and
    optionally ``transfer_test`` (the block's branch condition, evaluated
    after the body).  ``refine_edge`` splits state by branch outcome
    (``true``/``false`` edge labels) — how RL015's value domain learns that
    ``total`` is positive on the true edge of ``total > 0``.
    """

    def initial(self) -> Any:
        raise NotImplementedError

    def boundary(self) -> Any:
        return self.initial()

    def join(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def transfer_item(self, item: BlockItem, state: Any) -> Any:
        return state

    def transfer_test(self, test: ast.expr, state: Any) -> Any:
        return state

    def refine_edge(self, block: BasicBlock, label: str, state: Any) -> Any:
        return state

    # -- derived ------------------------------------------------------------

    def transfer_block(self, block: BasicBlock, state: Any) -> Any:
        for item in block.body:
            state = self.transfer_item(item, state)
        if block.test is not None:
            state = self.transfer_test(block.test, state)
        return state


@dataclass
class Solution:
    """Per-block fixpoint states plus solver accounting."""

    problem: DataflowProblem
    #: block index -> state at block entry.
    inputs: dict[int, Any] = field(default_factory=dict)
    #: block index -> state at block exit.
    outputs: dict[int, Any] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True

    def state_into(self, block: BasicBlock | int) -> Any:
        index = block.index if isinstance(block, BasicBlock) else block
        return self.inputs[index]

    def state_out_of(self, block: BasicBlock | int) -> Any:
        index = block.index if isinstance(block, BasicBlock) else block
        return self.outputs[index]

    def states_through(self, block: BasicBlock) -> list[Any]:
        """The state *before* each item of ``block.body``.

        Re-walks the block from its fixpoint input, so checkers can pair
        every item with the dataflow facts that hold exactly there.
        """
        states = []
        state = self.inputs[block.index]
        for item in block.body:
            states.append(state)
            state = self.problem.transfer_item(item, state)
        return states


def solve(
    cfg: ControlFlowGraph,
    problem: DataflowProblem,
    widening_cap: int = WIDENING_CAP,
) -> Solution:
    """Run ``problem`` to fixpoint over ``cfg`` with bounded iterations."""
    solution = Solution(problem=problem)
    start = cfg.entry.index

    for block in cfg.blocks:
        solution.inputs[block.index] = problem.initial()
        solution.outputs[block.index] = problem.initial()
    solution.inputs[start] = problem.boundary()
    solution.outputs[start] = problem.transfer_block(
        cfg.blocks[start], solution.inputs[start]
    )

    worklist = deque(block.index for block in cfg.blocks)
    queued = set(worklist)
    visits = [0] * len(cfg.blocks)
    max_visits = max(1, widening_cap)

    while worklist:
        index = worklist.popleft()
        queued.discard(index)
        block = cfg.blocks[index]
        solution.iterations += 1
        visits[index] += 1
        if visits[index] > max_visits:
            solution.converged = False
            break

        state = problem.boundary() if index == start else problem.initial()
        for edge in cfg.predecessors(block):
            incoming = problem.refine_edge(
                cfg.blocks[edge.source], edge.label, solution.outputs[edge.source]
            )
            state = problem.join(state, incoming)
        solution.inputs[index] = state
        out = problem.transfer_block(block, state)
        if out == solution.outputs[index]:
            continue
        solution.outputs[index] = out
        for edge in cfg.successors(block):
            if edge.target not in queued:
                queued.add(edge.target)
                worklist.append(edge.target)
    return solution
