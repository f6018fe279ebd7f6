"""A generic worklist fixpoint solver over join-semilattices.

:func:`solve` runs any :class:`DataflowProblem` — forward or backward —
over a :class:`~repro_lint.cfg.ControlFlowGraph` until the per-block
states stop changing, with a hard bound on worklist iterations (the
"widening cap"): a problem whose lattice has unbounded ascending chains
still terminates, it just reports ``converged=False`` and checkers treat
its states as unusable rather than wrong.  That discipline is the same one
the paper's Theorem 1 imposes on the authority-flow fixpoints this package
audits — a convergence loop must either contract or be cut off.

Two classic instances ship here because the flow-sensitive checkers need
them: :class:`ReachingDefinitions` (RL007 resolves ``lock = self._x_lock``
aliases through it) and :class:`LiveVariables` (backward direction's
reference instance, exercised by the property suite).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro_lint.cfg import (
    BasicBlock,
    BlockItem,
    ControlFlowGraph,
    Header,
    WithEnter,
    WithExit,
    assigned_names,
)

#: Per-block visit bound multiplier: a solve may touch each block at most
#: ``WIDENING_CAP`` times before it is declared non-convergent.  Real
#: lattices here (finite powersets) settle in a handful of passes; the cap
#: only exists so a buggy transfer function cannot hang the linter.
WIDENING_CAP = 64


class DataflowProblem:
    """One analysis: lattice operations + transfer functions.

    Subclasses define the lattice by ``initial()`` (the pre-fixpoint state
    of unvisited blocks), ``boundary()`` (the state entering the graph) and
    ``join``; the semantics by ``transfer_item`` (one block item at a time,
    in execution order — the solver folds it over a block's body) and
    optionally ``transfer_test`` (the block's branch condition, evaluated
    after the body).  ``refine_edge`` lets a forward problem split state by
    branch outcome (``true``/``false`` edge labels) — how RL015's value
    domain learns that ``total`` is positive on the true edge of ``total > 0``.
    """

    direction: str = "forward"

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
        if self.direction == "forward":
            for item in block.body:
                state = self.transfer_item(item, state)
            if block.test is not None:
                state = self.transfer_test(block.test, state)
            return state
        # Backward: the test executes last, so it transfers first.
        if block.test is not None:
            state = self.transfer_test(block.test, state)
        for item in reversed(block.body):
            state = self.transfer_item(item, state)
        return state


@dataclass
class Solution:
    """Per-block fixpoint states plus solver accounting."""

    problem: DataflowProblem
    #: block index -> state at block entry (forward) / exit (backward).
    inputs: dict[int, Any] = field(default_factory=dict)
    #: block index -> state at block exit (forward) / entry (backward).
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
        """Forward only: the state *before* each item of ``block.body``.

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
    forward = problem.direction == "forward"
    solution = Solution(problem=problem)
    start = cfg.entry.index if forward else cfg.exit.index

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

        if forward:
            edges_in = cfg.predecessors(block)
        else:
            edges_in = cfg.successors(block)
        state = problem.boundary() if index == start else problem.initial()
        for edge in edges_in:
            neighbour = edge.source if forward else edge.target
            incoming = solution.outputs[neighbour]
            if forward:
                incoming = problem.refine_edge(
                    cfg.blocks[neighbour], edge.label, incoming
                )
            state = problem.join(state, incoming)
        solution.inputs[index] = state
        out = problem.transfer_block(block, state)
        if out == solution.outputs[index]:
            continue
        solution.outputs[index] = out
        targets = cfg.successors(block) if forward else cfg.predecessors(block)
        for edge in targets:
            neighbour = edge.target if forward else edge.source
            if neighbour not in queued:
                queued.add(neighbour)
                worklist.append(neighbour)
    return solution


# -- reference instances ------------------------------------------------------


def read_names(item: BlockItem) -> set[str]:
    """Plain names an item *reads* (Load context), header-aware."""
    if isinstance(item, Header):
        stmt = item.stmt
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return _loads(stmt.iter)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            names: set[str] = set()
            for with_item in stmt.items:
                names.update(_loads(with_item.context_expr))
            return names
        return set()
    if isinstance(item, WithEnter):
        return _loads(item.item.context_expr)
    if isinstance(item, WithExit):
        return set()
    return _loads(item)


def _loads(node: ast.AST) -> set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


class ReachingDefinitions(DataflowProblem):
    """Which definitions of each local name may reach a program point.

    A *definition* is one block item that binds a name (assignment,
    ``for``/``with`` target, import, nested ``def``); function parameters
    are synthetic definitions at entry.  States are frozensets of
    ``(name, def_id)`` pairs; ``definition(def_id)`` recovers the defining
    item so clients (the RL007 alias resolver) can inspect its right-hand
    side.
    """

    direction = "forward"

    #: def_id of every synthetic parameter definition.
    PARAM = -1

    def __init__(self, cfg: ControlFlowGraph, walk=ast.walk) -> None:
        self.cfg = cfg
        self._definitions: list[BlockItem] = []
        self._ids_by_item: dict[int, list[tuple[str, int]]] = {}
        self._params: frozenset[tuple[str, int]] = frozenset()
        for _block, _position, item in cfg.walk_items():
            names = assigned_names(item, walk)
            if not names:
                continue
            pairs = []
            for name in sorted(names):
                def_id = len(self._definitions)
                self._definitions.append(item)
                pairs.append((name, def_id))
            self._ids_by_item[id(item)] = pairs
        func = cfg.func
        if func is not None and hasattr(func, "args"):
            self._params = frozenset(
                (arg.arg, self.PARAM) for arg in _all_args(func.args)
            )

    def definition(self, def_id: int) -> BlockItem | None:
        if 0 <= def_id < len(self._definitions):
            return self._definitions[def_id]
        return None

    def definitions_of(self, state: frozenset, name: str) -> list[BlockItem | None]:
        return [self.definition(def_id) for n, def_id in state if n == name]

    def initial(self) -> frozenset:
        return frozenset()

    def boundary(self) -> frozenset:
        return self._params

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def transfer_item(self, item: BlockItem, state: frozenset) -> frozenset:
        pairs = self._ids_by_item.get(id(item))
        if not pairs:
            return state
        killed = {name for name, _def_id in pairs}
        kept = frozenset(pair for pair in state if pair[0] not in killed)
        return kept | frozenset(pairs)


class LiveVariables(DataflowProblem):
    """Which local names may still be read before being reassigned."""

    direction = "backward"

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def transfer_item(self, item: BlockItem, state: frozenset) -> frozenset:
        return (state - frozenset(assigned_names(item))) | frozenset(
            read_names(item)
        )

    def transfer_test(self, test: ast.expr, state: frozenset) -> frozenset:
        return state | frozenset(_loads(test))


def _all_args(args: ast.arguments) -> Iterable[ast.arg]:
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        yield arg
    if args.vararg is not None:
        yield args.vararg
    if args.kwarg is not None:
        yield args.kwarg
