"""Lockset computation over the CFG: which ``self`` locks are held where.

The Eraser-style core of RL013: a forward *must* analysis whose state is the
set of instance locks certainly held at a program point — ``None`` stands
for ⊤ (unreachable-so-far), join is set intersection, and the
:class:`~repro_lint.cfg.WithEnter`/:class:`~repro_lint.cfg.WithExit`
markers the CFG builder emits are the acquire/release transfer points
(including the synthetic releases on ``break``/``continue``/``return``
paths that leave a ``with`` early).

Lock expressions are resolved through reaching definitions, so the aliased
form lexical ``with self.<lock>:`` matching cannot see::

    lock = self._rates_lock
    with lock:                 # holds self._rates_lock here
        self.current_rates = rates

counts as holding ``self._rates_lock`` — but only when *every* definition
of ``lock`` reaching the ``with`` is an assignment from that same lock
attribute; a name with mixed reaching definitions resolves to nothing and
the region conservatively guards nothing.

Which attribute a lock guards, lock order and re-acquisition are checked at
run time by the test suite's lockdep (``tests/lockdep.py``), not here.
Constructors (:data:`CONSTRUCTORS`) run before concurrent aliases exist, so
RL013 exempts them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro_lint.base import SourceFile, call_name, is_self_attribute
from repro_lint.cfg import (
    BlockItem,
    ControlFlowGraph,
    WithEnter,
    WithExit,
)
from repro_lint.dataflow import (
    DataflowProblem,
    ReachingDefinitions,
    Solution,
    solve,
)

CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "Lock",
    "RLock",
    "Condition",
}


class LocksetProblem(DataflowProblem):
    """Forward must-analysis of held instance locks.

    States: ``None`` (⊤, no path reached this point yet) or a frozenset of
    lock attribute names.  ``resolved`` maps ``id(WithEnter/WithExit)``
    markers to the lock they acquire/release; unresolved markers are
    no-ops, which under-approximates the lockset and never hides a real
    unguarded access.
    """

    direction = "forward"

    def __init__(self, resolved: dict[int, str]) -> None:
        self.resolved = resolved

    def initial(self) -> frozenset | None:
        return None

    def boundary(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset | None, right: frozenset | None):
        if left is None:
            return right
        if right is None:
            return left
        return left & right

    def transfer_item(self, item: BlockItem, state: frozenset | None):
        if state is None:
            return None
        lock = self.resolved.get(id(item))
        if lock is None:
            return state
        if isinstance(item, WithEnter):
            return state | {lock}
        if isinstance(item, WithExit):
            return state - {lock}
        return state


@dataclass
class MethodLocksets:
    """Everything RL013 needs about one method's lock behaviour."""

    cfg: ControlFlowGraph
    solution: Solution

    def held_at_items(self):
        """Yield ``(block, item, lockset_before_item)`` across the method."""
        for block in self.cfg.blocks:
            states = self.solution.states_through(block)
            for item, state in zip(block.body, states):
                yield block, item, state


def analyze_method_locksets(
    source: SourceFile,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    locks: set[str],
) -> MethodLocksets:
    """Solve the lockset analysis for one method against ``locks``.

    Cached on ``source`` like the other solutions: the summaries and RL013
    ask about the same methods with the same locks.
    """
    cache = source.solution_cache("locksets")
    key = (id(method), frozenset(locks))
    result = cache.get(key)
    if result is not None:
        return result
    cfg = source.cfg_for(method)
    resolved = _resolve_with_markers(cfg, locks, source.walk)
    problem = LocksetProblem(resolved)
    solution = solve(cfg, problem)
    result = cache[key] = MethodLocksets(cfg=cfg, solution=solution)
    return result


def _resolve_with_markers(
    cfg: ControlFlowGraph, locks: set[str], walk
) -> dict[int, str]:
    """Map every WithEnter/WithExit marker to the lock it manipulates.

    Direct ``with self._x_lock:`` resolves syntactically; ``with alias:``
    resolves through reaching definitions when every reaching definition of
    the alias assigns the same lock attribute.  Enter and exit markers of
    the same ``with`` item always resolve identically (the runtime releases
    the object it acquired, regardless of later rebinding), so exits are
    resolved by pairing, not by dataflow at the exit point.
    """
    resolved: dict[int, str] = {}
    by_item: dict[int, str] = {}
    needs_alias = any(
        isinstance(item, WithEnter)
        and isinstance(item.item.context_expr, ast.Name)
        for _b, _p, item in cfg.walk_items()
    )
    reaching = ReachingDefinitions(cfg, walk) if needs_alias else None
    rd_solution = solve(cfg, reaching) if reaching is not None else None

    for block in cfg.blocks:
        rd_states = (
            rd_solution.states_through(block) if rd_solution is not None else None
        )
        for position, item in enumerate(block.body):
            if isinstance(item, WithEnter):
                lock = _resolve_lock_expr(
                    item.item.context_expr,
                    locks,
                    reaching,
                    rd_states[position] if rd_states is not None else None,
                )
                if lock is not None:
                    resolved[id(item)] = lock
                    by_item[id(item.item)] = lock
            elif isinstance(item, WithExit):
                lock = by_item.get(id(item.item))
                if lock is not None:
                    resolved[id(item)] = lock
    return resolved


def _resolve_lock_expr(
    expr: ast.expr,
    locks: set[str],
    reaching: ReachingDefinitions | None,
    rd_state: frozenset | None,
) -> str | None:
    """The lock attribute an acquire expression denotes, if provable."""
    if is_self_attribute(expr):
        attr = expr.attr  # type: ignore[union-attr]
        return attr if attr in locks else None
    if (
        isinstance(expr, ast.Name)
        and reaching is not None
        and rd_state is not None
    ):
        definitions = reaching.definitions_of(rd_state, expr.id)
        if not definitions:
            return None
        attrs = set()
        for definition in definitions:
            attr = _assigned_lock_attr(definition, expr.id, locks)
            if attr is None:
                return None
            attrs.add(attr)
        if len(attrs) == 1:
            return attrs.pop()
    return None


def _assigned_lock_attr(
    definition: BlockItem | None, name: str, locks: set[str]
) -> str | None:
    """``attr`` when ``definition`` is ``name = self.<attr>`` for a lock."""
    if not isinstance(definition, ast.Assign):
        return None
    if not any(
        isinstance(target, ast.Name) and target.id == name
        for target in definition.targets
    ):
        return None
    if is_self_attribute(definition.value):
        attr = definition.value.attr  # type: ignore[union-attr]
        return attr if attr in locks else None
    return None


def lock_attributes(source: SourceFile, class_def: ast.ClassDef) -> frozenset[str]:
    """Attributes assigned from a lock factory anywhere in the class.

    One walk of the class per ``source`` (cached on it): the summaries and
    RL013 ask once per method.
    """
    locks = source._class_locks.get(id(class_def))
    if locks is None:
        found: set[str] = set()
        for node in source.walk(class_def):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if call_name(node.value) in _LOCK_FACTORIES:
                    for target in node.targets:
                        if is_self_attribute(target):
                            found.add(target.attr)  # type: ignore[union-attr]
        locks = source._class_locks[id(class_def)] = frozenset(found)
    return locks

