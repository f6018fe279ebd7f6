"""Lockset computation over the CFG: which ``self`` locks are held where.

The Eraser-style core of the lock rules: a forward *must* analysis whose state is the
set of instance locks certainly held at a program point — ``None`` stands
for ⊤ (unreachable-so-far), join is set intersection, and the
:class:`~repro.analysis.cfg.WithEnter`/:class:`~repro.analysis.cfg.WithExit`
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

:func:`analyze_method_locksets` also records the **acquisition order**
edges (held-lock, acquired-lock) that RL011 merges into one global order
graph for deadlock-cycle detection.

Which attribute a lock guards is decided here too, two ways:

* **naming convention** — a lock ``self._<stem>_lock`` (assigned from
  ``threading.Lock()`` / ``RLock()`` / ``Condition()``) guards every
  underscore attribute of the class whose name starts with ``_<stem>``
  (``self._view_lock`` guards ``self._views`` and ``self._view_builds``);
* **annotation** — a ``#: guarded by self.<lock>`` comment on the attribute's
  ``__init__`` assignment (same line, or the line directly above) binds it
  explicitly; this is the only way to bind to a bare ``self._lock``.

Constructors (:data:`CONSTRUCTORS`) run before concurrent aliases exist, so
every lock rule exempts them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.base import SourceFile, call_name, is_self_attribute
from repro.analysis.cfg import (
    BasicBlock,
    BlockItem,
    ControlFlowGraph,
    Header,
    WithEnter,
    WithExit,
)
from repro.analysis.dataflow import (
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

_GUARD_COMMENT = re.compile(r"#:\s*guarded by self\.(\w+)")

_NAMED_LOCK = re.compile(r"^_(?P<stem>\w+?)_lock$")


@dataclass(frozen=True)
class OrderEdge:
    """``acquired`` was taken while ``held`` was already in the lockset."""

    held: str
    acquired: str
    node: ast.expr


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
    """Everything the lock rules need about one method's lock behaviour."""

    cfg: ControlFlowGraph
    solution: Solution
    resolved: dict[int, str]
    order_edges: list[OrderEdge] = field(default_factory=list)

    def held_at_items(self):
        """Yield ``(block, item, lockset_before_item)`` across the method."""
        for block in self.cfg.blocks:
            states = self.solution.states_through(block)
            for item, state in zip(block.body, states):
                yield block, item, state

    def held_at_test(self, block: BasicBlock) -> frozenset | None:
        """The lockset when ``block.test`` is evaluated (after the body)."""
        return self.solution.state_out_of(block)


def analyze_method_locksets(
    cfg: ControlFlowGraph, locks: set[str]
) -> MethodLocksets:
    """Solve the lockset analysis for one method against ``locks``."""
    resolved = _resolve_with_markers(cfg, locks)
    problem = LocksetProblem(resolved)
    solution = solve(cfg, problem)
    result = MethodLocksets(cfg=cfg, solution=solution, resolved=resolved)
    for _block, item, state in result.held_at_items():
        if not isinstance(item, WithEnter) or state is None:
            continue
        acquired = resolved.get(id(item))
        if acquired is None:
            continue
        for held in sorted(state - {acquired}):
            result.order_edges.append(
                OrderEdge(
                    held=held,
                    acquired=acquired,
                    node=item.item.context_expr,
                )
            )
    return result


def _resolve_with_markers(
    cfg: ControlFlowGraph, locks: set[str]
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
    reaching = ReachingDefinitions(cfg) if needs_alias else None
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


def self_attribute_accesses(item: BlockItem) -> list[ast.Attribute]:
    """``self.<attr>`` accesses an item performs, header-aware.

    ``if``/``while`` headers contribute nothing here — their test
    expressions live on the condition blocks' ``test`` and are checked
    against the end-of-block lockset separately.  ``with`` headers
    contribute their context expressions (the lock attribute itself is a
    legitimate unguarded read, but a *guarded* attribute inside a context
    expression is still an access).
    """
    if isinstance(item, Header):
        stmt = item.stmt
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            roots: list[ast.AST] = [stmt.iter, stmt.target]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            roots = [with_item.context_expr for with_item in stmt.items]
        else:
            return []
    elif isinstance(item, (WithEnter, WithExit)):
        return []
    else:
        roots = [item]
    accesses = []
    for root in roots:
        for node in ast.walk(root):
            if is_self_attribute(node):
                accesses.append(node)
    return accesses


def lock_attributes(source: SourceFile, class_def: ast.ClassDef) -> frozenset[str]:
    """Attributes assigned from a lock factory anywhere in the class.

    One walk of the class per ``source`` (cached on it): the summaries and
    the lock checkers ask once per method.
    """
    locks = source._class_locks.get(id(class_def))
    if locks is None:
        found: set[str] = set()
        for node in ast.walk(class_def):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if call_name(node.value) in _LOCK_FACTORIES:
                    for target in node.targets:
                        if is_self_attribute(target):
                            found.add(target.attr)  # type: ignore[union-attr]
        locks = source._class_locks[id(class_def)] = frozenset(found)
    return locks


def guarded_attributes(
    source: SourceFile, class_def: ast.ClassDef, locks: frozenset[str]
) -> dict[str, str]:
    """attribute name -> lock name, from naming convention + annotations."""
    guarded: dict[str, str] = {}

    # Naming convention: self._<stem>_lock guards self._<stem>*.
    stems = []
    for lock in locks:
        match = _NAMED_LOCK.match(lock)
        if match is not None:
            stems.append((f"_{match.group('stem')}", lock))
    if stems:
        for attr in _all_self_attributes(class_def):
            if attr in locks:
                continue
            for prefix, lock in stems:
                if attr.startswith(prefix):
                    guarded[attr] = lock
                    break

    # Annotations: "#: guarded by self.<lock>" on or above an assignment.
    for node in ast.walk(class_def):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not is_self_attribute(target):
                continue
            lock = _annotation_for(source, node.lineno)
            if lock is not None and lock in locks:
                guarded[target.attr] = lock  # type: ignore[union-attr]
    return guarded


def _annotation_for(source: SourceFile, lineno: int) -> str | None:
    for candidate in (lineno, lineno - 1):
        match = _GUARD_COMMENT.search(source.line_at(candidate))
        if match is not None:
            return match.group(1)
    return None


def _all_self_attributes(class_def: ast.ClassDef) -> set[str]:
    attrs: set[str] = set()
    for node in ast.walk(class_def):
        if is_self_attribute(node):
            attrs.add(node.attr)  # type: ignore[union-attr]
    return attrs
