"""RL003 — guarded attributes touched outside their lock's ``with`` block.

The serving layer (``repro.serve``), the engine's transfer-view LRU
(``repro.query.engine``) and the metrics registry all rely on lock-guarded
mutable state.  A human reviewer will not re-verify on every PR that each
``self._views`` access sits inside ``with self._view_lock:`` — this rule
does.

Binding an attribute to its lock, two ways:

* **naming convention** — a lock ``self._<stem>_lock`` (assigned from
  ``threading.Lock()`` / ``RLock()`` / ``Condition()``) guards every
  underscore attribute of the class whose name starts with ``_<stem>``
  (``self._view_lock`` guards ``self._views`` and ``self._view_builds``);
* **annotation** — a ``#: guarded by self.<lock>`` comment on the attribute's
  ``__init__`` assignment (same line, or the line directly above) binds it
  explicitly; this is the only way to bind to a bare ``self._lock``.

Every load or store of a bound attribute must then be lexically inside a
``with self.<lock>:`` block, with three exemptions: constructors
(``__init__`` / ``__post_init__`` / ``__new__`` — no concurrent aliases
exist yet), methods whose name ends in ``_locked`` (the convention for
helpers documented as "caller holds the lock"), and lines carrying a
``# repro-lint: ignore[RL003]`` pragma with a rationale.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.base import Checker, SourceFile, call_name, is_self_attribute, register
from repro.analysis.findings import Finding

_CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}

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


@register
class LockDisciplineChecker(Checker):
    code = "RL003"
    name = "lock-discipline"
    summary = (
        "lock-guarded attribute read or written outside its with-lock block"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    def _check_class(
        self, source: SourceFile, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        locks = lock_attributes(source, class_def)
        if not locks:
            return
        guarded = guarded_attributes(source, class_def, locks)
        if not guarded:
            return
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _CONSTRUCTORS or method.name.endswith("_locked"):
                continue
            yield from self._check_method(source, class_def, method, guarded)

    def _check_method(
        self,
        source: SourceFile,
        class_def: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: dict[str, str],
    ) -> Iterator[Finding]:
        for access, held in _walk_with_locks(method, frozenset()):
            if not is_self_attribute(access):
                continue
            attr = access.attr  # type: ignore[union-attr]
            lock = guarded.get(attr)
            if lock is None or lock in held:
                continue
            action = "written" if isinstance(access.ctx, ast.Store) else "read"
            yield self.finding(
                source,
                access,
                f"'self.{attr}' is guarded by 'self.{lock}' but {action} in "
                f"'{class_def.name}.{method.name}' outside a "
                f"'with self.{lock}:' block.",
                f"move the access inside 'with self.{lock}:', rename the "
                "method '*_locked' if the caller holds the lock, or pragma "
                "it with a rationale.",
            )


def _walk_with_locks(
    node: ast.AST, held: frozenset[str]
) -> Iterator[tuple[ast.Attribute, frozenset[str]]]:
    """Yield every Attribute node with the set of self-locks held there."""
    if isinstance(node, ast.With):
        acquired = set(held)
        for item in node.items:
            expr = item.context_expr
            if is_self_attribute(expr):
                acquired.add(expr.attr)  # type: ignore[union-attr]
            # The lock expressions themselves still count as accesses.
            yield from _walk_with_locks(expr, held)
            if item.optional_vars is not None:
                yield from _walk_with_locks(item.optional_vars, held)
        inner = frozenset(acquired)
        for stmt in node.body:
            yield from _walk_with_locks(stmt, inner)
        return
    if isinstance(node, ast.Attribute):
        yield node, held
        yield from _walk_with_locks(node.value, held)
        return
    # Nested function/class definitions keep the current held set — a
    # closure created under the lock is usually *run* later, but flagging
    # that correctly needs escape analysis; stay conservative and honest.
    for child in ast.iter_child_nodes(node):
        yield from _walk_with_locks(child, held)


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
