"""RL007 — flow-sensitive lockset discipline + lock-ordering cycles.

RL003 verifies *lexical* containment: a guarded attribute access must sit
inside a ``with self.<lock>:`` block.  This rule verifies the actual
concurrency invariant — at every control-flow point that reads or writes a
guarded attribute, the annotated lock is in the *lockset* (the set of locks
certainly held there, computed by the must-analysis in
:mod:`repro.analysis.lockset` over the per-function CFG).  That closes the
two gaps lexical matching leaves open:

* **aliases** — ``lock = self._rates_lock; with lock: ...`` holds the lock
  (resolved through reaching definitions), where RL003 would flag it;
* **paths** — an access reachable both under and outside the lock is a race
  on the unlocked path, even when some ``with`` block encloses it lexically
  somewhere else.

On top of the per-method locksets, the rule collects every acquisition of a
lock while another is held into a per-class *acquisition-order graph* and
flags edges that participate in a cycle — two methods taking the same two
locks in opposite orders is the classic deadly-embrace shape, invisible to
any single-method analysis.

Attribute-to-lock binding, the exemptions (constructors, ``*_locked``
helpers), and the pragma escape hatch are exactly RL003's.  Each finding
carries the lock name in ``metadata["lock"]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, SourceFile, is_self_attribute, register
from repro.analysis.checkers.lock_discipline import (
    _CONSTRUCTORS,
    guarded_attributes,
    lock_attributes,
)
from repro.analysis.findings import Finding
from repro.analysis.lockset import (
    MethodLocksets,
    OrderEdge,
    analyze_method_locksets,
    order_cycles,
    self_attribute_accesses,
)


@register
class LocksetDisciplineChecker(Checker):
    code = "RL007"
    name = "lockset-discipline"
    summary = (
        "guarded attribute accessed at a point whose computed lockset lacks "
        "its lock, or locks acquired in cycle-forming order"
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
        order_edges: list[OrderEdge] = []
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _CONSTRUCTORS:
                # Constructors run before concurrent aliases exist: no
                # races, and their acquisition order cannot deadlock.
                continue
            model = analyze_method_locksets(
                source.cfg_for(method), locks, method.name
            )
            order_edges.extend(model.order_edges)
            if guarded and not method.name.endswith("_locked"):
                yield from self._check_accesses(source, class_def, method, model, guarded)
        for edge in order_cycles(order_edges):
            yield self.finding(
                source,
                edge.node,
                f"'self.{edge.acquired}' is acquired while 'self.{edge.held}' "
                f"is held in '{class_def.name}.{edge.method}', but the class "
                "also acquires these locks in the opposite order — a "
                "lock-ordering cycle that can deadlock.",
                "pick one global acquisition order for the class's locks "
                "(document it next to their definitions) or merge the "
                "critical sections.",
                metadata={"lock": edge.acquired, "held": edge.held},
            )

    def _check_accesses(
        self,
        source: SourceFile,
        class_def: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        model: MethodLocksets,
        guarded: dict[str, str],
    ) -> Iterator[Finding]:
        for _block, item, held in model.held_at_items():
            if held is None:  # unreachable: no path, no race
                continue
            for access in self_attribute_accesses(item):
                yield from self._check_access(
                    source, class_def, method, access, held, guarded
                )
        for block in model.cfg.blocks:
            if block.test is None:
                continue
            held = model.held_at_test(block)
            if held is None:
                continue
            for node in ast.walk(block.test):
                if is_self_attribute(node):
                    yield from self._check_access(
                        source, class_def, method, node, held, guarded
                    )

    def _check_access(
        self,
        source: SourceFile,
        class_def: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        access: ast.Attribute,
        held: frozenset,
        guarded: dict[str, str],
    ) -> Iterator[Finding]:
        lock = guarded.get(access.attr)
        if lock is None or lock in held:
            return
        action = "written" if isinstance(access.ctx, ast.Store) else "read"
        held_text = (
            "the lockset there is {" + ", ".join(sorted(f"'self.{name}'" for name in held)) + "}"
            if held
            else "no lock is held there"
        )
        yield self.finding(
            source,
            access,
            f"'self.{access.attr}' is guarded by 'self.{lock}' but {action} "
            f"in '{class_def.name}.{method.name}' on a path where "
            f"{held_text}.",
            f"extend the 'with self.{lock}:' region to cover this access on "
            "every path, rename the method '*_locked' if callers hold the "
            "lock, or pragma it with a rationale.",
            metadata={"lock": lock},
        )
