"""RL007 — flow-sensitive lockset discipline.

At every control-flow point that reads or writes a guarded attribute, the
bound lock must be in the *lockset* (the set of locks certainly held there,
computed by the must-analysis in :mod:`repro_lint.lockset` over the
per-function CFG).  Lexical ``with self.<lock>:`` containment is weaker on
two counts this rule closes:

* **aliases** — ``lock = self._rates_lock; with lock: ...`` holds the lock
  (resolved through reaching definitions);
* **paths** — an access reachable both under and outside the lock is a race
  on the unlocked path, even when some ``with`` block encloses it lexically
  somewhere else.

Attributes bind to locks by naming convention or ``#: guarded by`` annotation
(:func:`~repro_lint.lockset.guarded_attributes`).  Constructors and
``*_locked`` helpers (the "caller holds the lock" convention, checked at
their call sites by RL011) are exempt; a ``# repro-lint: ignore[RL007]``
pragma with a rationale is the escape hatch.  Each finding carries the lock
name in ``metadata["lock"]``.  Lock-*order* cycles are RL011's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import Checker, SourceFile, is_self_attribute, register
from repro_lint.findings import Finding
from repro_lint.lockset import (
    CONSTRUCTORS,
    MethodLocksets,
    analyze_method_locksets,
    guarded_attributes,
    lock_attributes,
    self_attribute_accesses,
)


@register
class LocksetDisciplineChecker(Checker):
    code = "RL007"
    name = "lockset-discipline"
    summary = (
        "guarded attribute accessed at a point whose computed lockset lacks "
        "its lock"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
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
            if method.name in CONSTRUCTORS or method.name.endswith("_locked"):
                continue
            model = analyze_method_locksets(source, method, locks)
            yield from self._check_accesses(source, class_def, method, model, guarded)

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
            for access in self_attribute_accesses(source, item):
                yield from self._check_access(
                    source, class_def, method, access, held, guarded
                )
        for block in model.cfg.blocks:
            if block.test is None:
                continue
            held = model.held_at_test(block)
            if held is None:
                continue
            for node in source.walk(block.test):
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
