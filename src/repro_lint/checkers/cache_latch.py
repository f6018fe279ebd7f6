"""RL002 — build-once cache latches whose inputs change without invalidation.

The PR 2 bug this rule encodes: ``SearchEngine.transfer_view`` once built its
transfer graph under ``if self._transfer_graph is None:`` and kept serving it
after the transfer *rates* it baked in had been replaced — a latch that
ignores its inputs.  The same shape nearly recurred in the serving layer's
``DatasetRuntime`` (saved only by a runtime ``is_stale`` check).

Detection, per class:

1. find latch sites — ``if self._x is None:`` or ``if not self._flag:``
   guards whose body assigns the latched attribute (``self._x = ...`` /
   ``self._flag = True``);
2. collect the latch's *inputs* — every other ``self.<attr>`` **read** inside
   the guard body;
3. flag the latch if any input attribute is **assigned** in some other
   method (``__init__``/``__post_init__`` excluded: construction precedes
   the latch) that does not also reset the latch attribute.

A method that rewrites an input *and* resets the latch (``self._x = None`` /
``self._flag = False``) is a correct invalidation and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import Checker, SourceFile, is_self_attribute, register
from repro_lint.findings import Finding

_CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}


@register
class CacheLatchChecker(Checker):
    code = "RL002"
    name = "stale-cache-latch"
    summary = (
        "build-once latch whose inputs are reassigned elsewhere without "
        "invalidating the cached attribute"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    def _check_class(
        self, source: SourceFile, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            node
            for node in class_def.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        writes_by_method = {
            method.name: _attribute_writes_in(source, method.body)
            for method in methods
        }
        for method in methods:
            for latch in _latch_sites(source, method):
                inputs = latch.input_reads
                if not inputs:
                    continue
                for other in methods:
                    if other.name == method.name or other.name in _CONSTRUCTORS:
                        continue
                    written = writes_by_method[other.name]
                    stale_inputs = sorted(inputs & written)
                    if not stale_inputs:
                        continue
                    if latch.attr in written:
                        # The writer also touches the latch attribute —
                        # treated as an invalidation/refresh.
                        continue
                    yield self.finding(
                        source,
                        latch.guard,
                        f"build-once latch on 'self.{latch.attr}' reads "
                        f"{_fmt(stale_inputs)}, which "
                        f"'{class_def.name}.{other.name}' reassigns without "
                        f"invalidating 'self.{latch.attr}'.",
                        f"reset 'self.{latch.attr}' where its inputs change, "
                        "or key the cache by the inputs' value.",
                    )


class _Latch:
    __slots__ = ("guard", "attr", "input_reads")

    def __init__(self, guard: ast.If, attr: str, input_reads: set[str]) -> None:
        self.guard = guard
        self.attr = attr
        self.input_reads = input_reads


def _latch_sites(
    source: SourceFile, method: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[_Latch]:
    latches: list[_Latch] = []
    for node in source.walk(method):
        if not isinstance(node, ast.If):
            continue
        attr = _latched_attr(node.test)
        if attr is None:
            continue
        assigned = _attribute_writes_in(source, node.body)
        if attr not in assigned:
            continue
        reads = _attribute_reads_in(source, node.body) - {attr}
        latches.append(_Latch(node, attr, reads))
    return latches


def _latched_attr(test: ast.AST) -> str | None:
    """The attribute a latch guard tests, for the two latch idioms."""
    # if self._x is None:
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and is_self_attribute(test.left)
    ):
        return test.left.attr  # type: ignore[union-attr]
    # if not self._built:
    if (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and is_self_attribute(test.operand)
    ):
        return test.operand.attr  # type: ignore[union-attr]
    return None


def _attribute_writes_in(source: SourceFile, body: list[ast.stmt]) -> set[str]:
    written: set[str] = set()
    for stmt in body:
        for node in source.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if is_self_attribute(target):
                        written.add(target.attr)  # type: ignore[union-attr]
    return written


def _attribute_reads_in(source: SourceFile, body: list[ast.stmt]) -> set[str]:
    read: set[str] = set()
    for stmt in body:
        for node in source.walk(stmt):
            if is_self_attribute(node) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)  # type: ignore[union-attr]
    return read


def _fmt(attrs: list[str]) -> str:
    return ", ".join(f"'self.{attr}'" for attr in attrs)
