"""RL001 — last-write-wins fancy-indexing writes on numpy arrays.

The PR 2 bug this rule encodes: ``restart[nodes] = weights`` (and
``restart[nodes] += w``) where ``nodes`` contains duplicate indices keeps
only the *last* occurrence's value — numpy fancy assignment is not
accumulating.  A base-set object matched by two keywords silently lost half
its restart mass and every downstream ranking was wrong without a single
test failing.  The fix is ``np.add.at(restart, nodes, weights)``.

Heuristics (tuned for this codebase, suppressible with
``# repro-lint: ignore[RL001]``):

* ``a[idx] += v`` is flagged whenever ``idx`` is *array-like*: a list
  literal, a call producing an index array (``np.asarray``, ``np.nonzero``,
  ``np.where``, ``np.argsort``, ...), a name assigned from such a call, or a
  parameter whose name says it holds indices (``*_nodes``, ``*_indices``,
  ``*_idx``, ``*_ids``).
* ``a[idx] = v`` is flagged only when ``v`` is non-constant — assigning a
  *constant* under duplicate indices is idempotent and therefore safe, while
  assigning a per-index vector drops all but the last duplicate.
* Scalar loop indices (``for i in range(n)``), integer literals, slices and
  tuple subscripts are never flagged.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro_lint.base import Checker, SourceFile, call_name, register
from repro_lint.findings import Finding

#: Calls whose result is (or selects) an integer index array.
_INDEX_PRODUCERS = {
    "np.array",
    "np.asarray",
    "np.asanyarray",
    "np.nonzero",
    "np.flatnonzero",
    "np.where",
    "np.argwhere",
    "np.argsort",
    "np.argmax",
    "np.argmin",
    "np.searchsorted",
    "np.concatenate",
    "np.hstack",
    "np.repeat",
    "np.fromiter",
    "numpy.array",
    "numpy.asarray",
    "numpy.nonzero",
    "numpy.flatnonzero",
    "numpy.where",
    "numpy.argsort",
    "numpy.searchsorted",
    "numpy.concatenate",
}

#: Parameter / variable names that declare "I am an array of indices".
_INDEX_NAME = re.compile(r"(^|_)(indices|index_array|idx|idxs|nodes|ids)$")


@register
class DuplicateIndexWriteChecker(Checker):
    code = "RL001"
    name = "duplicate-index-write"
    summary = (
        "fancy-indexing write that keeps only the last duplicate index "
        "(use np.add.at)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in source.functions():
            yield from self._check_function(source, func)

    def _check_function(
        self, source: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        array_names = _array_index_names(source, func)
        scalar_names = _scalar_loop_names(source, func)
        for node in source.walk(func):
            if isinstance(node, ast.AugAssign):
                target, value, op = node.target, node.value, node.op
                if not isinstance(op, (ast.Add, ast.Sub)):
                    continue
                if self._is_fancy_write(target, array_names, scalar_names):
                    base = _subscript_base(target)
                    yield self.finding(
                        source,
                        node,
                        f"augmented fancy-indexing write to {base!r}: duplicate "
                        "indices are applied once, not accumulated.",
                        f"use np.add.at({base}, <indices>, <values>) so every "
                        "duplicate index contributes.",
                    )
            elif isinstance(node, ast.Assign):
                value = node.value
                if isinstance(value, ast.Constant) or (
                    isinstance(value, ast.UnaryOp)
                    and isinstance(value.operand, ast.Constant)
                ):
                    # Constant stores are idempotent under duplicate indices.
                    continue
                for target in node.targets:
                    if self._is_fancy_write(target, array_names, scalar_names):
                        base = _subscript_base(target)
                        yield self.finding(
                            source,
                            node,
                            f"fancy-indexing assignment to {base!r} with a "
                            "non-constant value: under duplicate indices only "
                            "the last write survives.",
                            "accumulate with np.add.at (or de-duplicate the "
                            "index array first) if duplicates are possible.",
                        )

    def _is_fancy_write(
        self,
        target: ast.AST,
        array_names: set[str],
        scalar_names: set[str],
    ) -> bool:
        if not isinstance(target, ast.Subscript):
            return False
        index = target.slice
        if isinstance(index, ast.List):
            return True
        if isinstance(index, ast.Call):
            return call_name(index) in _INDEX_PRODUCERS
        if isinstance(index, ast.Name):
            if index.id in scalar_names:
                return False
            return index.id in array_names
        return False


def _array_index_names(
    source: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> set[str]:
    """Names that plausibly hold an integer index *array* in ``func``."""
    names: set[str] = set()
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _INDEX_NAME.search(arg.arg):
            names.add(arg.arg)
    for node in source.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if call_name(node.value) in _INDEX_PRODUCERS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _scalar_loop_names(
    source: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> set[str]:
    """Loop variables of ``range``/``enumerate`` — scalar, never flagged."""
    names: set[str] = set()
    for node in source.walk(func):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
            if call_name(node.iter) in {"range", "enumerate"}:
                for target in source.walk(node.target):
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _subscript_base(target: ast.Subscript) -> str:
    base = target.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return "<array>"
