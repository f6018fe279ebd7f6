"""RL004 — in-place mutation of caller-owned parameters.

The PR 1 bug this rule encodes: ``SearchEngine`` mutated the *shared* rate
map a caller passed in, so one feedback session's learned rates contaminated
every other session against the same engine.  Rate maps, query-weight dicts
and score arrays are caller-owned values; a function that needs a modified
copy must copy first.

Flagged, for any parameter other than ``self``/``cls``:

* subscript stores — ``param[key] = value`` and ``param[key] += value``;
* mutating method calls — ``param.update(...)``, ``.pop()``, ``.popitem()``,
  ``.clear()``, ``.setdefault()``, ``.insert()``, ``.remove()``,
  ``.sort()``, ``.fill()``;
* ``del param[key]``.

Not flagged: parameters rebound to a copy *before* the mutation
(``rates = dict(rates)``, ``scores = scores.copy()`` — the idiom this rule
wants to push you toward), and parameters whose name declares the contract
(``out``, ``out_*``, ``*_out``, ``buffer``, ``sink``, ``acc``,
``accumulator`` — numpy-style output parameters).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro_lint.base import Checker, SourceFile, register
from repro_lint.findings import Finding

_MUTATORS = {
    "update",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "insert",
    "remove",
    "sort",
    "fill",
}

#: Parameter names whose contract *is* "the callee writes into me".
_OUT_PARAM = re.compile(r"^(out(_\w+)?|\w+_out|buffer|sink|acc|accumulator)$")


@register
class ParamMutationChecker(Checker):
    code = "RL004"
    name = "caller-owned-mutation"
    summary = "caller-owned dict/array parameter mutated without copying first"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in source.functions():
            yield from self._check_function(source, func)

    def _check_function(
        self, source: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        args = func.args
        params = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if arg.arg not in {"self", "cls"} and not _OUT_PARAM.match(arg.arg)
        }
        if not params:
            return
        rebound_at = _rebind_lines(source, func, params)

        for node in source.walk_in_scope(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    name = _subscript_param(target, params)
                    if name and not _rebound_before(rebound_at, name, node.lineno):
                        yield self.finding(
                            source,
                            node,
                            f"parameter {name!r} is mutated in place "
                            f"(item assignment) — the caller's object changes.",
                            f"copy first ({name} = dict({name}) / "
                            f"{name}.copy()) or document ownership transfer "
                            "with a pragma.",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = _subscript_param(target, params)
                    if name and not _rebound_before(rebound_at, name, node.lineno):
                        yield self.finding(
                            source,
                            node,
                            f"parameter {name!r} is mutated in place "
                            "(del of an item) — the caller's object changes.",
                            f"copy {name} before deleting from it.",
                        )
            elif isinstance(node, ast.Call):
                name = _mutator_call_param(node, params)
                if name and not _rebound_before(rebound_at, name, node.lineno):
                    method = node.func.attr  # type: ignore[union-attr]
                    yield self.finding(
                        source,
                        node,
                        f"parameter {name!r} is mutated in place "
                        f"(.{method}()) — the caller's object changes.",
                        f"copy first ({name} = dict({name}) / {name}.copy()) "
                        "or document ownership transfer with a pragma.",
                    )


def _subscript_param(target: ast.AST, params: set[str]) -> str | None:
    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Name)
        and target.value.id in params
    ):
        return target.value.id
    return None


def _mutator_call_param(node: ast.Call, params: set[str]) -> str | None:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _MUTATORS
        and isinstance(func.value, ast.Name)
        and func.value.id in params
    ):
        return func.value.id
    return None


def _rebind_lines(
    source: SourceFile,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    params: set[str],
) -> dict[str, int]:
    """First line where each parameter name is rebound (copy idiom)."""
    rebound: dict[str, int] = {}
    for node in source.walk_in_scope(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in params:
                    line = rebound.get(target.id)
                    if line is None or node.lineno < line:
                        rebound[target.id] = node.lineno
    return rebound


def _rebound_before(rebound_at: dict[str, int], name: str, lineno: int) -> bool:
    line = rebound_at.get(name)
    return line is not None and line <= lineno
