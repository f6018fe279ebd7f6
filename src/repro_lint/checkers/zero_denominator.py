"""RL015 — possible zero denominator on a normalization path.

The paper's Eq. 2 normalization divides each label's outgoing rates by
their sum, and the serving tier normalizes score vectors the same way —
``value / total`` where ``total`` was accumulated from data.  When the
data is empty the sum is exactly zero and the division raises (ints) or
silently produces ``inf``/``nan`` (floats), which then poisons every
downstream ranking comparison.

This rule flags a division whose denominator is **provably at risk**:

* a name whose producer can be zero — initialized from a ``0``/``0.0``
  literal (the accumulator idiom) or assigned from ``sum(...)``/
  ``len(...)``/``min(...)`` — and whose interval at the division still
  contains zero;
* a direct ``len(...)`` denominator with no emptiness guard.

The interval comes from the value instance of the abstract interpreter
(:mod:`repro_lint.absint`), whose ``refine_edge`` prunes guarded
branches: after ``if total <= 0.0: return`` the surviving path carries
``total ∈ (0, +inf)`` — zero *excluded* via the open bound — and after
``if not xs: return`` the ``len`` fact of ``xs`` is at least one.  A
finding therefore means the guard is absent (or unprovable), not merely
that a division exists; adding the guard makes the rule's proof go
through and the finding disappear.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.absint import (
    _refine_test,
    states_before_items,
    value_solution,
)
from repro_lint.base import Checker, SourceFile, call_name, register
from repro_lint.cfg import item_roots
from repro_lint.findings import Finding

#: Calls whose result legitimately reaches zero on empty input.
_ZERO_RISK_CALLS = {"sum", "len", "min"}

_DIV_OPS = (ast.Div, ast.FloorDiv, ast.Mod)


@register
class ZeroDenominatorChecker(Checker):
    code = "RL015"
    name = "zero-denominator"
    summary = (
        "division by an accumulated total or len() that the analysis "
        "cannot prove non-zero"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in source.functions():
            yield from self._check_function(source, func)

    def _check_function(self, source: SourceFile, func) -> Iterator[Finding]:
        risky = _zero_risk_names(source, func)
        local = _local_names(source, func)
        divisions = [
            node
            for node in source.walk_in_scope(func)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, _DIV_OPS)
            and _risky_denominator(node.right, risky, local)
        ]
        if not divisions:
            return
        guards = _ifexp_guards(source, func)
        solution = value_solution(source, func)
        if not solution.converged:
            return
        problem = solution.problem
        wanted = {id(node): node for node in divisions}
        seen: set[int] = set()
        for block in source.cfg_for(func).blocks:
            pairs, test_state = states_before_items(solution, block)
            roots = [
                (root, state)
                for item, state in pairs
                for root in item_roots(item)
            ]
            if block.test is not None:
                roots.append((block.test, test_state))
            for root, state in roots:
                if state is None:
                    continue  # unreachable program point
                for node in source.walk_in_scope(root):
                    key = id(node)
                    if key not in wanted or key in seen:
                        continue
                    seen.add(key)
                    here = state
                    for test, positive in guards.get(key, ()):
                        here = _refine_test(problem, test, positive, here)
                        if here is None:
                            break
                    if here is None:
                        continue  # infeasible arm of a conditional expression
                    interval = problem.eval(node.right, here)
                    if not interval.may_be_zero():
                        continue
                    denominator = _describe(node.right)
                    yield self.finding(
                        source,
                        node,
                        f"'{denominator}' can be zero at this division: it "
                        "comes from an accumulator/sum()/len() and no "
                        "dominating guard excludes zero on this path.",
                        f"guard the division (e.g. 'if {denominator} <= 0: "
                        "return ...' or an emptiness check) so the interval "
                        "analysis can prove the denominator non-zero.",
                        metadata={"denominator": denominator},
                    )


def _zero_risk_names(source: SourceFile, func) -> set[str]:
    """Names whose producer makes zero a reachable value."""
    risky: set[str] = set()
    for node in source.walk_in_scope(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Constant) and value.value in (0, 0.0):
            risky.add(target.id)
        elif (
            isinstance(value, ast.Call)
            and call_name(value).rsplit(".", 1)[-1] in _ZERO_RISK_CALLS
        ):
            risky.add(target.id)
    return risky


def _risky_denominator(
    expr: ast.expr, risky: set[str], local: set[str]
) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in risky
    # ``len()`` denominators: only of *local* names — a module-level
    # constant's emptiness is a review question, not a dataflow one, and
    # ``len(self._x)`` guards (``if not self._x: ...``) live outside what
    # the per-name value domain can refine.
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.Name)
        and expr.args[0].id in local
    )


def _local_names(source: SourceFile, func) -> set[str]:
    """Parameter and locally-bound names of one function."""
    arguments = func.args
    names = {
        arg.arg
        for group in (
            arguments.posonlyargs,
            arguments.args,
            arguments.kwonlyargs,
        )
        for arg in group
    }
    for extra in (arguments.vararg, arguments.kwarg):
        if extra is not None:
            names.add(extra.arg)
    for node in source.walk_in_scope(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _ifexp_guards(source: SourceFile, func) -> dict[int, tuple]:
    """division id -> ((test, positive), ...) for conditional expressions.

    ``x / total if total else 0.0`` never divides on the falsy arm; the
    checker replays the ``IfExp`` test through ``refine_edge``'s logic
    before judging a division nested in either arm (outermost test first,
    so nested conditionals stack their refinements).
    """
    guards: dict[int, tuple] = {}
    visited: set[int] = set()

    def tag(node: ast.AST, chain: tuple) -> None:
        if isinstance(node, ast.IfExp):
            visited.add(id(node))
            tag(node.test, chain)
            tag(node.body, chain + ((node.test, True),))
            tag(node.orelse, chain + ((node.test, False),))
            return
        if chain and isinstance(node, ast.BinOp):
            guards[id(node)] = chain
        for child in ast.iter_child_nodes(node):
            tag(child, chain)

    for node in source.walk_in_scope(func):
        # Parents precede children in the walk, so a nested conditional is
        # always reached (and marked) through its outermost ancestor first.
        if isinstance(node, ast.IfExp) and id(node) not in visited:
            tag(node, ())
    return guards


def _describe(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Call) and expr.args and isinstance(
        expr.args[0], ast.Name
    ):
        return f"len({expr.args[0].id})"
    return "the denominator"
