"""RL008 — fixpoint loops that test a residual but have no iteration cap.

The bug class behind the batched power-iteration and flow-adjustment
engines: a ``while`` loop that runs until a residual/tolerance condition is
met.  The paper's Theorem 1 guarantees convergence only while the transfer
schema stays convergent — after a structure-based reformulation, a learned
rate at the boundary can make the Eq. 5–10 updates contract arbitrarily
slowly (or, with float rounding, not at all).  A production loop therefore
must pair the residual test with an iteration counter that provably
increases toward a bound on some path; a loop without one spins forever the
first time the numerics stop cooperating.

Flagged shapes::

    while residual > tol:          # no counter anywhere in the body
        x = step(x)

    while True:                    # only exit is the convergence test
        x, residual = step(x)
        if residual < tol:
            break

Accepted shapes (not flagged)::

    while residual > tol and iterations < max_iterations:
        iterations += 1 ...

    while residual > tol:
        iterations += 1
        if iterations >= max_iterations:
            break            # (raise/return also count as leaving)

Each finding carries the loop's full line span in
``metadata["loop_span"]``, so tooling can fold the whole loop, not just the
header line.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro_lint.base import Checker, SourceFile, call_name, literal_number, register
from repro_lint.findings import Finding

#: Names that smell like a convergence residual or tolerance.
_RESIDUAL_NAME = re.compile(
    r"(?:^|_)(residual|resid|tol|tolerance|eps|epsilon|delta|diff|difference|"
    r"err|error|change|gap|norm)(?:$|_|\d)",
    re.IGNORECASE,
)

#: Call targets whose result is residual-like when compared (``abs(x - y)``).
_RESIDUAL_CALLS = {"abs"}

_COMPARISONS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@register
class FixpointLoopChecker(Checker):
    code = "RL008"
    name = "unbounded-fixpoint-loop"
    summary = (
        "while-loop tests a residual/tolerance with no iteration counter "
        "bounding it on any path"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.While):
                continue
            residual_test = _residual_compare_in(source, node.test)
            if residual_test is None and _is_while_true(node.test):
                residual_test = _residual_break_in(source, node.body)
            if residual_test is None:
                continue
            if _has_bounded_counter(source, node):
                continue
            span = (node.lineno, getattr(node, "end_lineno", node.lineno))
            yield self.finding(
                source,
                node,
                "fixpoint loop tests a residual/tolerance "
                f"({ast.unparse(residual_test)}) but no iteration counter "
                "bounds it on any path — if the update stops contracting, "
                "the loop never exits.",
                "count iterations and bound them: 'while ... and iterations "
                "< max_iterations:' or a counted 'if iterations >= cap: "
                "break' inside the body.",
                metadata={"loop_span": [span[0], span[1]]},
            )


def _is_while_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _residual_compare_in(
    source: SourceFile, expr: ast.expr
) -> ast.Compare | None:
    """The first residual-style ordering comparison inside ``expr``."""
    for node in source.walk(expr):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], _COMPARISONS)
            and any(
                _is_residual_operand(side)
                for side in (node.left, node.comparators[0])
            )
        ):
            return node
    return None


def _residual_break_in(
    source: SourceFile, body: list[ast.stmt]
) -> ast.Compare | None:
    """A residual comparison guarding a ``break`` in a ``while True`` body."""
    for stmt in body:
        for node in source.walk(stmt):
            if not isinstance(node, ast.If):
                continue
            compare = _residual_compare_in(source, node.test)
            if compare is None:
                continue
            if any(
                isinstance(inner, ast.Break)
                for branch_stmt in node.body
                for inner in source.walk(branch_stmt)
            ):
                return compare
    return None


def _is_residual_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return bool(_RESIDUAL_NAME.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_RESIDUAL_NAME.search(node.attr))
    if isinstance(node, ast.Call):
        name = call_name(node)
        short = name.rsplit(".", 1)[-1]
        return short in _RESIDUAL_CALLS or bool(_RESIDUAL_NAME.search(short))
    return False


def _has_bounded_counter(source: SourceFile, loop: ast.While) -> bool:
    """Whether some counter increases in the body toward a tested bound."""
    counters = _incremented_names(source, loop.body)
    if not counters:
        return False
    # Bound in the loop condition itself: `while ... and n < cap:`.
    for node in source.walk(loop.test):
        if _is_counter_bound(node, counters):
            return True
    # Bound guarding an exit in the body: `if n >= cap: break/return/raise`.
    for stmt in loop.body:
        for node in source.walk(stmt):
            if not isinstance(node, ast.If):
                continue
            if not any(
                _is_counter_bound(test_node, counters)
                for test_node in source.walk(node.test)
            ):
                continue
            if any(
                isinstance(inner, (ast.Break, ast.Return, ast.Raise))
                for branch_stmt in node.body + node.orelse
                for inner in source.walk(branch_stmt)
            ):
                return True
    return False


def _incremented_names(source: SourceFile, body: list[ast.stmt]) -> set[str]:
    """Names assigned a strictly increasing value somewhere in the body."""
    counters: set[str] = set()
    for stmt in body:
        for node in source.walk(stmt):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Name)
            ):
                step = literal_number(node.value)
                if step is None or step > 0:
                    counters.add(node.target.id)
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)
            ):
                target = node.targets[0].id
                left, right = node.value.left, node.value.right
                for name_side, step_side in ((left, right), (right, left)):
                    if (
                        isinstance(name_side, ast.Name)
                        and name_side.id == target
                    ):
                        step = literal_number(step_side)
                        if step is not None and step > 0:
                            counters.add(target)
    return counters


def _is_counter_bound(node: ast.AST, counters: set[str]) -> bool:
    """``n < cap`` / ``cap > n`` style ordering test on a known counter."""
    if not (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], _COMPARISONS)
    ):
        return False
    sides = (node.left, node.comparators[0])
    return any(
        isinstance(side, ast.Name) and side.id in counters for side in sides
    )
