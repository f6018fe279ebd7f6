"""RL005 — exact equality against float literals in numeric code.

Authority-flow math is numerically silent: a convergence check or weight
guard written with ``==`` against a float literal either never fires (the
value is ``1e-17``, not ``0.0``) or fires for the wrong reason, and no test
notices because the ranking is merely *wrong*, not crashing.  The PR 2 audit
found exactly this shape in the precomputed-ranker's total-weight guard.

Flagged: any ``==`` / ``!=`` comparison where at least one comparator is a
float literal (``0.0``, ``1.0``, ``0.85`` ...).  Integer literals are not
flagged — ``count == 0`` on an int is exact and idiomatic, and the AST does
not carry types.

Remedies, in preference order: an inequality that states the real intent
(``total <= 0.0`` for an accumulated non-negative weight), ``math.isclose``
/ ``np.isclose`` with an explicit tolerance, or — where exact comparison is
genuinely meant, e.g. testing an unmodified sentinel default — a
``# repro-lint: ignore[RL005]`` pragma carrying the rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import Checker, SourceFile, register
from repro_lint.findings import Finding


@register
class FloatEqualityChecker(Checker):
    code = "RL005"
    name = "float-equality"
    summary = "exact ==/!= comparison against a float literal"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.Compare):
                continue
            comparators = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, comparators, comparators[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                literal = _float_literal(left)
                if literal is None:
                    literal = _float_literal(right)
                if literal is None:
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    source,
                    node,
                    f"exact '{symbol} {literal!r}' float comparison; "
                    "accumulated floats rarely hit a literal exactly.",
                    "state the intent with an inequality (e.g. '<= 0.0'), "
                    "use math.isclose with a tolerance, or pragma with a "
                    "rationale if exactness is the point.",
                )


def _float_literal(node: ast.AST) -> float | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _float_literal(node.operand)
        if inner is not None:
            return -inner if isinstance(node.op, ast.USub) else inner
    return None
