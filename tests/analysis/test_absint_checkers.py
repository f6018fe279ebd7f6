"""Fixture tests for the abstract-interpretation rule RL015.

The rule gets a known-positive corpus pinned at the exact finding line
(the acceptance criterion of the abstract-interpretation PR) plus
negative fixtures showing the *proof obligations* that silence it:
emptiness/zero guards and branch refinement in the value domain.
"""

import textwrap

from repro_lint import SourceFile, all_checkers


def lint_snippet(code: str, snippet: str):
    (checker,) = all_checkers([code])
    source = SourceFile.parse("<snippet>", textwrap.dedent(snippet))
    return sorted(checker.check(source))


def codes_of(findings):
    return [finding.code for finding in findings]


class TestRL015ZeroDenominator:
    def test_unguarded_len_denominator(self):
        findings = lint_snippet(
            "RL015",
            """
            def mean(values):
                total = sum(values)
                return total / len(values)
            """,
        )
        assert codes_of(findings) == ["RL015"]
        assert findings[0].line == 4
        assert findings[0].metadata["denominator"] == "len(values)"

    def test_unguarded_sum_accumulator(self):
        findings = lint_snippet(
            "RL015",
            """
            def normalize(weights):
                total = sum(weights.values())
                return {k: w / total for k, w in weights.items()}
            """,
        )
        assert codes_of(findings) == ["RL015"]
        assert findings[0].line == 4
        assert findings[0].metadata["denominator"] == "total"

    def test_emptiness_guard_discharges_len(self):
        assert lint_snippet(
            "RL015",
            """
            def mean(values):
                if not values:
                    return 0.0
                return sum(values) / len(values)
            """,
        ) == []

    def test_relational_guard_discharges_total(self):
        assert lint_snippet(
            "RL015",
            """
            def normalize(weights):
                total = sum(weights.values())
                if total <= 0.0:
                    return {}
                return {k: w / total for k, w in weights.items()}
            """,
        ) == []

    def test_conditional_expression_guard_discharges(self):
        """The relational test of a conditional expression is replayed
        onto its arms: the division only executes where ``total > 0``
        holds, so the interval analysis proves it non-zero there."""
        assert lint_snippet(
            "RL015",
            """
            def share(part, values):
                total = sum(values)
                return part / total if total > 0 else 0.0
            """,
        ) == []

    def test_guard_survives_into_a_later_loop(self):
        """Regression: an emptiness guard must keep discharging divisions
        inside a *later* loop.  An infeasible branch refinement used to
        silently widen the ``len`` fact instead of killing the edge, and
        the premature wide state got locked into the loop's fixpoint
        (joins never narrow)."""
        assert lint_snippet(
            "RL015",
            """
            def averages(rows, steps):
                kept = []
                for row in rows:
                    kept.append(row)
                if not kept:
                    raise ValueError("no rows")
                n = len(kept)
                out = []
                for step in range(steps):
                    out.append(sum(r[step] for r in kept) / n)
                return out
            """,
        ) == []
