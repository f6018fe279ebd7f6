"""Fixture tests for the flow-sensitive rules RL007–RL009.

The RL007 corpus test is the PR's acceptance criterion made executable: a
copy of ``src/repro/serve/service.py`` with one ``with self._rates_lock:``
removed must light up at the exact line of the now-unguarded access —
the pre-annotation snapshot of the serving layer is the known-positive.
"""

import re
from pathlib import Path

from tests.analysis.test_checkers import codes_of, lint_snippet

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVICE_PY = REPO_ROOT / "src" / "repro" / "serve" / "service.py"


def lint_text(code: str, text: str, name: str = "<snippet>"):
    from repro_lint import SourceFile, all_checkers

    (checker,) = all_checkers([code])
    return list(checker.check(SourceFile.parse(name, text)))


class TestRL007Lockset:
    GUARDED_CLASS = """
        import threading

        class Runtime:
            def __init__(self):
                self._rates_lock = threading.Lock()
                self._rates = {{}}

            def {method}
    """

    def _lint(self, method_lines: str):
        body = self.GUARDED_CLASS.format(method=method_lines.strip())
        return lint_snippet("RL007", body)

    def test_unguarded_read_flagged_with_lock_metadata(self):
        findings = self._lint(
            """peek(self):
                return self._rates
            """
        )
        assert codes_of(findings) == ["RL007"]
        assert findings[0].metadata == {"lock": "_rates_lock"}
        assert "no lock is held there" in findings[0].message

    def test_access_under_the_lock_is_clean(self):
        assert self._lint(
            """peek(self):
                with self._rates_lock:
                    return self._rates
            """
        ) == []

    def test_alias_through_a_local_still_counts_as_held(self):
        """The gap lexical ``with self.<lock>:`` matching cannot close."""
        assert self._lint(
            """peek(self):
                lock = self._rates_lock
                with lock:
                    return self._rates
            """
        ) == []

    def test_partially_guarded_path_is_flagged(self):
        findings = self._lint(
            """peek(self, fast):
                if fast:
                    return self._rates
                with self._rates_lock:
                    return self._rates
            """
        )
        assert codes_of(findings) == ["RL007"]
        # The unlocked fast-path read, not the later guarded one.
        assert "fast" not in findings[0].source_line
        assert findings[0].line == 11

    def test_locked_suffix_methods_are_exempt(self):
        assert self._lint(
            """peek_locked(self):
                return self._rates
            """
        ) == []


class TestRL007ServiceCorpus:
    """The acceptance criterion: de-guard service.py, expect the exact line."""

    def _broken_service_text(self) -> tuple[str, int]:
        """service.py with the rates property's with-block removed."""
        text = SERVICE_PY.read_text(encoding="utf-8")
        pattern = re.compile(
            r"( *)with self\._rates_lock:\n( *)return self\.current_rates"
        )
        match = pattern.search(text)
        assert match is not None, "rates property changed shape; update test"
        indent = match.group(1)
        broken = pattern.sub(f"{indent}return self.current_rates", text, count=1)
        access_line = broken[: broken.index("return self.current_rates")].count(
            "\n"
        ) + 1
        return broken, access_line

    def test_shipped_service_is_clean(self):
        findings = lint_text(
            "RL007", SERVICE_PY.read_text(encoding="utf-8"), "service.py"
        )
        assert findings == []

    def test_removing_the_rates_guard_is_caught_at_the_exact_line(self):
        broken, access_line = self._broken_service_text()
        findings = lint_text("RL007", broken, "service_broken.py")
        assert any(
            f.line == access_line and f.metadata.get("lock") == "_rates_lock"
            for f in findings
        ), [(f.line, f.metadata) for f in findings]


class TestRL008FixpointLoops:
    def test_unbounded_residual_loop_flagged_with_span(self):
        findings = lint_snippet(
            "RL008",
            """
            def iterate(x, tol):
                residual = 1.0
                while residual > tol:
                    x, residual = step(x)
                return x
            """,
        )
        assert codes_of(findings) == ["RL008"]
        span = findings[0].metadata["loop_span"]
        assert span[0] == 4 and span[1] >= 5

    def test_while_true_with_residual_break_flagged(self):
        findings = lint_snippet(
            "RL008",
            """
            def iterate(x, tol):
                while True:
                    x, residual = step(x)
                    if residual < tol:
                        break
                return x
            """,
        )
        assert codes_of(findings) == ["RL008"]

    def test_counter_in_the_condition_is_accepted(self):
        assert lint_snippet(
            "RL008",
            """
            def iterate(x, tol, max_iterations):
                residual, iterations = 1.0, 0
                while residual > tol and iterations < max_iterations:
                    x, residual = step(x)
                    iterations += 1
                return x
            """,
        ) == []

    def test_counted_break_guard_is_accepted(self):
        assert lint_snippet(
            "RL008",
            """
            def iterate(x, tol, cap):
                residual, iterations = 1.0, 0
                while residual > tol:
                    x, residual = step(x)
                    iterations = iterations + 1
                    if iterations >= cap:
                        break
                return x
            """,
        ) == []

    def test_counter_that_never_bounds_anything_still_flags(self):
        findings = lint_snippet(
            "RL008",
            """
            def iterate(x, tol):
                residual, iterations = 1.0, 0
                while residual > tol:
                    x, residual = step(x)
                    iterations += 1
                return x
            """,
        )
        assert codes_of(findings) == ["RL008"]

    def test_non_residual_loops_are_ignored(self):
        assert lint_snippet(
            "RL008",
            """
            def drain(queue):
                while queue.size() > 0:
                    queue.pop()
            """,
        ) == []


class TestRL009UseAfterInvalidate:
    def test_partial_rebuild_flagged_with_invalidation_lines(self):
        findings = lint_snippet(
            "RL009",
            """
            class Cache:
                def refresh(self, precompute):
                    self._view = None
                    if precompute:
                        self._view = build()
                    return self._view.render()
            """,
        )
        assert codes_of(findings) == ["RL009"]
        assert findings[0].metadata["invalidated_at"] == [4]

    def test_lazy_rebuild_idiom_is_clean(self):
        assert lint_snippet(
            "RL009",
            """
            class Cache:
                def invalidate(self):
                    self._view = None

                def view(self):
                    if self._view is None:
                        self._view = build()
                    return self._view
            """,
        ) == []

    def test_rebuild_on_every_path_is_clean(self):
        assert lint_snippet(
            "RL009",
            """
            class Cache:
                def refresh(self, precompute):
                    self._view = None
                    if precompute:
                        self._view = build()
                    else:
                        self._view = build_cheap()
                    return self._view.render()
            """,
        ) == []

    def test_clear_call_counts_as_invalidation(self):
        findings = lint_snippet(
            "RL009",
            """
            class Cache:
                def reset(self):
                    self._entries.clear()
                    return self._entries.popitem()
            """,
        )
        assert codes_of(findings) == ["RL009"]

    def test_truthiness_guard_is_recognised(self):
        assert lint_snippet(
            "RL009",
            """
            class Cache:
                def view(self):
                    self._view = None
                    if not self._view:
                        self._view = build()
                    return self._view
            """,
        ) == []
