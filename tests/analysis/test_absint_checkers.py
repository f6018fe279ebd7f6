"""Fixture tests for the abstract-interpretation rules RL014–RL017.

Each rule gets a known-positive corpus pinned at the exact finding line
(the acceptance criterion of the abstract-interpretation PR) plus
negative fixtures showing the *proof obligations* that silence it:
sanitizer calls and range checks for the taint domain, emptiness/zero
guards and branch refinement for the value domain.
"""

import json
import textwrap

from repro_lint import Baseline, SourceFile, all_checkers, render, run_lint
from repro_lint.callgraph import Project


def lint_project(code: str, files: dict):
    (checker,) = all_checkers([code])
    project = Project(
        [
            SourceFile.parse(path, textwrap.dedent(text))
            for path, text in files.items()
        ]
    )
    return sorted(checker.check_project(project))


def one_module(code: str, text: str):
    return lint_project(code, {"src/repro/m.py": text})


def lint_snippet(code: str, snippet: str):
    (checker,) = all_checkers([code])
    source = SourceFile.parse("<snippet>", textwrap.dedent(snippet))
    return sorted(checker.check(source))


def codes_of(findings):
    return [finding.code for finding in findings]


class TestRL014WireTaint:
    def test_wire_body_to_open_in_same_function(self):
        findings = one_module(
            "RL014",
            """
            class Handler:
                def do_POST(self):
                    body = self._read_json_body()
                    path = body["path"]
                    handle = open(path)
                    return handle.read()
            """,
        )
        assert codes_of(findings) == ["RL014"]
        assert findings[0].line == 6  # the open() call
        assert findings[0].metadata["sink"] == "path"
        assert "unvalidated wire input" in findings[0].message

    def test_wire_taint_through_a_callee_sink(self):
        """Interprocedural: the handler forwards wire data to a helper
        whose parameter reaches the sink — the finding lands at the call
        site with a witness chain down to the helper."""
        findings = one_module(
            "RL014",
            """
            def save(path):
                return open(path)

            class Handler:
                def do_POST(self):
                    body = self._read_json_body()
                    save(body["path"])
            """,
        )
        assert codes_of(findings) == ["RL014"]
        assert findings[0].line == 8  # the save(...) call in do_POST
        chain = findings[0].metadata["call_chain"]
        assert len(chain) >= 2  # call site plus the sink inside save()
        assert any("save" in str(step) for step in chain)

    def test_wire_offset_to_seek(self):
        findings = one_module(
            "RL014",
            """
            class Handler:
                def do_POST(self, slab):
                    body = self._read_json_body()
                    offset = body["offset"]
                    slab.seek(offset)
            """,
        )
        assert codes_of(findings) == ["RL014"]
        assert findings[0].line == 6
        assert findings[0].metadata["sink"] == "offset"

    def test_typed_parser_sanitizes(self):
        assert one_module(
            "RL014",
            """
            class Handler:
                def do_POST(self):
                    body = self._read_json_body()
                    name = _require_str(body, "name")
                    return open(name)
            """,
        ) == []

    def test_range_check_sanitizes(self):
        assert one_module(
            "RL014",
            """
            class Handler:
                def do_POST(self, slab):
                    body = self._read_json_body()
                    offset = body["offset"]
                    if 0 <= offset < 4096:
                        slab.seek(offset)
            """,
        ) == []

    def test_non_wire_data_is_quiet(self):
        assert one_module(
            "RL014",
            """
            def load(config):
                path = config["path"]
                return open(path)
            """,
        ) == []

    def test_sarif_carries_code_flow(self, tmp_path):
        """The witness chain renders as a SARIF codeFlow (acceptance
        criterion: RL014 SARIF results carry codeFlows)."""
        module = tmp_path / "handler.py"
        module.write_text(
            textwrap.dedent(
                """
                def save(path):
                    return open(path)

                class Handler:
                    def do_POST(self):
                        body = self._read_json_body()
                        save(body["path"])
                """
            )
        )
        report = run_lint(
            [module],
            checkers=all_checkers(["RL014"]),
            baseline=Baseline(),
            root=tmp_path,
        )
        assert [f.code for f in report.findings] == ["RL014"]
        sarif = json.loads(render(report, "sarif"))
        (run,) = sarif["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "RL014"
        (code_flow,) = result["codeFlows"]
        locations = code_flow["threadFlows"][0]["locations"]
        assert len(locations) >= 2
        for location in locations:
            physical = location["location"]["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == "handler.py"
            assert physical["region"]["startLine"] >= 1


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


class TestRL016RateOutOfRange:
    def test_literal_rate_above_one(self):
        findings = one_module(
            "RL016",
            """
            def configure(graph):
                graph.set_rate("paper", "author", 1.5)
            """,
        )
        assert codes_of(findings) == ["RL016"]
        assert findings[0].line == 3
        assert findings[0].metadata["kind"] == "rate"

    def test_damping_of_exactly_one(self):
        """d = 1.0 never converges: the valid damping interval is open."""
        findings = one_module(
            "RL016",
            """
            def run(rank):
                return rank(damping=1.0)
            """,
        )
        assert codes_of(findings) == ["RL016"]
        assert findings[0].line == 3
        assert findings[0].metadata["kind"] == "damping"

    def test_computed_rate_through_arithmetic(self):
        findings = one_module(
            "RL016",
            """
            def boost(graph, bonus):
                if bonus < 0.0:
                    return
                rate = 1.5 + bonus
                graph.set_rate("a", "b", rate)
            """,
        )
        assert codes_of(findings) == ["RL016"]
        assert findings[0].line == 6

    def test_propagates_through_a_callee(self):
        """The callee forwards its parameter into a rate position; the
        caller's constant argument is judged against it."""
        findings = one_module(
            "RL016",
            """
            def apply(graph, rate):
                graph.set_rate("a", "b", rate)

            def setup(graph):
                apply(graph, 2.0)
            """,
        )
        lines = sorted(f.line for f in findings)
        assert 6 in lines  # the apply(graph, 2.0) call site
        site = next(f for f in findings if f.line == 6)
        assert "call_chain" in site.metadata

    def test_valid_rate_is_quiet(self):
        assert one_module(
            "RL016",
            """
            def configure(graph):
                graph.set_rate("paper", "author", 0.85)
            """,
        ) == []

    def test_unbounded_value_is_quiet(self):
        assert one_module(
            "RL016",
            """
            def configure(graph, rate):
                graph.set_rate("paper", "author", rate)
            """,
        ) == []


class TestRL017IndexBounds:
    def test_literal_index_past_known_length(self):
        findings = lint_snippet(
            "RL017",
            """
            def pick():
                xs = [1, 2, 3]
                return xs[3]
            """,
        )
        assert codes_of(findings) == ["RL017"]
        assert findings[0].line == 4
        assert findings[0].metadata["index"] == 3
        assert findings[0].metadata["length"] == 3

    def test_computed_negative_index_into_array(self):
        findings = lint_snippet(
            "RL017",
            """
            import numpy as np

            def head(values, n):
                arr = np.zeros(n)
                start = 0 - 1
                return arr[start]
            """,
        )
        assert codes_of(findings) == ["RL017"]
        assert findings[0].line == 7

    def test_provably_negative_seek_offset(self):
        findings = lint_snippet(
            "RL017",
            """
            def rewind(handle, size):
                position = 0 - 8
                handle.seek(position)
            """,
        )
        assert codes_of(findings) == ["RL017"]
        assert findings[0].line == 4

    def test_literal_tail_index_is_idiomatic(self):
        """arr[-1] is the accepted Python idiom — never flagged without a
        provable length contradiction."""
        assert lint_snippet(
            "RL017",
            """
            import numpy as np

            def tail(values, n):
                arr = np.zeros(n)
                return arr[-1]
            """,
        ) == []

    def test_seek_with_whence_allows_negative(self):
        assert lint_snippet(
            "RL017",
            """
            def back(handle):
                position = 0 - 8
                handle.seek(position, 2)
            """,
        ) == []

    def test_guard_makes_index_safe(self):
        assert lint_snippet(
            "RL017",
            """
            import numpy as np

            def read(values, n, i):
                arr = np.zeros(n)
                if i < 0:
                    raise ValueError("negative index")
                return arr[i]
            """,
        ) == []

    def test_range_loop_index_is_quiet(self):
        assert lint_snippet(
            "RL017",
            """
            import numpy as np

            def walk(n):
                arr = np.zeros(n)
                total = 0.0
                for i in range(4):
                    total += arr[i]
                return total
            """,
        ) == []
