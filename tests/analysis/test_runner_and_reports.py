"""Runner behaviour, reporters, and the repository self-lint gate.

The self-lint tests are the CI contract of this PR: ``src/`` (and in
particular ``src/repro/serve/``) must stay free of non-baselined findings.
A regression that reintroduces one of the PR 2 bug patterns fails here
before any reviewer reads the diff.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    all_checkers,
    load_baseline,
    render,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def messy_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text(
        "def f(rates):\n    rates['x'] = 1.0\n    return rates\n"
    )
    (tmp_path / "pkg" / "good.py").write_text("VALUE = 1\n")
    (tmp_path / "pkg" / "broken.py").write_text("def f(:\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "ghost.py").write_text("rates['x'] = 1\n")
    return tmp_path


@pytest.fixture
def project_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "helper.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def slow():\n"
        "    time.sleep(0.1)\n"
    )
    (tmp_path / "pkg" / "locked.py").write_text(
        "import threading\n"
        "\n"
        "from pkg.helper import slow\n"
        "\n"
        "\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._state_lock = threading.Lock()\n"
        "        self._state = {}\n"
        "\n"
        "    def refresh(self):\n"
        "        with self._state_lock:\n"
        "            slow()\n"
    )
    return tmp_path


class TestRunner:
    def test_discovers_and_partitions(self, messy_tree):
        report = run_lint([messy_tree / "pkg"], root=messy_tree)
        assert report.files_scanned == 2  # broken.py is a parse error
        assert [finding.code for finding in report.findings] == ["RL004"]
        assert report.findings[0].file == "pkg/bad.py"
        assert len(report.parse_errors) == 1
        assert not report.clean

    def test_pycache_never_scanned(self, messy_tree):
        report = run_lint([messy_tree / "pkg"], root=messy_tree)
        assert all("__pycache__" not in f.file for f in report.findings)

    def test_baseline_filters_known_findings(self, messy_tree):
        first = run_lint([messy_tree / "pkg" / "bad.py"], root=messy_tree)
        baseline = Baseline.from_findings(first.findings)
        second = run_lint(
            [messy_tree / "pkg" / "bad.py"], baseline=baseline, root=messy_tree
        )
        assert second.findings == []
        assert [finding.code for finding in second.baselined] == ["RL004"]
        assert second.clean

    def test_selected_checkers_only(self, messy_tree):
        report = run_lint(
            [messy_tree / "pkg" / "bad.py"],
            checkers=all_checkers(["RL005"]),
            root=messy_tree,
        )
        assert report.findings == []
        assert report.checker_codes == ["RL005"]

    def test_counts_by_code(self, messy_tree):
        report = run_lint([messy_tree / "pkg"], root=messy_tree)
        assert report.counts_by_code() == {"RL004": 1}


class TestReporters:
    @pytest.fixture
    def report(self, messy_tree):
        return run_lint([messy_tree / "pkg"], root=messy_tree)

    def test_text_format(self, report):
        text = render(report, "text")
        assert "pkg/bad.py:2: RL004" in text
        assert "suggestion:" in text
        assert "parse error" in text

    def test_json_format_is_machine_readable(self, report):
        payload = json.loads(render(report, "json"))
        assert payload["files_scanned"] == 2
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "RL004"
        assert payload["findings"][0]["fingerprint"]
        assert payload["counts_by_code"] == {"RL004": 1}

    def test_github_format_emits_workflow_commands(self, report):
        lines = render(report, "github").splitlines()
        assert any(
            line.startswith("::error file=pkg/bad.py,line=2,") for line in lines
        )
        assert any(line.startswith("::notice::repro lint:") for line in lines)

    def test_github_format_escapes_newlines(self, report):
        assert "%0A" not in render(report, "github") or "\n::" in render(
            report, "github"
        )

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError, match="unknown format"):
            render(report, "xml")


class TestSingleParse:
    """One process, one parse per file, the parent's reports byte for byte."""

    def test_unregistered_checker_instance_runs(self, messy_tree):
        from repro.analysis.base import Checker

        class Custom(Checker):  # deliberately NOT @register-ed
            code = "ZZ999"
            name = "custom"
            summary = "test-only"

            def check(self, source):
                yield self.finding(source, source.tree.body[0], "custom hit", "")

        report = run_lint(
            [messy_tree / "pkg" / "bad.py"], checkers=[Custom()], root=messy_tree
        )
        assert [f.code for f in report.findings] == ["ZZ999"]

    @pytest.mark.parametrize("scope", [None, {"pkg/locked.py"}])
    def test_each_file_is_parsed_exactly_once(
        self, project_tree, monkeypatch, scope
    ):
        """The project phase reuses the file phase's ``SourceFile`` objects;
        only out-of-scope files are parsed there."""
        from repro.analysis.base import SourceFile

        parsed = []
        original = SourceFile.parse.__func__

        def counting(cls, path, text):
            parsed.append(path)
            return original(cls, path, text)

        monkeypatch.setattr(SourceFile, "parse", classmethod(counting))
        (project_tree / "pkg" / "broken.py").write_text("def f(:\n")
        report = run_lint([project_tree / "pkg"], root=project_tree, scope=scope)
        assert sorted(parsed) == ["pkg/broken.py", "pkg/helper.py", "pkg/locked.py"]
        assert [f.code for f in report.findings] == ["RL013"]

    def test_project_phase_reuses_the_file_phase_caches(self, project_tree):
        """A CFG built by a per-file checker is the one RL010-RL017 see."""
        from repro.analysis.base import Checker, ProjectChecker

        seen = {}

        class Warm(Checker):
            code = "ZZ001"

            def check(self, source):
                seen.update({id(f): source.cfg_for(f) for f in source.functions()})
                return iter(())

        class Reuse(ProjectChecker):
            code = "ZZ002"

            def check_project(self, project):
                for info in project.graph.functions.values():
                    assert info.cfg() is seen[id(info.node)]
                return iter(())

        run_lint([project_tree / "pkg"], checkers=[Warm(), Reuse()], root=project_tree)
        assert len(seen) == 3  # slow, Service.__init__, Service.refresh

    @pytest.mark.parametrize("tree_name", ["messy", "project"])
    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_reports_equal_the_recorded_ones_byte_for_byte(
        self, request, tree_name, fmt
    ):
        """``golden_reports.json`` was rendered by the last commit that had
        the per-file process pool and the second parse (timings and the
        interpreter's syntax-error wording templated out)."""
        golden = json.loads(
            (Path(__file__).parent / "golden_reports.json").read_text()
        )
        tree = request.getfixturevalue(f"{tree_name}_tree")
        report = run_lint([tree / "pkg"], root=tree)
        try:
            compile("def f(:\n", "pkg/broken.py", "exec")
        except SyntaxError as error:
            parse_error = str(error)
        elapsed = (
            f"{report.elapsed_seconds:.2f}"
            if fmt == "text"
            else json.dumps(report.elapsed_seconds)
        )
        expected = (
            golden[f"{tree_name}.{fmt}"]
            .replace("{parse_error}", parse_error)
            .replace("{elapsed}", elapsed)
        )
        assert render(report, fmt) == expected


class TestDiscovery:
    def test_one_file_through_two_spellings_is_linted_once(
        self, messy_tree, monkeypatch
    ):
        """Regression: de-duplication was on the path as typed, so a relative
        and an absolute spelling of one directory linted every file twice."""
        from repro.analysis import discover_files

        monkeypatch.chdir(messy_tree)
        found = discover_files(["pkg", messy_tree / "pkg", "pkg/bad.py"])
        assert found == [Path("pkg/bad.py"), Path("pkg/broken.py"), Path("pkg/good.py")]
        report = run_lint(["pkg", messy_tree / "pkg"], root=messy_tree)
        assert report.files_scanned == 2
        assert [f.code for f in report.findings] == ["RL004"]
        assert len(report.parse_errors) == 1

    def test_duplicate_spellings_do_not_duplicate_definitions(
        self, project_tree, monkeypatch
    ):
        monkeypatch.chdir(project_tree)
        report = run_lint(["pkg", project_tree / "pkg"], root=project_tree)
        assert [f.code for f in report.findings] == ["RL013"]


class TestSarifReporter:
    @pytest.fixture
    def sarif(self, messy_tree):
        report = run_lint([messy_tree / "pkg"], root=messy_tree)
        return json.loads(render(report, "sarif"))

    def test_log_shape_and_rules(self, sarif):
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        codes = [rule["id"] for rule in driver["rules"]]
        assert codes == [f"RL{i:03d}" for i in range(1, 18)]
        assert all(rule["shortDescription"]["text"] for rule in driver["rules"])

    def test_results_carry_location_and_fingerprint(self, sarif):
        (run,) = sarif["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "RL004"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "pkg/bad.py"
        assert location["region"]["startLine"] == 2
        assert result["partialFingerprints"]["reproLintFingerprint/v1"]
        assert result["ruleIndex"] == 3  # RL004 in the registry ordering

    def test_parse_errors_become_notifications(self, sarif):
        (run,) = sarif["runs"]
        (invocation,) = run["invocations"]
        assert invocation["executionSuccessful"] is False
        (notification,) = invocation["toolExecutionNotifications"]
        assert "parse error" in notification["message"]["text"]

    def test_suppressed_and_baselined_results_are_marked(self, messy_tree):
        bad = messy_tree / "pkg" / "bad.py"
        first = run_lint([bad], root=messy_tree)
        baseline = Baseline.from_findings(first.findings)
        (messy_tree / "pkg" / "quiet.py").write_text(
            "def f(rates):\n"
            "    rates['x'] = 1.0  # repro-lint: ignore[RL004] test fixture\n"
        )
        report = run_lint([messy_tree / "pkg"], baseline=baseline, root=messy_tree)
        payload = json.loads(render(report, "sarif"))
        kinds = {
            result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]:
            [s["kind"] for s in result.get("suppressions", [])]
            for result in payload["runs"][0]["results"]
        }
        assert kinds["pkg/bad.py"] == ["external"]
        assert kinds["pkg/quiet.py"] == ["inSource"]

    def test_metadata_surfaces_as_result_properties(self, tmp_path):
        (tmp_path / "loop.py").write_text(
            "def iterate(x, tol):\n"
            "    residual = 1.0\n"
            "    while residual > tol:\n"
            "        x, residual = step(x)\n"
            "    return x\n"
        )
        report = run_lint([tmp_path], root=tmp_path)
        payload = json.loads(render(report, "sarif"))
        (result,) = [
            r for r in payload["runs"][0]["results"] if r["ruleId"] == "RL008"
        ]
        assert result["properties"]["loop_span"] == [3, 4]


class TestBaselineMetadataStability:
    """Richer finding metadata must never invalidate a baseline entry."""

    def test_fingerprint_ignores_metadata(self):
        from repro.analysis.findings import Finding

        bare = Finding("f.py", 3, "RL007", "msg", source_line="x = self._rates")
        rich = Finding(
            "f.py", 3, "RL007", "msg", source_line="x = self._rates",
            metadata={"lock": "_rates_lock"},
        )
        assert bare.fingerprint() == rich.fingerprint()

    def test_baseline_written_before_metadata_still_matches(self):
        from repro.analysis.findings import Finding

        old = Finding("f.py", 3, "RL008", "msg", source_line="while r > tol:")
        baseline = Baseline.from_findings([old])
        new = Finding(
            "f.py", 9, "RL008", "msg", source_line="while r > tol:",
            metadata={"loop_span": [9, 12]},
        )
        assert baseline.contains(new)  # line drift + new metadata: still known


@pytest.fixture(scope="module")
def src_report():
    """One full lint of ``src/`` with every rule and an empty baseline — the
    several-second run both whole-tree gate tests assert over."""
    return run_lint([REPO_ROOT / "src"], baseline=Baseline(), root=REPO_ROOT)


class TestRepositorySelfLint:
    """The analyzer runs clean over its own repository (ISSUE 3 gate)."""

    def test_src_has_zero_non_baselined_findings(self, src_report):
        baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        assert src_report.parse_errors == []
        new = [f for f in src_report.findings if not baseline.contains(f)]
        assert new == [], render(src_report, "text")

    def test_src_is_clean_with_an_empty_baseline_and_all_rules(self, src_report):
        """The self-lint gate: nothing hides behind the baseline — the
        interprocedural RL010–RL013 and the abstract-interpretation
        RL014–RL017 included."""
        assert len(src_report.checker_codes) == 17
        assert {"RL010", "RL011", "RL012", "RL013"} <= set(
            src_report.checker_codes
        )
        assert {"RL014", "RL015", "RL016", "RL017"} <= set(
            src_report.checker_codes
        )
        assert src_report.findings == [], render(src_report, "text")

    def test_serve_package_is_clean_without_any_baseline(self):
        """The RL003 audit target: repro.serve passes with an EMPTY baseline."""
        report = run_lint(
            [REPO_ROOT / "src" / "repro" / "serve"],
            baseline=Baseline(),
            root=REPO_ROOT,
        )
        assert report.findings == [], render(report, "text")
        assert report.files_scanned >= 5

    def test_query_engine_is_clean_without_any_baseline(self):
        report = run_lint(
            [REPO_ROOT / "src" / "repro" / "query"],
            baseline=Baseline(),
            root=REPO_ROOT,
        )
        assert report.findings == [], render(report, "text")

    def test_lock_discipline_actually_bound_in_serve(self):
        """Guard against silently losing the RL003 attribute<->lock binding."""
        import ast

        from repro.analysis.base import SourceFile
        from repro.analysis.checkers.lock_discipline import (
            guarded_attributes,
            lock_attributes,
        )

        path = REPO_ROOT / "src" / "repro" / "serve" / "service.py"
        source = SourceFile.parse(str(path), path.read_text())
        guarded = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                locks = lock_attributes(source, node)
                if locks:
                    guarded.update(guarded_attributes(source, node, locks))
        assert guarded.get("current_rates") == "_rates_lock"
        assert guarded.get("reformulations_applied") == "_rates_lock"
        assert guarded.get("_precomputed") == "_precompute_lock"
        assert guarded.get("_runtimes") == "_runtimes_lock"


class TestProjectPhase:
    """The interprocedural phase: cross-file context, scope, pragmas."""

    def test_cross_file_finding_with_call_chain(self, project_tree):
        report = run_lint([project_tree / "pkg"], root=project_tree)
        (finding,) = report.findings
        assert finding.code == "RL013"
        assert finding.file == "pkg/locked.py"
        chain = finding.metadata["call_chain"]
        assert [step["file"] for step in chain] == [
            "pkg/locked.py",
            "pkg/helper.py",
        ]

    def test_scope_keeps_cross_file_context(self, project_tree):
        """Linting only locked.py still sees helper.py's blocking summary."""
        report = run_lint(
            [project_tree / "pkg"],
            root=project_tree,
            scope={"pkg/locked.py"},
        )
        assert [f.code for f in report.findings] == ["RL013"]
        assert report.files_scanned == 1

    def test_scope_drops_findings_in_unscoped_files(self, project_tree):
        report = run_lint(
            [project_tree / "pkg"],
            root=project_tree,
            scope={"pkg/helper.py"},
        )
        assert report.findings == []

    def test_pragma_suppresses_a_project_finding(self, project_tree):
        locked = project_tree / "pkg" / "locked.py"
        text = locked.read_text().replace(
            "            slow()",
            "            # repro-lint: ignore[RL013] test fixture\n"
            "            slow()",
        )
        locked.write_text(text)
        report = run_lint([project_tree / "pkg"], root=project_tree)
        assert report.findings == []
        assert [f.code for f in report.suppressed] == ["RL013"]

    def test_baseline_absorbs_project_findings(self, project_tree):
        first = run_lint([project_tree / "pkg"], root=project_tree)
        baseline = Baseline.from_findings(first.findings)
        second = run_lint(
            [project_tree / "pkg"], baseline=baseline, root=project_tree
        )
        assert second.findings == []
        assert [f.code for f in second.baselined] == ["RL013"]
        assert second.clean

    def test_phase_timings_recorded(self, project_tree):
        report = run_lint([project_tree / "pkg"], root=project_tree)
        assert set(report.phase_seconds) == {
            "files",
            "project-build",
            "project-check",
        }
        assert all(value >= 0 for value in report.phase_seconds.values())

    def test_sarif_code_flows_from_the_call_chain(self, project_tree):
        report = run_lint([project_tree / "pkg"], root=project_tree)
        payload = json.loads(render(report, "sarif"))
        (result,) = [
            r for r in payload["runs"][0]["results"] if r["ruleId"] == "RL013"
        ]
        (flow,) = result["codeFlows"]
        (thread_flow,) = flow["threadFlows"]
        steps = thread_flow["locations"]
        uris = [
            step["location"]["physicalLocation"]["artifactLocation"]["uri"]
            for step in steps
        ]
        assert uris == ["pkg/locked.py", "pkg/helper.py"]
        assert all(step["location"]["message"]["text"] for step in steps)
        # the chain was promoted out of properties: no duplication
        assert "call_chain" not in result.get("properties", {})


class TestSarifValidator:
    """``scripts/validate_sarif.py`` — the offline shape check CI runs
    before uploading the log to code scanning."""

    @staticmethod
    def _validator():
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "validate_sarif", REPO_ROOT / "scripts" / "validate_sarif.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def payload(self, messy_tree):
        report = run_lint([messy_tree / "pkg"], root=messy_tree)
        return json.loads(render(report, "sarif"))

    def test_rendered_log_is_valid(self, payload):
        assert self._validator().validate(payload) == []

    def test_log_with_code_flows_is_valid(self, tmp_path):
        import textwrap

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
        report = run_lint([module], baseline=Baseline(), root=tmp_path)
        payload = json.loads(render(report, "sarif"))
        assert any(
            "codeFlows" in result
            for run in payload["runs"]
            for result in run["results"]
        )
        assert self._validator().validate(payload) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.update(version="2.0.0"), "version"),
            (lambda p: p.update(runs=[]), "runs"),
            (
                lambda p: p["runs"][0]["results"][0].pop("message"),
                "message.text",
            ),
            (
                lambda p: p["runs"][0]["results"][0].update(ruleId="RL999"),
                "not in tool.driver.rules",
            ),
            (
                lambda p: p["runs"][0]["results"][0]["locations"][0][
                    "physicalLocation"
                ]["region"].update(startLine=0),
                "startLine",
            ),
        ],
    )
    def test_broken_logs_are_rejected(self, payload, mutate, fragment):
        mutate(payload)
        errors = self._validator().validate(payload)
        assert errors and any(fragment in error for error in errors)

    def test_cli_entry_exit_codes(self, payload, tmp_path, capsys):
        validator = self._validator()
        log = tmp_path / "log.sarif"
        log.write_text(json.dumps(payload))
        assert validator.main([str(log)]) == 0
        assert "valid SARIF 2.1.0" in capsys.readouterr().out
        log.write_text("{")
        assert validator.main([str(log)]) == 1
        assert validator.main([]) == 2
