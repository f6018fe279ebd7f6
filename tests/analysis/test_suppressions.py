"""Pragma parsing and baseline-file behaviour."""

import io
import json
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro_lint import (
    Baseline,
    Finding,
    SourceFile,
    all_checkers,
    lint_source,
    load_baseline,
    parse_pragmas,
    run_lint,
    save_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _source(snippet: str) -> SourceFile:
    return SourceFile.parse("<snippet>", textwrap.dedent(snippet))


class TestPragmas:
    def test_same_line_code_pragma(self):
        index = parse_pragmas(["x = 1", "y == 0.0  # repro-lint: ignore[RL005]"])
        assert index.suppresses(2, "RL005")
        assert not index.suppresses(2, "RL001")
        assert not index.suppresses(1, "RL005")

    def test_line_above_covers_next_line(self):
        index = parse_pragmas(["# repro-lint: ignore[RL004] fills out-dict", "f(x)"])
        assert index.suppresses(2, "RL004")

    def test_multiple_codes(self):
        index = parse_pragmas(["pass  # repro-lint: ignore[RL001, RL003]"])
        assert index.suppresses(1, "RL001")
        assert index.suppresses(1, "RL003")
        assert not index.suppresses(1, "RL005")

    def test_bare_ignore_suppresses_everything(self):
        index = parse_pragmas(["pass  # repro-lint: ignore"])
        assert index.suppresses(1, "RL001")
        assert index.suppresses(1, "RL006")

    def test_skip_file_in_header_window(self):
        index = parse_pragmas(["# repro-lint: skip-file", "anything"])
        assert index.skip_file
        assert index.suppresses(999, "RL001")

    def test_skip_file_deep_in_module_ignored(self):
        lines = ["x = 1"] * 10 + ["# repro-lint: skip-file"]
        assert not parse_pragmas(lines).skip_file

    def test_pragma_actually_suppresses_finding(self):
        source = _source(
            """
            def check(total):
                if total == 0.0:  # repro-lint: ignore[RL005] exact sentinel test
                    return None
            """
        )
        kept, suppressed = lint_source(source, all_checkers(["RL005"]))
        assert kept == []
        assert [finding.code for finding in suppressed] == ["RL005"]


class TestBaseline:
    def _finding(self, line=3, message="exact '== 0.0' float comparison"):
        return Finding(
            file="src/repro/x.py",
            line=line,
            code="RL005",
            message=message,
            source_line="    if total == 0.0:",
        )

    def test_fingerprint_survives_line_drift(self):
        assert self._finding(line=3).fingerprint() == self._finding(line=40).fingerprint()

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = Baseline.from_findings([self._finding()])
        save_baseline(baseline, path)
        loaded = load_baseline(path)
        assert len(loaded) == 1
        assert loaded.contains(self._finding(line=17))

    def test_missing_file_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="unsupported baseline version"):
            load_baseline(path)

    def test_reasons_preserved_across_rewrite(self, tmp_path):
        finding = self._finding()
        first = Baseline.from_findings([finding])
        first.entries[0] = type(first.entries[0])(
            file=finding.file,
            code=finding.code,
            fingerprint=finding.fingerprint(),
            reason="accepted: documented sentinel",
        )
        prior = Baseline(entries=first.entries)
        rewritten = Baseline.from_findings([finding], reasons=prior)
        assert rewritten.reason_for(finding) == "accepted: documented sentinel"

    def test_changed_source_line_resurfaces(self):
        baseline = Baseline.from_findings([self._finding()])
        moved = Finding(
            file="src/repro/x.py",
            line=3,
            code="RL005",
            message="whatever",
            source_line="    if total_weight == 0.0:",  # the line changed
        )
        assert not baseline.contains(moved)


def pragma_comments(path: Path) -> list[tuple[int, set[str]]]:
    """``(line, codes)`` of every ``repro-lint: ignore`` *comment* in ``path``
    — a pragma quoted in a docstring is a string token and is skipped."""
    found = []
    with path.open(encoding="utf-8") as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type != tokenize.COMMENT:
                continue
            codes = parse_pragmas([token.string]).by_line.get(1)
            if codes is not None:
                found.append((token.start[0], codes))
    return found


def dead_pragmas(report, root: Path, tree: Path) -> list[str]:
    """Pragma comments under ``tree`` that suppress no finding of ``report``,
    a lint of ``tree`` rooted at ``root``."""
    suppressed = {(f.file, f.line, f.code) for f in report.suppressed}
    dead = []
    for path in sorted(tree.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for line, codes in pragma_comments(path):
            live = any(
                (name, covered, code) in suppressed
                for covered in (line, line + 1)
                for code in (codes or report.checker_codes)
            )
            if not live:
                dead.append(f"{name}:{line} ignore[{','.join(sorted(codes))}]")
    return dead


class TestDeadPragmas:
    def test_every_pragma_in_src_suppresses_a_finding(self, src_report):
        """A pragma that suppresses nothing hides the next real finding on
        its line: delete it once the code it excused is gone."""
        assert dead_pragmas(src_report, REPO_ROOT, REPO_ROOT / "src") == []

    def test_the_guard_sees_a_dead_pragma(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "m.py").write_text(
            textwrap.dedent(
                '''
                """Quoted, not a pragma: # repro-lint: ignore[RL005]"""


                def check(total):
                    if total == 0.0:  # repro-lint: ignore[RL005] sentinel
                        return None
                    # repro-lint: ignore[RL005] covers the next line
                    if total == 1.0:
                        return total
                    return total + 1  # repro-lint: ignore[RL005] stale
                '''
            )
        )
        report = run_lint(
            [tmp_path / "pkg"],
            checkers=all_checkers(["RL005"]),
            baseline=Baseline(),
            root=tmp_path,
        )
        assert dead_pragmas(report, tmp_path, tmp_path / "pkg") == [
            "pkg/m.py:11 ignore[RL005]"
        ]
