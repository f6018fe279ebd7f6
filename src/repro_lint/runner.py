"""The lint driver: walk files, run checkers, apply pragmas and the baseline.

:func:`run_lint` is the one entry point the CLI, CI self-test and benchmarks
all share.  It returns a :class:`LintReport` carrying the *new* findings
(what a CI gate fails on) alongside everything it filtered out — baselined
and pragma-suppressed findings stay inspectable, because a suppression you
cannot audit is a suppression you cannot trust.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro_lint.base import Checker, SourceFile, all_checkers
from repro_lint.baseline import Baseline
from repro_lint.findings import Finding
from repro_lint.pragmas import parse_pragmas

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class LintReport:
    """Everything one lint run produced, pre-partitioned for reporting."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    checker_codes: list[str] = field(default_factory=list)
    #: Wall time per phase; the one phase is ``files`` (read + parse +
    #: checkers).
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Whether the gate passes: no new findings and nothing unparseable."""
        return not self.findings and not self.parse_errors

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


def discover_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    De-duplicated on the *resolved* path, so a file reached through two
    spellings (relative and absolute, or a directory and a file inside it)
    is listed once, under the spelling seen first.
    """
    seen: set[Path] = set()
    result: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                result.append(candidate)
    return result


def lint_source(
    source: SourceFile, checkers: list[Checker]
) -> tuple[list[Finding], list[Finding]]:
    """Run ``checkers`` over one parsed file -> (kept, pragma-suppressed)."""
    pragmas = parse_pragmas(source.lines)
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for checker in checkers:
        for finding in checker.check(source):
            if pragmas.suppresses(finding.line, finding.code):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed


def _parse(path: Path, display: str) -> tuple[SourceFile | None, str]:
    """Read and parse one file -> (source, "") or (None, error message)."""
    try:
        return SourceFile.parse(display, path.read_text(encoding="utf-8")), ""
    except (OSError, SyntaxError, ValueError) as error:
        return None, str(error)


def run_lint(
    paths: list[str | Path],
    checkers: list[Checker] | None = None,
    baseline: Baseline | None = None,
    root: str | Path | None = None,
    scope: set[str] | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return the full report.

    ``root`` anchors the relative file names in findings (default: the
    current working directory when paths are relative, else the paths as
    given) — baselines store those names, so runs from the repo root and
    runs from elsewhere agree as long as ``root`` points at the repo.

    Every file is read and parsed once, and every checker runs on that
    :class:`~repro_lint.base.SourceFile`, so the traversals, CFGs and
    abstract-domain solutions one rule caches on it serve the others.

    ``scope`` (display names, as findings carry them) restricts which files
    are read, linted and reported — ``repro lint --changed`` uses it.
    Nothing is read but the sources, and nothing is written.
    """
    started = time.perf_counter()
    active = checkers if checkers is not None else all_checkers()
    accepted = baseline if baseline is not None else Baseline()
    report = LintReport(checker_codes=[checker.code for checker in active])

    root_path = Path(root) if root is not None else None
    files = [
        (file_path, _display_name(file_path, root_path))
        for file_path in discover_files(paths)
    ]

    phase_started = time.perf_counter()
    for path, display in files:
        if scope is not None and display not in scope:
            continue
        source, error = _parse(path, display)
        if source is None:
            report.parse_errors.append((display, error))
            continue
        report.files_scanned += 1
        kept, suppressed = lint_source(source, active)
        report.suppressed.extend(suppressed)
        for finding in kept:
            if accepted.contains(finding):
                report.baselined.append(finding)
            else:
                report.findings.append(finding)
    report.phase_seconds["files"] = time.perf_counter() - phase_started

    report.findings.sort()
    report.baselined.sort()
    report.suppressed.sort()
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _display_name(file_path: Path, root: Path | None) -> str:
    """Repo-relative POSIX name when possible (stable baseline keys)."""
    candidates = [root] if root is not None else []
    candidates.append(Path.cwd())
    for base in candidates:
        try:
            return file_path.resolve().relative_to(base.resolve()).as_posix()
        except ValueError:
            continue
    return file_path.as_posix()
