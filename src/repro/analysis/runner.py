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

from repro.analysis.base import Checker, ProjectChecker, SourceFile, all_checkers
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.pragmas import parse_pragmas

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
    #: Wall time per phase: ``files`` (read + parse + per-file checkers),
    #: ``project-build`` (call graph + summaries over the same parsed
    #: files) and ``project-check`` (interprocedural checkers) when any ran.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: SCC fixpoint rounds the project phase ran *this* run.  Zero when the
    #: summary cache hit (or no project checker ran) — the acceptance
    #: criterion for a no-op ``--changed`` run.
    fixpoint_rounds: int = 0
    #: ``"hit"``/``"miss"`` when a cache path was given, else ``""``.
    summary_cache: str = ""

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
    cache: str | Path | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return the full report.

    ``root`` anchors the relative file names in findings (default: the
    current working directory when paths are relative, else the paths as
    given) — baselines store those names, so runs from the repo root and
    runs from elsewhere agree as long as ``root`` points at the repo.

    Every file is read and parsed once.  The per-file checkers run on that
    :class:`~repro.analysis.base.SourceFile`; interprocedural checkers
    (:class:`~repro.analysis.base.ProjectChecker`) then run in a second
    phase over one :class:`~repro.analysis.callgraph.Project` built from the
    *same* objects, so the CFGs and abstract-domain solutions the first
    phase cached on them are reused: summaries are computed bottom-up, then
    each project checker runs once.

    ``scope`` (display names, as findings carry them) restricts which files
    are *linted and reported* — ``repro lint --changed`` uses it — while the
    project phase still parses everything, so summaries of unchanged
    helpers stay visible to the checkers.

    ``cache`` names a file persisting the interprocedural summary index
    between runs, keyed on per-file content hashes (see
    :mod:`~repro.analysis.summary_cache`).  On a full match the project
    phase skips the summary fixpoint entirely (``report.fixpoint_rounds``
    stays 0); on any mismatch it recomputes and rewrites the cache.
    """
    started = time.perf_counter()
    active = checkers if checkers is not None else all_checkers()
    file_checkers = [c for c in active if not isinstance(c, ProjectChecker)]
    project_checkers = [c for c in active if isinstance(c, ProjectChecker)]
    accepted = baseline if baseline is not None else Baseline()
    report = LintReport(checker_codes=[checker.code for checker in active])

    root_path = Path(root) if root is not None else None
    files = [
        (file_path, _display_name(file_path, root_path))
        for file_path in discover_files(paths)
    ]

    def keep(finding: Finding) -> None:
        if accepted.contains(finding):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)

    phase_started = time.perf_counter()
    parsed: dict[Path, SourceFile | None] = {}
    for path, display in files:
        if scope is not None and display not in scope:
            continue
        source, error = _parse(path, display)
        parsed[path] = source
        if source is None:
            report.parse_errors.append((display, error))
            continue
        report.files_scanned += 1
        kept, suppressed = lint_source(source, file_checkers)
        report.suppressed.extend(suppressed)
        for finding in kept:
            keep(finding)
    report.phase_seconds["files"] = time.perf_counter() - phase_started

    if project_checkers:
        _run_project_phase(
            report, files, parsed, scope, project_checkers, keep, cache
        )

    report.findings.sort()
    report.baselined.sort()
    report.suppressed.sort()
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _run_project_phase(
    report: LintReport,
    files: list[tuple[Path, str]],
    parsed: dict[Path, SourceFile | None],
    scope: set[str] | None,
    project_checkers: list[Checker],
    keep,
    cache: str | Path | None = None,
) -> None:
    """Build the whole-program context and run the interprocedural checkers.

    The project is every parseable file: the ones the file phase already
    ``parsed`` as they are, the out-of-scope rest parsed here.  Pragmas and
    the baseline apply exactly as in the per-file phase; findings outside
    ``scope`` are dropped (their files were not asked about), and files
    whose first lines carry ``skip-file`` contribute no findings (their
    *definitions* still feed the call graph — a skip-file pragma silences
    findings in that file, it does not falsify summaries).
    """
    from repro.analysis.callgraph import Project
    from repro.analysis.summaries import SummaryIndex
    from repro.analysis.summary_cache import (
        file_hashes,
        load_summaries,
        store_summaries,
    )

    phase_started = time.perf_counter()
    sources = [
        parsed[path] if path in parsed else _parse(path, display)[0]
        for path, display in files
    ]
    project = Project([source for source in sources if source is not None])
    hashes = file_hashes(project.sources) if cache is not None else {}
    cached = load_summaries(cache, hashes) if cache is not None else None
    if cached is not None:
        index = SummaryIndex(project)
        index.by_id = cached["by_id"]
        index.converged = cached["converged"]
        project.adopt_summaries(index)
        report.summary_cache = "hit"
    summaries = project.summaries()  # builds here unless the cache hit
    report.fixpoint_rounds = sum(summaries.scc_rounds)
    if cache is not None and cached is None:
        store_summaries(cache, hashes, summaries)
        report.summary_cache = "miss"
    report.phase_seconds["project-build"] = (
        time.perf_counter() - phase_started
    )

    phase_started = time.perf_counter()
    pragma_index: dict[str, object] = {}
    for source in project.sources:
        pragma_index[source.path] = parse_pragmas(source.lines)
    for checker in project_checkers:
        for finding in checker.check_project(project):
            if scope is not None and finding.file not in scope:
                continue
            pragmas = pragma_index.get(finding.file)
            if pragmas is not None and pragmas.suppresses(
                finding.line, finding.code
            ):
                report.suppressed.append(finding)
            else:
                keep(finding)
    report.phase_seconds["project-check"] = (
        time.perf_counter() - phase_started
    )


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
