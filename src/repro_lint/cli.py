"""``repro lint``: the linter's command line.

``repro.cli`` hands a ``repro lint ...`` invocation to :func:`main` before
parsing anything itself, so the linter's flags, formats and exit codes live
here, beside the code they drive, and no other ``repro`` command imports
this package.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro_lint import (
    Baseline,
    all_checkers,
    load_baseline,
    render,
    run_lint,
    save_baseline,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser."""
    lint = argparse.ArgumentParser(prog="repro lint")
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint.add_argument(
        "--format", choices=["text", "json", "github", "sarif"], default="text",
        help="report format (github emits workflow-command annotations; "
        "sarif emits a SARIF 2.1.0 log for code-scanning uploads)",
    )
    lint.add_argument(
        "--baseline", default=".repro-lint-baseline.json",
        help="accepted-findings file (missing file = empty baseline)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    lint.add_argument(
        "--select", nargs="*", default=None, metavar="CODE",
        help="run only these rule codes (default: all registered)",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only files with uncommitted git changes (outside a git "
        "checkout this falls back to a full run)",
    )
    return lint


def main(argv: Sequence[str] | None = None) -> int:
    """Run ``repro lint`` with ``argv`` (the arguments after ``lint``).

    Exit codes: 0 when no new findings (baselined and pragma-suppressed ones
    do not count), 1 when findings or parse errors remain, 2 on usage errors.
    """
    args = build_parser().parse_args(argv)
    try:
        checkers = all_checkers(args.select)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline = Baseline() if args.no_baseline else load_baseline(args.baseline)
    scope = None
    if args.changed:
        scope = _changed_python_files()
        if scope is None:
            print(
                "repro lint: --changed needs a git checkout; "
                "linting everything",
                file=sys.stderr,
            )
    report = run_lint(args.paths, checkers=checkers, baseline=baseline, scope=scope)

    if args.write_baseline:
        accepted = report.findings + report.baselined
        save_baseline(Baseline.from_findings(accepted, reasons=baseline), args.baseline)
        print(
            f"wrote {args.baseline} with {len(accepted)} accepted finding(s)",
            file=sys.stderr,
        )
        return 0

    print(render(report, args.format))
    return 0 if report.clean else 1


def _changed_python_files() -> set[str] | None:
    """Cwd-relative names of ``.py`` files with uncommitted git changes.

    Asks ``git status --porcelain`` (worktree + index vs HEAD, renames
    resolved to their new name) so a pre-commit ``repro lint --changed``
    covers exactly what the commit would ship.  ``--untracked-files=all``
    expands untracked *directories* into their files — by default git
    collapses a new package to ``?? pkg/`` and every module inside it would
    silently escape the lint.  Returns ``None`` when git is unavailable or
    the cwd is not inside a work tree — the caller falls back to a full run
    rather than silently linting nothing.
    """
    import subprocess
    from pathlib import Path

    try:
        toplevel = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    changed: set[str] = set()
    root = Path(toplevel)
    cwd = Path.cwd().resolve()
    for line in status.splitlines():
        if len(line) < 4:
            continue
        path = line[3:].strip().strip('"')
        if " -> " in path:
            path = path.split(" -> ", 1)[1]
        if not path.endswith(".py"):
            continue
        try:
            display = (root / path).resolve().relative_to(cwd).as_posix()
        except ValueError:
            continue  # changed file outside the directory being linted
        changed.add(display)
    return changed
