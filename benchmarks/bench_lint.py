"""Runtime of the ``repro lint`` invariant analyzer over ``src/``.

The lint CI job carries a hard budget — no caching, well under ten seconds —
so this benchmark records what the analyzer actually costs on the current
tree (files scanned, findings kept/baselined/suppressed, wall time, the
runner's per-phase split and a per-checker breakdown) in
``benchmarks/results/lint.txt``.  Future PRs that add checkers or grow
the tree can see at a glance whether checker cost regressed.

Run directly, as the CI smoke hook, or under pytest::

    PYTHONPATH=src python benchmarks/bench_lint.py
    PYTHONPATH=src python benchmarks/bench_lint.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_lint.py -s

``--smoke`` skips the timing repetitions and only verifies the contract CI
cares about: one pass stays inside the budget and under twice the recorded
wall time.

Unlike the ranking benchmarks this one needs no numpy and no dataset — the
analyzer is stdlib-only by design.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make `benchmarks.` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import write_result

from repro_lint import all_checkers, load_baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The CI budget the lint job promises ("must run in <10s", ISSUE 3).
BUDGET_SECONDS = 10.0
#: Timed repetitions; the reported wall time is the best of these.
REPEATS = 3
#: A smoke run slower than this factor times the recorded wall
#: time in ``benchmarks/results/lint.txt`` fails CI — a checker that
#: quietly went quadratic shows up here, not in a user's pre-commit hook.
REGRESSION_FACTOR = 2.0
#: Never fail the regression gate under this floor — recorded times from a
#: fast machine must not make a slow-but-fine CI runner red.
REGRESSION_FLOOR_SECONDS = 3.0

#: ``LintReport.phase_seconds`` keys in run order, with their table labels.
_PHASE_LABELS = [
    ("files", "read + parse + per-file rules"),
    ("project-build", "call graph + summaries"),
    ("project-check", "project rules"),
]

#: The abstract-interpretation rule groups, timed separately so the
#: results file shows what each *domain* costs on top of parse + graph.
_DOMAIN_GROUPS = [
    ("taint domain (RL014)", ["RL014"]),
    ("value domain (RL015-RL017)", ["RL015", "RL016", "RL017"]),
]


def run_benchmark() -> str:
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    src = REPO_ROOT / "src"

    report = min(
        (run_lint([src], baseline=baseline, root=REPO_ROOT) for _ in range(REPEATS)),
        key=lambda run: run.elapsed_seconds,
    )

    per_checker: list[tuple[str, float, int]] = []
    for code in report.checker_codes:
        started = time.perf_counter()
        only = run_lint([src], checkers=all_checkers([code]), root=REPO_ROOT)
        per_checker.append(
            (code, time.perf_counter() - started, len(only.findings))
        )

    per_domain: list[tuple[str, float, int]] = []
    for label, codes in _DOMAIN_GROUPS:
        group = [code for code in codes if code in report.checker_codes]
        if not group:
            continue
        started = time.perf_counter()
        only = run_lint(
            [src], checkers=all_checkers(group), root=REPO_ROOT
        )
        per_domain.append(
            (label, time.perf_counter() - started, len(only.findings))
        )

    lines = [
        f"repro lint over src/ — {report.files_scanned} files, "
        f"{len(report.checker_codes)} checkers (best of {REPEATS})",
        f"  wall time            : {report.elapsed_seconds * 1000:8.1f} ms   "
        f"(CI budget {BUDGET_SECONDS:.0f} s)",
        f"  new findings         : {len(report.findings):5d}",
        f"  baselined            : {len(report.baselined):5d}",
        f"  pragma-suppressed    : {len(report.suppressed):5d}",
        f"  parse errors         : {len(report.parse_errors):5d}",
        "  per-phase (of the best run; every file is read and parsed once):",
    ]
    for phase, label in _PHASE_LABELS:
        seconds = report.phase_seconds.get(phase, 0.0)
        lines.append(f"    {label:<30}: {seconds * 1000:7.1f} ms")
    lines.append("  per-domain (full pass with only that domain's rules):")
    for label, seconds, raw_findings in per_domain:
        lines.append(
            f"    {label:<30}: {seconds * 1000:7.1f} ms   "
            f"{raw_findings} non-baselined finding(s)"
        )
    lines.append("  per-checker (full pass incl. parse & project build):")
    for code, seconds, raw_findings in per_checker:
        lines.append(
            f"    {code}: {seconds * 1000:7.1f} ms   "
            f"{raw_findings} non-baselined finding(s)"
        )
    return "\n".join(lines)


def _recorded_seconds() -> float | None:
    """The wall time recorded in ``benchmarks/results/lint.txt``."""
    results = REPO_ROOT / "benchmarks" / "results" / "lint.txt"
    try:
        for line in results.read_text().splitlines():
            if "wall time" in line:
                return float(line.split(":")[1].split("ms")[0]) / 1000.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def run_smoke() -> str:
    """One pass, within budget and within reach of the recorded result.

    Slower than ``REGRESSION_FACTOR`` times ``benchmarks/results/lint.txt``
    fails, so a checker that quietly regressed the runtime budget turns CI
    red before it lands.
    """
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    report = run_lint([REPO_ROOT / "src"], baseline=baseline, root=REPO_ROOT)
    elapsed = report.elapsed_seconds
    assert elapsed < BUDGET_SECONDS, f"smoke pass took {elapsed:.1f}s"
    recorded = _recorded_seconds()
    budget_note = ""
    if recorded is not None:
        allowed = max(REGRESSION_FACTOR * recorded, REGRESSION_FLOOR_SECONDS)
        assert elapsed < allowed, (
            f"lint took {elapsed:.2f}s — more than "
            f"{REGRESSION_FACTOR:.0f}x the recorded {recorded:.2f}s "
            "(benchmarks/results/lint.txt); rerun the benchmark if the "
            "slowdown is intentional"
        )
        budget_note = f" within {allowed:.1f}s budget"
    return (
        f"lint smoke OK: {report.files_scanned} files, "
        f"{len(report.findings)} new finding(s), {elapsed:.2f}s{budget_note}"
    )


def test_lint_runtime_within_ci_budget():
    """Pytest entry: the analyzer stays inside the CI job's time budget."""
    text = run_benchmark()
    write_result("lint", text)
    wall_ms = float(text.splitlines()[1].split(":")[1].split("ms")[0])
    assert wall_ms / 1000.0 < BUDGET_SECONDS


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        print(run_smoke())
    else:
        write_result("lint", run_benchmark())
