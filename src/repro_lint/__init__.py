"""Project-specific static analysis: the invariant linter behind ``repro lint``.

A sibling of the ``repro`` runtime package, not part of it: it imports
nothing from ``repro``, and ``repro.cli`` imports it only to hand a
``repro lint`` invocation to :func:`repro_lint.cli.main`.

Every silent-correctness bug fixed in PR 2 — the last-write-wins fancy
indexing of a restart vector (``uniform_restarts`` builds them now), the ``transfer_view`` build-once
latch, the shared-rates mutation in ``SearchEngine`` — belongs to a
statically detectable pattern class.  This package encodes those classes as
AST checkers (RL001, RL002, RL004, RL005) and checkers that reason over
per-function control-flow graphs (RL010, RL015; see
:mod:`repro_lint.checkers`) — so the next occurrence is caught in review,
not in production rankings.  Every rule reads one file at a time.

Layers:

* :mod:`repro_lint.findings` — the :class:`Finding` record;
* :mod:`repro_lint.base` — the checker plugin API and registry, and
  :class:`SourceFile`, which owns every traversal (each root node is
  walked once per run, whichever rule asks first);
* :mod:`repro_lint.cfg` — intraprocedural CFG construction;
* :mod:`repro_lint.dataflow` — the worklist fixpoint solver;
* :mod:`repro_lint.pragmas` — ``# repro-lint: ignore[RL001]`` inline
  suppressions;
* :mod:`repro_lint.baseline` — the ``.repro-lint-baseline.json``
  accepted-findings file;
* :mod:`repro_lint.runner` — file discovery and the lint driver;
* :mod:`repro_lint.reporting` — text / JSON / GitHub-annotation / SARIF
  output;
* :mod:`repro_lint.cli` — the ``repro lint`` flags, formats and exit codes.
"""

from repro_lint.base import (
    Checker,
    SourceFile,
    all_checkers,
    checker_codes,
    register,
)
from repro_lint.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    Header,
    WithEnter,
    WithExit,
    build_cfg,
)
from repro_lint.dataflow import DataflowProblem, Solution, solve
from repro_lint.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    BaselineEntry,
    load_baseline,
    save_baseline,
)
from repro_lint.findings import Finding
from repro_lint.pragmas import PragmaIndex, parse_pragmas
from repro_lint.reporting import FORMATS, render
from repro_lint.runner import LintReport, discover_files, lint_source, run_lint

__all__ = [
    "Checker",
    "SourceFile",
    "all_checkers",
    "checker_codes",
    "register",
    "BasicBlock",
    "ControlFlowGraph",
    "Edge",
    "Header",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "DataflowProblem",
    "Solution",
    "solve",
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "load_baseline",
    "save_baseline",
    "Finding",
    "PragmaIndex",
    "parse_pragmas",
    "FORMATS",
    "render",
    "LintReport",
    "discover_files",
    "lint_source",
    "run_lint",
]
