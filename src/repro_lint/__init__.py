"""Project-specific static analysis: the invariant linter behind ``repro lint``.

A sibling of the ``repro`` runtime package, not part of it: it imports
nothing from ``repro``, and ``repro.cli`` imports it only to hand a
``repro lint`` invocation to :func:`repro_lint.cli.main`.

Every silent-correctness bug fixed in PR 2 — the last-write-wins fancy
indexing of a restart vector (``uniform_restarts`` builds them now), the ``transfer_view`` build-once
latch, the shared-rates mutation in ``SearchEngine`` — belongs to a
statically detectable pattern class.  This package encodes those classes as
AST checkers (RL001, RL002, RL004, RL005) and, since PR 5, a *flow-sensitive* checker
(RL007, see :mod:`repro_lint.checkers`) that reasons over
per-function control-flow graphs — so the next occurrence is caught in
review, not in production rankings.

Layers:

* :mod:`repro_lint.findings` — the :class:`Finding` record;
* :mod:`repro_lint.base` — the checker plugin API and registry, and
  :class:`SourceFile`, which owns every traversal (each root node is
  walked once per run, whichever rule asks first);
* :mod:`repro_lint.cfg` — intraprocedural CFG construction;
* :mod:`repro_lint.dataflow` — the worklist fixpoint solver plus the
  reaching-definitions / live-variables reference instances;
* :mod:`repro_lint.lockset` — lock-to-attribute binding and the
  must-held-lockset analysis RL007, RL011 and RL013 run;
* :mod:`repro_lint.callgraph` — the module-resolution project call
  graph behind the interprocedural checkers RL010, RL011 and RL013;
* :mod:`repro_lint.summaries` — bottom-up SCC-ordered function
  summaries (locks, blocking, resources, exceptions);
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
    ProjectChecker,
    SourceFile,
    all_checkers,
    call_chain_metadata,
    checker_codes,
    register,
)
from repro_lint.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    Project,
    build_call_graph,
)
from repro_lint.summaries import (
    FunctionSummary,
    SummaryIndex,
    compute_summaries,
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
from repro_lint.dataflow import (
    DataflowProblem,
    LiveVariables,
    ReachingDefinitions,
    Solution,
    solve,
)
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
    "ProjectChecker",
    "SourceFile",
    "all_checkers",
    "call_chain_metadata",
    "checker_codes",
    "register",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "Project",
    "build_call_graph",
    "FunctionSummary",
    "SummaryIndex",
    "compute_summaries",
    "BasicBlock",
    "ControlFlowGraph",
    "Edge",
    "Header",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "DataflowProblem",
    "LiveVariables",
    "ReachingDefinitions",
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
