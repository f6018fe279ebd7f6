"""Project-specific static analysis: the invariant linter behind ``repro lint``.

Every silent-correctness bug fixed in PR 2 — the last-write-wins fancy
indexing in ``personalized_pagerank``, the ``transfer_view`` build-once
latch, the shared-rates mutation in ``SearchEngine`` — belongs to a
statically detectable pattern class.  This package encodes those classes as
AST checkers (RL001, RL002, RL004, RL005) and, since PR 5, *flow-sensitive* checkers
(RL007–RL009, see :mod:`repro.analysis.checkers`) that reason over
per-function control-flow graphs — so the next occurrence is caught in
review, not in production rankings.

Layers:

* :mod:`repro.analysis.findings` — the :class:`Finding` record;
* :mod:`repro.analysis.base` — the checker plugin API and registry;
* :mod:`repro.analysis.cfg` — intraprocedural CFG construction;
* :mod:`repro.analysis.dataflow` — the worklist fixpoint solver plus the
  reaching-definitions / live-variables reference instances;
* :mod:`repro.analysis.lockset` — lock-to-attribute binding and the
  must-held-lockset analysis RL007, RL011 and RL013 run;
* :mod:`repro.analysis.callgraph` — the module-resolution project call
  graph (PR 8) behind the interprocedural checkers RL010–RL013;
* :mod:`repro.analysis.summaries` — bottom-up SCC-ordered function
  summaries (locks, blocking, resources, exceptions, cache-key tags);
* :mod:`repro.analysis.pragmas` — ``# repro-lint: ignore[RL001]`` inline
  suppressions;
* :mod:`repro.analysis.baseline` — the ``.repro-lint-baseline.json``
  accepted-findings file;
* :mod:`repro.analysis.runner` — file discovery and the lint driver;
* :mod:`repro.analysis.reporting` — text / JSON / GitHub-annotation / SARIF
  output.
"""

from repro.analysis.base import (
    Checker,
    ProjectChecker,
    SourceFile,
    all_checkers,
    call_chain_metadata,
    checker_codes,
    register,
)
from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    Project,
    build_call_graph,
)
from repro.analysis.summaries import (
    FunctionSummary,
    SummaryIndex,
    compute_summaries,
)
from repro.analysis.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    Header,
    WithEnter,
    WithExit,
    build_cfg,
)
from repro.analysis.dataflow import (
    DataflowProblem,
    LiveVariables,
    ReachingDefinitions,
    Solution,
    solve,
)
from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    BaselineEntry,
    load_baseline,
    save_baseline,
)
from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaIndex, parse_pragmas
from repro.analysis.reporting import FORMATS, render
from repro.analysis.runner import LintReport, discover_files, lint_source, run_lint

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
