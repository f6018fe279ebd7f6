"""RL014 — unvalidated wire input reaching a dangerous sink.

The serve/ingest tier parses JSON bodies, query strings and socket frames
from millions of simulated users (ROADMAP north star); everything those
parsers return is attacker-controlled until a typed strict parser
(``mutation_from_json``, the ``_require_*``/``_optional_*`` helpers) or an
explicit range check has judged it.  A value that reaches a **sink** —
numpy fancy indexing, a slab/struct offset, a filesystem path, a transfer
rate — while still carrying the ``wire`` taint label is a remote crash (or
worse: ``seek`` to an attacker offset, a path join outside the data
directory, a rate that breaks the convergence invariant).

The facts come from the taint instance of the abstract interpreter
(:mod:`repro_lint.absint`) propagated through the bottom-up summary
fixpoint: each :class:`~repro_lint.summaries.FunctionSummary` records
the sinks concrete wire data reaches inside the function *or in any
transitively resolved callee it forwards the data to*, together with the
witness call chain.  The chain lands in ``metadata["call_chain"]`` and is
rendered as a SARIF ``codeFlow``, so a reviewer can walk the wire→sink
path step by step in the report.

Sanitization is the absence of the fact: taint dropped by a strict parser
or a range-check branch never arrives here, so every finding is a path the
analysis could not prove validated.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import ProjectChecker, call_chain_metadata, register
from repro_lint.callgraph import Project
from repro_lint.findings import Finding

#: What each sink kind means to an operator, for the message.
_SINK_RISK = {
    "index": "an array index (out-of-bounds read or IndexError on request)",
    "offset": "a buffer/file offset (reads outside the intended slab region)",
    "path": "a filesystem path (escapes the data directory)",
    "rate": "a transfer-rate assignment (breaks the convergence invariant)",
}


@register
class WireTaintChecker(ProjectChecker):
    code = "RL014"
    name = "wire-input-to-sink"
    summary = (
        "wire-parsed input reaches an index/offset/path/rate sink with no "
        "validation on the path"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        for function_id in sorted(project.graph.functions):
            summary = summaries.get(function_id)
            if summary is None or not summary.wire_sinks:
                continue
            info = project.graph.functions[function_id]
            for (kind, line), (chain, detail) in sorted(
                summary.wire_sinks.items()
            ):
                risk = _SINK_RISK.get(kind, f"a {kind} sink")
                anchor = ast.Pass(lineno=line, col_offset=0)
                yield self.finding_in(
                    project,
                    info,
                    anchor,
                    f"unvalidated wire input reaches {detail} in "
                    f"'{info.qualname}' — the value is used as {risk} "
                    "without a typed parse or range check on this path.",
                    "validate through the typed strict parsers "
                    "(mutation_from_json / _require_* / _optional_*) or "
                    "add an explicit bounds check before the sink.",
                    metadata={
                        "sink": kind,
                        "detail": detail,
                        "call_chain": call_chain_metadata(project, chain),
                    },
                )
