"""Reporters: human text, machine JSON, GitHub annotations, SARIF 2.1.0.

All four render a :class:`~repro_lint.runner.LintReport`:

* ``text`` — one line per finding plus a summary block, for terminals;
* ``json`` — the full report (findings, baselined, suppressed, stats and
  the runner's per-phase wall time) for tooling;
* ``github`` — ``::error file=...,line=...::...`` workflow commands, so a CI
  ``repro lint --format github`` surfaces findings as PR annotations with no
  extra action or upload step;
* ``sarif`` — a SARIF 2.1.0 log for code-scanning uploads
  (``github/codeql-action/upload-sarif``): rule metadata from the checker
  registry, ``partialFingerprints`` from the baseline fingerprint, and
  baselined/pragma-suppressed findings carried as suppressed results so the
  scanning UI can audit them instead of losing them.
"""

from __future__ import annotations

import json

from repro_lint.findings import Finding
from repro_lint.runner import LintReport

FORMATS = ("text", "json", "github", "sarif")

_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_TOOL_URI = "https://github.com/paper-repo/repro"


def render(report: LintReport, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    if fmt == "github":
        return render_github(report)
    if fmt == "sarif":
        return render_sarif(report)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def render_text(report: LintReport) -> str:
    lines: list[str] = []
    for finding in report.findings:
        lines.append(f"{finding.location()}: {finding.code} {finding.message}")
        if finding.suggestion:
            lines.append(f"    suggestion: {finding.suggestion}")
    for path, error in report.parse_errors:
        lines.append(f"{path}: parse error: {error}")
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_scanned} file(s) "
        f"[{report.elapsed_seconds:.2f}s; "
        f"{len(report.baselined)} baselined, "
        f"{len(report.suppressed)} pragma-suppressed]"
    )
    counts = report.counts_by_code()
    if counts:
        lines.append(
            "by code: "
            + ", ".join(f"{code}={count}" for code, count in counts.items())
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "files_scanned": report.files_scanned,
        "elapsed_seconds": report.elapsed_seconds,
        "phase_seconds": report.phase_seconds,
        "checkers": report.checker_codes,
        "findings": [finding.as_dict() for finding in report.findings],
        "baselined": [finding.as_dict() for finding in report.baselined],
        "suppressed": [finding.as_dict() for finding in report.suppressed],
        "parse_errors": [
            {"file": path, "error": error} for path, error in report.parse_errors
        ],
        "counts_by_code": report.counts_by_code(),
        "clean": report.clean,
    }
    return json.dumps(payload, indent=2)


def render_github(report: LintReport) -> str:
    """GitHub workflow commands: one ``::error`` per finding/parse error."""
    lines = [_annotation(finding) for finding in report.findings]
    for path, error in report.parse_errors:
        lines.append(f"::error file={path}::parse error: {_escape(error)}")
    lines.append(
        f"::notice::repro lint: {len(report.findings)} finding(s) in "
        f"{report.files_scanned} file(s)"
    )
    return "\n".join(lines)


def _annotation(finding: Finding) -> str:
    message = finding.message
    if finding.suggestion:
        message = f"{message} Suggestion: {finding.suggestion}"
    return (
        f"::error file={finding.file},line={finding.line},"
        f"col={finding.column + 1},title={finding.code}::{_escape(message)}"
    )


def _escape(message: str) -> str:
    """Escape the characters GitHub workflow commands treat specially."""
    return (
        message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 log: one run, rules from the registry, all findings.

    New findings are plain results; baselined findings carry an ``external``
    suppression and pragma-suppressed ones an ``inSource`` suppression —
    code-scanning backends hide suppressed results by default but keep them
    queryable, matching the report's own audit-everything contract.  Parse
    errors become execution notifications on the invocation, which also
    flips ``executionSuccessful`` off.
    """
    rules, rule_index = _sarif_rules(report)
    results = [
        _sarif_result(finding, rule_index)
        for finding in report.findings
    ]
    for finding in report.baselined:
        results.append(_sarif_result(finding, rule_index, suppression="external"))
    for finding in report.suppressed:
        results.append(_sarif_result(finding, rule_index, suppression="inSource"))
    notifications = [
        {
            "level": "error",
            "message": {"text": f"parse error: {error}"},
            "locations": [_sarif_location(path, None, None)],
        }
        for path, error in report.parse_errors
    ]
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": _TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not report.parse_errors,
                        "toolExecutionNotifications": notifications,
                    }
                ],
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(log, indent=2)


def _sarif_rules(report: LintReport) -> tuple[list[dict], dict[str, int]]:
    """Rule metadata for the run's checkers, from the live registry."""
    from repro_lint.base import all_checkers

    try:
        checkers = all_checkers(report.checker_codes or None)
    except ValueError:
        checkers = all_checkers()  # stale codes: fall back to everything
    rules = [
        {
            "id": checker.code,
            "name": checker.name,
            "shortDescription": {"text": checker.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for checker in checkers
    ]
    return rules, {rule["id"]: index for index, rule in enumerate(rules)}


def _sarif_result(
    finding: Finding,
    rule_index: dict[str, int],
    suppression: str | None = None,
) -> dict:
    message = finding.message
    if finding.suggestion:
        message = f"{message} Suggestion: {finding.suggestion}"
    result = {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": message},
        "locations": [
            _sarif_location(finding.file, finding.line, finding.column + 1)
        ],
        "partialFingerprints": {"reproLintFingerprint/v1": finding.fingerprint()},
    }
    if finding.code in rule_index:
        result["ruleIndex"] = rule_index[finding.code]
    if finding.metadata:
        result["properties"] = dict(finding.metadata)
    if suppression is not None:
        result["suppressions"] = [{"kind": suppression}]
    return result


def _sarif_location(path: str, line: int | None, column: int | None) -> dict:
    physical: dict = {"artifactLocation": {"uri": path}}
    if line is not None:
        region: dict = {"startLine": line}
        if column is not None:
            region["startColumn"] = column
        physical["region"] = region
    return {"physicalLocation": physical}
