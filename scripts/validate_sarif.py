"""Structural validator for the SARIF 2.1.0 logs ``repro lint`` emits.

CI generates ``repro-lint.sarif`` and uploads it to code scanning; an
upload that the ingestion endpoint rejects fails *silently* (the job step
succeeds, the findings just never appear).  This validator pins the
subset of the SARIF 2.1.0 spec the upload actually depends on — schema
pointer, version, run/tool/rule shape, result locations and rule cross
references — without any network access or third-party schema library.

Usage::

    python scripts/validate_sarif.py repro-lint.sarif

Exits 0 when the log is structurally valid, 1 with one line per violation
otherwise.  Importable: ``validate(payload)`` returns the violation list.
"""

from __future__ import annotations

import json
import sys

SCHEMA_MARKER = "sarif-2.1.0"
VERSION = "2.1.0"
LEVELS = {"none", "note", "warning", "error"}


def validate(payload: object) -> list[str]:
    """Every violation of the SARIF 2.1.0 subset we rely on, as strings."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["top level: expected a JSON object"]
    schema = payload.get("$schema", "")
    if SCHEMA_MARKER not in str(schema):
        errors.append(f"$schema: expected a 2.1.0 schema URI, got {schema!r}")
    if payload.get("version") != VERSION:
        errors.append(
            f"version: expected {VERSION!r}, got {payload.get('version')!r}"
        )
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs: expected a non-empty array"]
    for run_index, run in enumerate(runs):
        errors.extend(_validate_run(run, f"runs[{run_index}]"))
    return errors


def _validate_run(run: object, where: str) -> list[str]:
    errors: list[str] = []
    if not isinstance(run, dict):
        return [f"{where}: expected an object"]
    driver = run.get("tool", {}).get("driver", {})
    if not isinstance(driver, dict) or not driver.get("name"):
        errors.append(f"{where}.tool.driver.name: required")
    rules = driver.get("rules", []) if isinstance(driver, dict) else []
    rule_ids: list[str] = []
    for rule_index, rule in enumerate(rules):
        rule_where = f"{where}.tool.driver.rules[{rule_index}]"
        if not isinstance(rule, dict) or not rule.get("id"):
            errors.append(f"{rule_where}.id: required")
            continue
        rule_ids.append(rule["id"])
        description = rule.get("shortDescription", {})
        if not isinstance(description, dict) or not description.get("text"):
            errors.append(f"{rule_where}.shortDescription.text: required")
    if len(rule_ids) != len(set(rule_ids)):
        errors.append(f"{where}: duplicate rule ids")

    results = run.get("results")
    if not isinstance(results, list):
        return errors + [f"{where}.results: expected an array"]
    known = set(rule_ids)
    for result_index, result in enumerate(results):
        errors.extend(
            _validate_result(
                result, known, f"{where}.results[{result_index}]"
            )
        )
    return errors


def _validate_result(result: object, rule_ids: set, where: str) -> list[str]:
    errors: list[str] = []
    if not isinstance(result, dict):
        return [f"{where}: expected an object"]
    rule_id = result.get("ruleId")
    if not rule_id:
        errors.append(f"{where}.ruleId: required")
    elif rule_ids and rule_id not in rule_ids:
        errors.append(f"{where}.ruleId: {rule_id!r} not in tool.driver.rules")
    if result.get("level") not in LEVELS:
        errors.append(f"{where}.level: {result.get('level')!r} not in {sorted(LEVELS)}")
    message = result.get("message", {})
    if not isinstance(message, dict) or not message.get("text"):
        errors.append(f"{where}.message.text: required")
    locations = result.get("locations")
    if not isinstance(locations, list) or not locations:
        errors.append(f"{where}.locations: expected a non-empty array")
        locations = []
    for loc_index, location in enumerate(locations):
        errors.extend(
            _validate_location(location, f"{where}.locations[{loc_index}]")
        )
    return errors


def _validate_location(location: object, where: str) -> list[str]:
    if not isinstance(location, dict):
        return [f"{where}: expected an object"]
    physical = location.get("physicalLocation")
    if not isinstance(physical, dict):
        return [f"{where}.physicalLocation: required"]
    errors: list[str] = []
    artifact = physical.get("artifactLocation", {})
    if not isinstance(artifact, dict) or not artifact.get("uri"):
        errors.append(f"{where}.physicalLocation.artifactLocation.uri: required")
    region = physical.get("region", {})
    start = region.get("startLine") if isinstance(region, dict) else None
    if not isinstance(start, int) or start < 1:
        errors.append(
            f"{where}.physicalLocation.region.startLine: "
            f"expected a positive integer, got {start!r}"
        )
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_sarif.py <log.sarif>", file=sys.stderr)
        return 2
    try:
        with open(argv[0], "rb") as log:
            payload = json.load(log)
    except (OSError, ValueError) as error:
        print(f"{argv[0]}: unreadable SARIF log: {error}", file=sys.stderr)
        return 1
    errors = validate(payload)
    for error in errors:
        print(f"{argv[0]}: {error}", file=sys.stderr)
    if not errors:
        runs = payload["runs"]
        results = sum(len(run.get("results", [])) for run in runs)
        print(
            f"{argv[0]}: valid SARIF {VERSION} "
            f"({len(runs)} run(s), {results} result(s))"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
