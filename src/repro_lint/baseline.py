"""The accepted-findings baseline: ``.repro-lint-baseline.json``.

A baseline freezes the findings a team has reviewed and chosen to live with,
so CI fails only on *new* findings.  Entries match by ``(file, code,
fingerprint)`` — the fingerprint hashes the flagged source line, so findings
survive line drift from unrelated edits but resurface when the flagged line
itself changes.  Each entry carries an optional ``reason``; ``repro lint
--write-baseline`` preserves reasons of entries that are still live.

The file format is deliberately boring JSON::

    {
      "version": 1,
      "entries": [
        {"file": "src/repro/x.py", "code": "RL004",
         "fingerprint": "ab12...", "reason": "fills caller's out-dict"}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro_lint.findings import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: location-independent identity plus rationale."""

    file: str
    code: str
    fingerprint: str
    reason: str = ""

    def key(self) -> tuple[str, str, str]:
        return (self.file, self.code, self.fingerprint)


@dataclass
class Baseline:
    """The set of accepted findings, with O(1) membership checks."""

    entries: list[BaselineEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {entry.key(): entry for entry in self.entries}

    def __len__(self) -> int:
        return len(self._index)

    def contains(self, finding: Finding) -> bool:
        return (finding.file, finding.code, finding.fingerprint()) in self._index

    def reason_for(self, finding: Finding) -> str:
        entry = self._index.get((finding.file, finding.code, finding.fingerprint()))
        return entry.reason if entry is not None else ""

    @classmethod
    def from_findings(
        cls, findings: list[Finding], reasons: "Baseline | None" = None
    ) -> "Baseline":
        """A baseline accepting ``findings``, keeping prior entries' reasons."""
        entries = []
        seen: set[tuple[str, str, str]] = set()
        for finding in findings:
            entry = BaselineEntry(
                file=finding.file,
                code=finding.code,
                fingerprint=finding.fingerprint(),
                reason=reasons.reason_for(finding) if reasons is not None else "",
            )
            if entry.key() not in seen:
                seen.add(entry.key())
                entries.append(entry)
        return cls(entries=entries)


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline."""
    file_path = Path(path)
    if not file_path.exists():
        return Baseline()
    payload = json.loads(file_path.read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {file_path} "
            f"(expected {BASELINE_VERSION})"
        )
    entries = [
        BaselineEntry(
            file=row["file"],
            code=row["code"],
            fingerprint=row["fingerprint"],
            reason=row.get("reason", ""),
        )
        for row in payload.get("entries", [])
    ]
    return Baseline(entries=entries)


def save_baseline(baseline: Baseline, path: str | Path) -> None:
    """Write the baseline deterministically (sorted entries, stable diffs)."""
    rows = [
        {
            "file": entry.file,
            "code": entry.code,
            "fingerprint": entry.fingerprint,
            **({"reason": entry.reason} if entry.reason else {}),
        }
        for entry in sorted(baseline.entries, key=BaselineEntry.key)
    ]
    payload = {"version": BASELINE_VERSION, "entries": rows}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
