"""Inline suppression pragmas: ``# repro-lint: ignore[RL001]``.

Grammar (one pragma per comment, anywhere on the line):

* ``# repro-lint: ignore[RL001]`` — suppress RL001 on this line;
* ``# repro-lint: ignore[RL001,RL004]`` — suppress several codes;
* ``# repro-lint: ignore`` — suppress every rule on this line;
* ``# repro-lint: skip-file`` — suppress the whole file (first 5 lines only,
  so a stray comment deep in a module cannot silently disable analysis).

Anything after the closing bracket is free-form rationale and is encouraged:
a pragma without a why is the next reader's problem.  A pragma on the line
*above* a statement also covers that statement's first line, so multi-clause
lines stay readable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>ignore|skip-file)"
    r"(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)

#: ``skip-file`` must appear in the first N lines to take effect.
SKIP_FILE_WINDOW = 5


@dataclass
class PragmaIndex:
    """Parsed suppressions of one file: per-line code sets + skip-file flag."""

    skip_file: bool = False
    #: line number -> set of suppressed codes; the empty set means *all*.
    by_line: dict[int, set[str]] = field(default_factory=dict)

    def suppresses(self, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed at ``line`` (same line or line above)."""
        if self.skip_file:
            return True
        for candidate in (line, line - 1):
            codes = self.by_line.get(candidate)
            if codes is not None and (not codes or code in codes):
                return True
        return False


def parse_pragmas(lines: list[str]) -> PragmaIndex:
    """Scan source lines for pragmas; comments only, strings are not parsed."""
    index = PragmaIndex()
    for lineno, line in enumerate(lines, start=1):
        if "repro-lint" not in line:
            continue
        match = _PRAGMA.search(line)
        if match is None:
            continue
        if match.group("kind") == "skip-file":
            if lineno <= SKIP_FILE_WINDOW:
                index.skip_file = True
            continue
        raw = match.group("codes")
        codes = (
            {code.strip() for code in raw.split(",") if code.strip()}
            if raw
            else set()
        )
        existing = index.by_line.get(lineno)
        if existing is None:
            index.by_line[lineno] = codes
        elif not codes or not existing:
            index.by_line[lineno] = set()
        else:
            existing.update(codes)
    return index
