"""The unit of analyzer output: one :class:`Finding` per rule violation.

A finding carries everything a reporter or a baseline needs: location
(file, line, column), the rule code (``RL001``..), a human message, and a
concrete *suggestion* — the codebase-specific remedy (``np.add.at``, a lock
block, a pragma with a rationale).  ``fingerprint`` identifies a finding
across line drift: it hashes the rule code together with the stripped source
line, so a baseline survives unrelated edits above the finding but a change
to the flagged line itself resurfaces it for review.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    file: str
    line: int
    code: str
    message: str = field(compare=False)
    suggestion: str = field(default="", compare=False)
    column: int = field(default=0, compare=False)
    #: The stripped source line the finding points at (fingerprint input).
    source_line: str = field(default="", compare=False)
    #: Rule-specific extras (RL007: the lock name; RL013: the call chain)
    #: — reporters may surface it, but it is deliberately *not* part
    #: of :meth:`fingerprint`, so richer metadata never invalidates an
    #: existing baseline entry.
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number independent)."""
        payload = f"{self.code}:{self.source_line.strip()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` reporter's rows)."""
        row = {
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
            "suggestion": self.suggestion,
            "fingerprint": self.fingerprint(),
        }
        if self.metadata:
            row["metadata"] = dict(self.metadata)
        return row
