"""Persistent cache for the interprocedural summary fixpoint.

The project phase of :func:`~repro.analysis.runner.run_lint` is dominated by
:func:`~repro.analysis.summaries.compute_summaries` — the bottom-up SCC
fixpoint over every function in the repository.  Summaries depend only on
the *content* of the parsed files, so a run over an unchanged tree can
reuse the previous run's result verbatim.  This module persists the
summary index between runs, keyed on a map of per-file content hashes:

* every file's SHA-256 must match (and the file *set* must be identical —
  an added or deleted module changes the call graph even when no shared
  file changed) for the cache to load;
* any mismatch, IO error, pickle error or version skew is a silent miss —
  the caller recomputes and rewrites, never fails.

:class:`~repro.analysis.summaries.FunctionSummary` carries no state tied
to a particular parse: witness chains are ``(function_id, line)`` tuples,
wire sinks are keyed ``(kind, line)``, and the AST nodes inside
``held_calls`` are only ever read for location attributes (checkers that
correlate by ``id(node)`` key off the freshly built call graph, not the
summary).  Pickling the ``by_id`` map is therefore faithful.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

#: Bump when FunctionSummary's shape (or anything pickled here) changes.
CACHE_VERSION = 1

#: Default cache file name, created next to the repository root.
CACHE_FILENAME = ".repro-lint-cache"


def file_hashes(sources) -> dict[str, str]:
    """``display name -> sha256(text)`` over the project's parsed sources.

    Hashes the text the run already read rather than re-reading the files.
    Unparseable files are not in the project, so not in the map; a file that
    *becomes* parseable changes the map and invalidates the cache, which is
    the conservative direction.
    """
    return {
        source.path: hashlib.sha256(source.text.encode("utf-8")).hexdigest()
        for source in sources
    }


def load_summaries(
    cache_path: str | Path, hashes: dict[str, str]
) -> dict | None:
    """The cached payload when it matches ``hashes`` exactly, else ``None``.

    The payload is ``{"by_id": {function_id: FunctionSummary},
    "converged": bool}``.  Every failure mode — missing file, truncated
    pickle, foreign object, version skew, hash mismatch — is a miss.
    """
    try:
        with open(cache_path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CACHE_VERSION:
        return None
    if payload.get("hashes") != hashes:
        return None
    by_id = payload.get("by_id")
    if not isinstance(by_id, dict):
        return None
    return {"by_id": by_id, "converged": bool(payload.get("converged", True))}


def store_summaries(
    cache_path: str | Path, hashes: dict[str, str], index
) -> None:
    """Persist ``index`` (a SummaryIndex) keyed on ``hashes``, atomically.

    Written via a temp file + rename so a concurrent reader never sees a
    torn pickle; any IO failure is swallowed — the cache is an
    optimisation, not a deliverable.
    """
    payload = {
        "version": CACHE_VERSION,
        "hashes": hashes,
        "by_id": index.by_id,
        "converged": index.converged,
    }
    cache_path = Path(cache_path)
    try:
        fd, temp_name = tempfile.mkstemp(
            dir=str(cache_path.parent), prefix=cache_path.name + "."
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, cache_path)
        except BaseException:
            os.unlink(temp_name)
            raise
    except (OSError, pickle.PicklingError):
        return
