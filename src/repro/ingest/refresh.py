"""Incremental recomputation of the per-keyword score matrix.

Given the dirty-keyword classification of
:class:`repro.ingest.tracker.DirtyKeywordTracker`, this module rebuilds only
what a mutation batch actually invalidated:

* **clean columns are carried** from the previous ranker by reference —
  their restart vector and transfer matrix are unchanged, and the blocked
  engine is deterministic, so a from-scratch rebuild would reproduce exactly
  the same floats;
* **dirty columns are re-converged** through
  :func:`repro.ranking.objectrank.keyword_objectranks` from the same uniform
  ``1/n`` start a full build uses, which makes the refreshed matrix
  *bit-identical* to a full precompute over the mutated graph while running
  strictly fewer fixpoints on localized mutations.

A topology mutation dirties every column; a transfer-rate change or a
missing previous ranker forces a full rebuild outright (and
:class:`repro.ingest.engine.IngestEngine` drops a previous ranker that is
not the snapshot its dirt is relative to).  The
vocabulary is always derived from the *new* index in its insertion order, so
the refreshed keyword order matches what ``PrecomputedRanker(graph, index)``
would produce — the two are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ranking.objectrank import keyword_objectranks
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)
from repro.ranking.precompute import PrecomputedRanker


@dataclass(frozen=True)
class RefreshedVectors:
    """Outcome of one incremental refresh of the keyword→score matrix.

    ``vectors`` holds every keyword's authority vector in vocabulary order
    (recomputed columns are fresh arrays, carried columns reference the
    previous ranker's).  ``recomputed``/``carried`` name the columns each
    way; ``iterations`` is the total power-iteration work of the refresh.
    """

    vectors: dict[str, np.ndarray]
    recomputed: tuple[str, ...]
    carried: tuple[str, ...]
    iterations: int
    full_rebuild: bool


def refreshed_keyword_vectors(
    graph: AuthorityTransferDataGraph,
    index: InvertedIndex,
    previous: PrecomputedRanker | None,
    dirty_keywords: Iterable[str],
    topology_dirty: bool,
    min_document_frequency: int = 2,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> RefreshedVectors:
    """Refresh the keyword→score matrix for a mutated graph.

    ``graph``/``index`` describe the *post-mutation* state; ``previous`` is
    the ranker produced by the last refresh (or ``None`` on first build).
    ``dirty_keywords``/``topology_dirty`` come from the tracker snapshot
    that covers exactly the mutations between ``previous`` and ``graph`` —
    carrying is only sound with that pairing, and the caller
    (:class:`repro.ingest.engine.IngestEngine`) maintains it.  The
    vocabulary is always ``index.vocabulary(min_document_frequency)``.
    """
    vocabulary = index.vocabulary(min_document_frequency)
    full_rebuild = previous is None or not previous.source.matches_rates(
        graph.transfer_schema
    )
    carry = not full_rebuild and not topology_dirty
    if carry:
        dirty = set(dirty_keywords)
        recompute = [
            word
            for word in vocabulary
            if word in dirty or not previous.has_keyword(word)
        ]
    else:
        recompute = list(vocabulary)

    built = keyword_objectranks(
        graph, index, recompute, damping, tolerance, max_iterations
    )

    vectors: dict[str, np.ndarray] = {}
    carried: list[str] = []
    for word in vocabulary:
        result = built.get(word)
        if result is not None:
            vectors[word] = result.scores
        elif carry and previous.has_keyword(word):
            vectors[word] = previous.vector(word)
            carried.append(word)
        # else: the keyword matches no document — a full rebuild would skip
        # it too (no authority vector exists for an empty base set).
    return RefreshedVectors(
        vectors=vectors,
        recomputed=tuple(word for word in vocabulary if word in built),
        carried=tuple(carried),
        iterations=int(sum(result.iterations for result in built.values())),
        full_rebuild=full_rebuild,
    )
