"""Incremental recomputation of the per-keyword score matrix.

Given the dirty-keyword classification of
:class:`repro.ingest.tracker.DirtyKeywordTracker`, this module rebuilds only
what a mutation batch actually invalidated:

* **clean columns are carried** from the previous ranker by reference —
  their restart vector and transfer matrix are unchanged, and the blocked
  engine is deterministic, so a from-scratch rebuild would reproduce exactly
  the same floats;
* **dirty columns are re-converged** through
  :func:`repro.ranking.objectrank.keyword_objectranks`.  In ``"exact"`` mode
  they start cold (uniform ``1/n``), which makes the refreshed matrix
  *bit-identical* to a full precompute over the mutated graph while running
  strictly fewer fixpoints on localized mutations.  In ``"warm"`` mode they
  start from their previous fixpoints mapped onto the new node set (the
  paper's Section 6.2 warm start) — fewer iterations, scores equal to the
  full rebuild up to the convergence tolerance rather than bit-for-bit.

A topology mutation dirties every column; a transfer-rate change or a
missing/mismatched previous ranker forces a full rebuild outright.  The
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

REFRESH_MODES = ("exact", "warm")


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


def _warm_start_inits(
    graph: AuthorityTransferDataGraph,
    previous: PrecomputedRanker,
    keywords: Iterable[str],
) -> dict[str, np.ndarray]:
    """Previous fixpoints mapped onto the new node set, renormalized.

    Surviving nodes keep their score, new nodes get the uniform prior, and
    each seed is rescaled to unit mass — mixing carried scores (which sum
    to ~1) with uniform-prior seeds would otherwise inflate the vector's
    mass and distort the first post-mutation iteration.  This is the one
    place a score vector is carried across a node-set change.
    """
    old_ids = previous.node_ids
    new_ids = graph.node_ids
    n = graph.num_nodes
    rows: np.ndarray | None = None
    if new_ids != old_ids:
        old_pos = {node_id: i for i, node_id in enumerate(old_ids)}
        rows = np.array([old_pos.get(nid, -1) for nid in new_ids], dtype=np.int64)
    inits: dict[str, np.ndarray] = {}
    for keyword in keywords:
        if not previous.has_keyword(keyword):
            continue
        old = previous.vector(keyword)
        if rows is None:
            seed = old.copy()
        else:
            seed = np.full(n, 1.0 / n if n else 0.0)
            mask = rows >= 0
            seed[mask] = old[rows[mask]]
        total = seed.sum()
        if total > 0.0:
            seed = seed / total
        inits[keyword] = seed
    return inits


def refreshed_keyword_vectors(
    graph: AuthorityTransferDataGraph,
    index: InvertedIndex,
    previous: PrecomputedRanker | None,
    dirty_keywords: Iterable[str],
    topology_dirty: bool,
    keywords: list[str] | None = None,
    min_document_frequency: int = 2,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    mode: str = "exact",
) -> RefreshedVectors:
    """Refresh the keyword→score matrix for a mutated graph.

    ``graph``/``index`` describe the *post-mutation* state; ``previous`` is
    the ranker produced by the last refresh (or ``None`` on first build).
    ``dirty_keywords``/``topology_dirty`` come from the tracker snapshot
    that covers exactly the mutations between ``previous`` and ``graph`` —
    carrying is only sound with that pairing, and the caller
    (:class:`repro.ingest.engine.IngestEngine`) maintains it.
    """
    if mode not in REFRESH_MODES:
        raise ValueError(f"mode must be one of {REFRESH_MODES}, got {mode!r}")
    if keywords is not None:
        vocabulary = list(dict.fromkeys(keywords))
    else:
        vocabulary = index.vocabulary(min_document_frequency)
    rates_changed = previous is not None and not previous.source.matches_rates(
        graph.transfer_schema
    )
    full_rebuild = previous is None or rates_changed
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

    init = None
    if mode == "warm" and previous is not None and not rates_changed:
        init = _warm_start_inits(graph, previous, recompute)
    built = keyword_objectranks(
        graph, index, recompute, damping, tolerance, max_iterations, init=init
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
