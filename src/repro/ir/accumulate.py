"""Term-at-a-time ``IRScore`` over columnar postings (Equation 2).

Every ranking path that needs IR scores for the documents of ``S(Q)`` — the
ObjectRank2 base set, the IR-only baseline, stage-1 candidate generation —
gets them here: one pass over each positive-weight query term's postings
column (:meth:`repro.ir.index.InvertedIndex.columns`), adding the scorer's
``contributions`` into a dense accumulator.  No per-document Python.

The float contract.  ``scorer.score`` is a left-to-right fold of per-term
addends in query-term order; accumulating term after term performs the same
additions in the same order, a document that lacks a term simply skips an
exact ``+ 0.0``, and ``contributions`` reproduces each addend bit for bit —
so the scores here *are* ``scorer.score`` floats, and documents come back in
first-hit order, the order :meth:`InvertedIndex.documents_with_any` lists
``S(Q)`` in.  ``tests/ir/reference.py`` keeps the document-at-a-time loops
as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import EmptyBaseSetError
from repro.ir.index import PostingColumns
from repro.ir.scoring import Scorer


@dataclass(frozen=True)
class ScoredPostings:
    """IR scores of every document of ``S(Q)``."""

    #: The columnar view the ordinals index (:meth:`InvertedIndex.columns`).
    columns: PostingColumns
    #: Document ordinals into ``columns``, in first-hit order.
    ordinals: np.ndarray
    #: ``scorer.score`` of each, aligned with ``ordinals``.
    scores: np.ndarray

    @property
    def doc_ids(self) -> np.ndarray:
        """Document ids (object array), aligned with ``ordinals``."""
        return self.columns.doc_ids[self.ordinals]


def _scalar_contributions(
    scorer: Scorer, term: str, doc_ids: np.ndarray, raw_weight: float
) -> np.ndarray:
    """A scorer without ``contributions``: its scalar ``weight``, per posting."""
    return np.array(
        [scorer.weight(doc_id, term) for doc_id in doc_ids], dtype=np.float64
    ) * raw_weight


def score_postings(
    scorer: Scorer, query_weights: Mapping[str, float]
) -> ScoredPostings:
    """Score ``S(Q)`` against ``query_weights``, term at a time.

    Terms are taken in mapping order; non-positive weights are skipped (they
    neither admit documents nor change a score).  Raises
    :class:`~repro.errors.EmptyBaseSetError` when no document holds any of
    them.
    """
    terms = [(term, weight) for term, weight in query_weights.items() if weight > 0]
    columns = scorer.index.columns()
    contributions = getattr(scorer, "contributions", None)
    merge = getattr(scorer, "merge", np.add)
    accumulated = np.zeros(columns.doc_ids.size)
    seen = np.zeros(columns.doc_ids.size, dtype=bool)
    first_hits: list[np.ndarray] = []

    for term, weight in terms:
        column = columns.term(term)
        if column is None:
            continue
        ordinals, tf = column
        fresh = ordinals[~seen[ordinals]]
        first_hits.append(fresh)
        seen[fresh] = True
        if contributions is not None:
            addends = contributions(term, tf, columns.doc_lengths[ordinals], weight)
        else:
            addends = _scalar_contributions(
                scorer, term, columns.doc_ids[ordinals], weight
            )
        # One posting per (term, doc): ordinals are unique, so this is exact.
        accumulated[ordinals] = merge(accumulated[ordinals], addends)

    if not first_hits:
        raise EmptyBaseSetError(tuple(term for term, _ in terms))
    scored = np.concatenate(first_hits)
    return ScoredPostings(columns, scored, accumulated[scored])
