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

With ``top_n`` the pass also applies the max-score gate [BCH+03]: every term
carries an impact upper bound (``scorer.term_upper_bound``); once the best
score a *not yet seen* document could still reach — the sum of the remaining
terms' bounds — is strictly below the running threshold θ (the ``top_n``-th
best accumulated score), later postings only update documents already in the
accumulator.  Contributions are non-negative, so partial scores are lower
bounds, θ never shrinks, and the gate is safe: the top ``top_n`` of the
gated pass equals the top ``top_n`` of the full one, floats included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import EmptyBaseSetError
from repro.ir.scoring import Scorer


@dataclass(frozen=True)
class ScoredPostings:
    """IR scores of the documents one accumulation pass scored."""

    #: Document ids (object array) in first-hit order.
    doc_ids: np.ndarray
    #: ``scorer.score`` of each, aligned with ``doc_ids``.
    scores: np.ndarray
    #: Documents of ``S(Q)`` the max-score gate kept out (0 without ``top_n``).
    pruned: int


def _scalar_contributions(
    scorer: Scorer, term: str, doc_ids: np.ndarray, raw_weight: float
) -> np.ndarray:
    """A scorer without ``contributions``: its scalar ``weight``, per posting."""
    return np.array(
        [scorer.weight(doc_id, term) for doc_id in doc_ids], dtype=np.float64
    ) * raw_weight


def score_postings(
    scorer: Scorer, query_weights: Mapping[str, float], top_n: int | None = None
) -> ScoredPostings:
    """Score ``S(Q)`` against ``query_weights``, term at a time.

    Terms are taken in mapping order; non-positive weights are skipped (they
    neither admit documents nor change a score).  Raises
    :class:`~repro.errors.EmptyBaseSetError` when no document holds any of
    them.  ``top_n`` enables the max-score gate described in the module
    docstring: documents it keeps out are not returned, and only the best
    ``top_n`` of the returned scores are then guaranteed final.
    """
    terms = [(term, weight) for term, weight in query_weights.items() if weight > 0]
    columns = scorer.index.columns()
    contributions = getattr(scorer, "contributions", None)
    merge = getattr(scorer, "merge", np.add)
    accumulated = np.zeros(columns.doc_ids.size)
    matched = np.zeros(columns.doc_ids.size, dtype=bool)
    seen = np.zeros(columns.doc_ids.size, dtype=bool)
    first_hits: list[np.ndarray] = []
    evaluated = 0

    threshold: float | None = None
    if top_n is not None:
        bounds = [scorer.term_upper_bound(term, weight) for term, weight in terms]
        # remaining[i]: the best score a document first appearing at term i
        # can still reach — the sum of bounds from term i onward.
        remaining = np.cumsum(bounds[::-1])[::-1]

    for position, (term, weight) in enumerate(terms):
        column = columns.term(term)
        if column is None:
            continue
        ordinals, tf = column
        matched[ordinals] = True
        known = seen[ordinals]
        if threshold is not None and remaining[position] < threshold:
            # Unseen documents can no longer reach the top N; only update
            # accumulators that already exist.
            ordinals, tf = ordinals[known], tf[known]
        else:
            fresh = ordinals[~known]
            first_hits.append(fresh)
            seen[fresh] = True
            evaluated += fresh.size
        if contributions is not None:
            addends = contributions(term, tf, columns.doc_lengths[ordinals], weight)
        else:
            addends = _scalar_contributions(
                scorer, term, columns.doc_ids[ordinals], weight
            )
        # One posting per (term, doc): ordinals are unique, so this is exact.
        accumulated[ordinals] = merge(accumulated[ordinals], addends)
        if top_n is not None and evaluated >= top_n:
            top = np.partition(accumulated[seen], evaluated - top_n)
            threshold = float(top[evaluated - top_n])

    if not evaluated:
        raise EmptyBaseSetError(tuple(term for term, _ in terms))
    scored = np.concatenate(first_hits)
    return ScoredPostings(
        doc_ids=columns.doc_ids[scored],
        scores=accumulated[scored],
        pruned=int(np.count_nonzero(matched)) - evaluated,
    )
