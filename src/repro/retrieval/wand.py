"""Stage 1: pruned, vectorized top-N candidate generation.

The candidate generator answers "which N documents have the highest IR
score?" without fully scoring every document containing a query term.  It is
the max-score family [BCH+03] specialized to the in-memory index: the
term-at-a-time accumulation of :func:`repro.ir.accumulate.score_postings`
with its remaining-bound gate switched on —

* every query term carries a precomputed *impact upper bound* — the scorer's
  :meth:`~repro.ir.scoring.Scorer.term_upper_bound`, derived from the index's
  per-term ``(max tf, min dl)`` statistics (:meth:`InvertedIndex.term_bound`);
* terms are processed in query order, each contributing a vectorized score
  increment to an accumulator over the base set ``S(Q)``;
* before each term, the best score still reachable by a document *not yet
  seen* is the sum of the remaining terms' bounds; once that falls
  **strictly** below the running threshold θ (the N-th best accumulated
  score), unseen documents are pruned — later postings only update documents
  already in the accumulator.

Pruning is *safe*, not approximate: a document is dropped only when its
remaining-bound ceiling is strictly below θ, every contribution is
non-negative (so partial scores are lower bounds and θ never shrinks), and
the gated and the exhaustive pass are the same accumulation — so the pruned
top N is identical (same ids, same score floats, same document-id tiebreak)
to the exhaustive one, and both carry ``scorer.score`` floats
(``tests/ir/reference.py`` is the document-at-a-time oracle).  The property
tests in ``tests/properties/test_retrieval_properties.py`` pin exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.ir.accumulate import ScoredPostings, score_postings
from repro.ir.scoring import Scorer
from repro.query.query import QueryVector


@dataclass(frozen=True)
class Candidate:
    """One stage-1 hit: a document and its exact IR score."""

    doc_id: str
    score: float


@dataclass
class CandidateSet:
    """Top-N candidates in (score desc, doc id asc) order, plus accounting.

    ``evaluated`` counts documents fully scored; ``pruned`` counts documents
    of the base set excluded by the remaining-bound gate — their postings
    after the gate fired were never accumulated, which is where the saving
    comes from.
    """

    candidates: list[Candidate]
    evaluated: int
    pruned: int
    #: Positions into ``candidates`` in ``S(Q)`` first-hit order — the order
    #: a base set over the candidates lists them in.
    first_hit_order: list[int]

    @property
    def doc_ids(self) -> list[str]:
        return [candidate.doc_id for candidate in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.candidates)


def positive_query_weights(query_vector: QueryVector) -> dict[str, float]:
    """The positive-weight query terms, in query-vector order."""
    return {
        term: query_vector.weight(term)
        for term in query_vector.terms
        if query_vector.weight(term) > 0
    }


def _top_n(scored: ScoredPostings, n: int) -> CandidateSet:
    """The best ``n`` of ``scored`` by (score desc, doc id asc)."""
    keep = np.lexsort((scored.doc_ids, -scored.scores))[:n]
    return CandidateSet(
        candidates=[
            Candidate(doc_id, score)
            for doc_id, score in zip(
                scored.doc_ids[keep].tolist(), scored.scores[keep].tolist()
            )
        ],
        evaluated=int(scored.doc_ids.size),
        pruned=scored.pruned,
        first_hit_order=np.argsort(keep).tolist(),
    )


def exhaustive_top_n(
    scorer: Scorer, query_vector: QueryVector, n: int
) -> CandidateSet:
    """Reference top-N: score every document containing any query term."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _top_n(score_postings(scorer, query_vector.weights), n)


def pruned_top_n(scorer: Scorer, query_vector: QueryVector, n: int) -> CandidateSet:
    """Top-N candidates with vectorized max-score pruning.

    Exactly equal to :func:`exhaustive_top_n` (ids, scores, tiebreaks) while
    fully scoring only documents the remaining-bound gate lets through.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _top_n(score_postings(scorer, query_vector.weights, top_n=n), n)
