"""IR scoring functions: Okapi BM25 (Equation 3) and tf-idf.

ObjectRank2 weights the base set of a query by IR scores:

    IRScore(v, Q) = v . Q                                   (Equation 2)

where ``v = [W(v, t_1), ..., W(v, t_m)]`` is the document vector over the
query terms and ``W(v, t)`` is a traditional IR weight such as Okapi/BM25
(Equation 3).  Scorers here expose both the per-term weight ``W(v, t)`` and
the full dot-product score.

The scalar ``weight``/``score`` are the definition (and the test oracle);
what the ranking paths run is the array form, ``contributions`` over one
term's postings column, accumulated term-at-a-time by
:func:`repro.ir.accumulate.score_postings`.  The two agree float for float:
``contributions`` applies the scalar expression's operations in the scalar
expression's order, and ``score`` is a left-to-right fold over the query
terms — which is exactly what accumulating one term after another computes.
"""

from __future__ import annotations

import math
from typing import Mapping, Protocol

import numpy as np

from repro.ir.index import InvertedIndex


class Scorer(Protocol):
    """Anything that can weight a (document, term) pair and score a query."""

    index: InvertedIndex

    def weight(self, doc_id: str, term: str) -> float:
        """The IR weight ``W(v, t)`` of ``term`` for document ``doc_id``."""
        ...  # pragma: no cover - protocol

    def score(self, doc_id: str, query_weights: Mapping[str, float]) -> float:
        """``IRScore(v, Q)``: dot product of document and query vectors."""
        ...  # pragma: no cover - protocol

    def contributions(
        self, term: str, tf: np.ndarray, dl: np.ndarray, raw_weight: float
    ) -> np.ndarray:
        """``term``'s addend to ``score`` for each posting of its column.

        ``tf`` and ``dl`` are aligned float arrays (term frequency and
        document length per posting); element ``i`` of the result must equal
        the scalar ``weight(doc_i, term)`` times the query-side factor of
        ``raw_weight``, bit for bit.  Optional: a scorer without it is scored
        through ``weight``, one call per posting.  Addends are merged into a
        document's score by the scorer's ``merge`` ufunc (``np.add`` unless
        the scorer says otherwise).
        """
        ...  # pragma: no cover - protocol


def _fold(addends) -> float:
    """Left-to-right float sum — ``score``'s summation order, spelled out.

    Builtin ``sum`` compensates float addition from Python 3.12 on; the
    term-at-a-time accumulator adds plainly, so the definition does too.
    """
    total = 0.0
    for addend in addends:
        total += addend
    return total


def _log_by_table(values: np.ndarray) -> np.ndarray:
    """``math.log`` element-wise via a unique-value table.

    Term frequencies take few distinct small values; routing them through
    CPython's ``math.log`` (instead of ``np.log``'s SIMD path, which may
    differ in the last ulp) keeps vectorized tf-idf bit-identical to the
    scalar scorer.
    """
    unique, inverse = np.unique(values, return_inverse=True)
    table = np.array([math.log(value) for value in unique], dtype=np.float64)
    return table[inverse]


class BM25Scorer:
    """Okapi BM25 weighting, following Equation 3 of the paper.

    For a term ``t`` and document ``v``::

        W(v, t) = ln((n - df + 0.5) / (df + 0.5))
                  * (k1 + 1) tf / (k1 ((1 - b) + b dl/avdl) + tf)

    where ``dl`` is the document size in characters and ``avdl`` the average —
    the paper's stated choice of the document-length statistic.  The query-side
    saturation ``(k3 + 1) qtf / (k3 + qtf)`` is applied to the query weight in
    :meth:`score`.  The idf factor is clamped at zero so that base-set jump
    probabilities are never negative (the paper normalizes the scores of the
    base set "to sum to one, since they represent probabilities").
    """

    def __init__(
        self,
        index: InvertedIndex,
        k1: float = 1.2,
        b: float = 0.75,
        k3: float = 1000.0,
    ) -> None:
        if not 1.0 <= k1 <= 2.0:
            raise ValueError(f"k1 must be in [1.0, 2.0] (paper, Eq. 3), got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        if not 0.0 <= k3 <= 1000.0:
            raise ValueError(f"k3 must be in [0, 1000] (paper, Eq. 3), got {k3}")
        self.index = index
        self.k1 = k1
        self.b = b
        self.k3 = k3

    def idf(self, term: str) -> float:
        n = self.index.num_documents
        df = self.index.document_frequency(term)
        if df == 0 or n == 0:
            return 0.0
        return max(math.log((n - df + 0.5) / (df + 0.5)), 0.0)

    def _saturation(self, tf, dl):
        """``(k1 + 1) tf / (k1 ((1 - b) + b dl/avdl) + tf)`` of Equation 3.

        The one BM25 expression: scalars in, scalar out (``weight``);
        postings columns in, column out (``contributions``) — the same IEEE
        operations in the same order either way.
        """
        avdl = self.index.average_document_length or 1.0
        return ((self.k1 + 1) * tf) / (
            self.k1 * ((1 - self.b) + self.b * dl / avdl) + tf
        )

    def weight(self, doc_id: str, term: str) -> float:
        tf = self.index.term_frequency(term, doc_id)
        if tf == 0:
            return 0.0
        return self.idf(term) * self._saturation(
            tf, self.index.document_length(doc_id)
        )

    def contributions(
        self, term: str, tf: np.ndarray, dl: np.ndarray, raw_weight: float
    ) -> np.ndarray:
        return self.idf(term) * self._saturation(tf, dl) * self.query_weight(raw_weight)

    def query_weight(self, raw_weight: float) -> float:
        """Query-side saturation ``(k3 + 1) qtf / (k3 + qtf)`` of Equation 3."""
        if raw_weight <= 0:
            return 0.0
        return ((self.k3 + 1) * raw_weight) / (self.k3 + raw_weight)

    def score(self, doc_id: str, query_weights: Mapping[str, float]) -> float:
        return _fold(
            self.weight(doc_id, term) * self.query_weight(qw)
            for term, qw in query_weights.items()
        )


class TfIdfScorer:
    """A classic ltc-style tf-idf scorer, provided as a calibration baseline."""

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index

    def _idf(self, term: str) -> float:
        """``ln(1 + n / df)`` of a term present in the index."""
        n = self.index.num_documents
        return math.log(1.0 + n / self.index.document_frequency(term))

    def weight(self, doc_id: str, term: str) -> float:
        tf = self.index.term_frequency(term, doc_id)
        if tf == 0:
            return 0.0
        return (1.0 + math.log(tf)) * self._idf(term)

    def contributions(
        self, term: str, tf: np.ndarray, dl: np.ndarray, raw_weight: float
    ) -> np.ndarray:
        return (1.0 + _log_by_table(tf)) * self._idf(term) * raw_weight

    def score(self, doc_id: str, query_weights: Mapping[str, float]) -> float:
        return _fold(
            self.weight(doc_id, term) * qw for term, qw in query_weights.items()
        )


class UniformScorer:
    """Degenerate scorer giving weight 1 to any contained term.

    With this scorer, ObjectRank2 collapses to the original ObjectRank's 0/1
    base set [BHP04]; it exists to make the ObjectRank-vs-ObjectRank2
    comparison of Table 2 a one-parameter switch.
    """

    #: The score is "any positive-weight term matches", not a sum: a second
    #: matching term must leave the 1.0 of the first alone.
    merge = np.maximum

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index

    def weight(self, doc_id: str, term: str) -> float:
        return 1.0 if self.index.term_frequency(term, doc_id) > 0 else 0.0

    def contributions(
        self, term: str, tf: np.ndarray, dl: np.ndarray, raw_weight: float
    ) -> np.ndarray:
        return np.ones(tf.size)

    def score(self, doc_id: str, query_weights: Mapping[str, float]) -> float:
        return 1.0 if any(
            self.weight(doc_id, term) > 0 and qw > 0 for term, qw in query_weights.items()
        ) else 0.0
