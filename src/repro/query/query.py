"""Keyword queries and weighted query vectors (Section 3).

A keyword query is a *tuple* of keywords ``Q = [t_1, ..., t_m]`` (a tuple, not
a set, because order matters once the base set is weighted).  Its query vector
``Q = [w_1, ..., w_m]`` starts as all ones and grows/reweights during the
query-expansion stage of Section 5.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from repro.errors import ParameterError
from repro.fold import left_sum
from repro.ir.tokenize import QUERY_ANALYZER, Analyzer


class KeywordQuery:
    """An ordered tuple of query keywords.

    Keywords are normalized through the query analyzer (lowercased and
    tokenized), so ``KeywordQuery(["Query", "Optimization"])`` matches index
    terms ``query`` and ``optimization``.
    """

    def __init__(self, keywords: Iterable[str], analyzer: Analyzer = QUERY_ANALYZER):
        normalized: list[str] = []
        for keyword in keywords:
            normalized.extend(analyzer.terms(keyword))
        self.keywords: tuple[str, ...] = tuple(normalized)

    @classmethod
    def parse(cls, text: str, analyzer: Analyzer = QUERY_ANALYZER) -> "KeywordQuery":
        """Build a query from free text, e.g. ``"query optimization"``."""
        return cls([text], analyzer)

    def vector(self) -> "QueryVector":
        """The initial query vector: every keyword with weight 1 (Section 3)."""
        return QueryVector({k: 1.0 for k in self.keywords})

    def __iter__(self) -> Iterator[str]:
        return iter(self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeywordQuery):
            return NotImplemented
        return self.keywords == other.keywords

    def __hash__(self) -> int:
        return hash(self.keywords)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KeywordQuery({list(self.keywords)!r})"


class QueryVector:
    """An ordered term -> weight mapping.

    Term order is preserved (first-added first), matching the paper's notation
    where the reformulated vector lists original terms before expansion terms
    (Example 2).  Instances are mutated only through the explicit methods
    below; reformulators return fresh vectors.
    """

    def __init__(self, weights: Mapping[str, float] | None = None):
        self._weights: dict[str, float] = {}
        if weights:
            for term, weight in weights.items():
                self.set_weight(term, weight)

    # -- access ------------------------------------------------------------

    @property
    def terms(self) -> list[str]:
        return list(self._weights)

    @property
    def weights(self) -> dict[str, float]:
        """A copy of the underlying term -> weight mapping."""
        return dict(self._weights)

    def weight(self, term: str) -> float:
        return self._weights.get(term, 0.0)

    def __contains__(self, term: str) -> bool:
        return term in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[str]:
        return iter(self._weights)

    # -- mutation ------------------------------------------------------------

    def set_weight(self, term: str, weight: float) -> None:
        # ``ParameterError`` is a ``ValueError``: NaN and infinities are
        # refused with the negative weights (NaN passes ``weight < 0``).
        if not 0 <= weight < math.inf:
            raise ParameterError(
                f"query term weight must be finite and non-negative, got {weight}"
            )
        self._weights[term] = float(weight)

    def add_weight(self, term: str, delta: float) -> None:
        """Add ``delta`` to a term's weight, inserting the term if new."""
        self.set_weight(term, self._weights.get(term, 0.0) + delta)

    # -- derived quantities ----------------------------------------------------

    def average_weight(self) -> float:
        """``a_q`` of the Section 5.1 term-weight normalization."""
        if not self._weights:
            return 0.0
        count = len(self._weights)
        total = left_sum(self._weights.values())
        if math.isinf(total):  # finite weights whose sum overflows
            return left_sum(weight / count for weight in self._weights.values())
        return total / count

    def copy(self) -> "QueryVector":
        return QueryVector(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryVector):
            return NotImplemented
        return self._weights == other._weights

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{t}:{w:.3g}" for t, w in self._weights.items())
        return f"QueryVector({inner})"
