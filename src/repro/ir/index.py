"""Inverted index over the nodes of a data graph.

Every node is a document (Section 3: "a node is also viewed as a document").
The index records term frequencies, document frequencies, document lengths in
characters (the ``dl`` of Okapi, Equation 3) and the corpus statistics needed
by the scorers in :mod:`repro.ir.scoring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.graph.build_cache import BuildCache
from repro.graph.data_graph import DataGraph
from repro.ir.tokenize import DEFAULT_ANALYZER, Analyzer


@dataclass(frozen=True)
class Posting:
    """One (document, term-frequency) entry in a postings list."""

    doc_id: str
    tf: int


class PostingColumns:
    """Columnar view of one index state, for term-at-a-time array scoring.

    Documents get dense *ordinals* — their position in the index's document
    order — and every array here is aligned with them: ``doc_ids[o]`` and
    ``doc_lengths[o]`` describe document ``o``, and :meth:`term` returns a
    term's postings as ``(ordinals, tf)`` arrays in postings order (which is
    ascending ordinal order: both follow document insertion).  The document
    table is built with the view, each term's pair on its first use; either
    is built exactly once under concurrent first use and only ever published
    complete.  About 16 bytes per posting of the terms actually queried.

    The view describes the index as it was when built:
    :meth:`InvertedIndex.columns` hands out a fresh one after any mutation.
    """

    def __init__(
        self, postings: dict[str, dict[str, int]], doc_length: dict[str, int]
    ) -> None:
        self._postings = postings
        self._ordinal = {doc_id: i for i, doc_id in enumerate(doc_length)}
        self.doc_ids = np.empty(len(doc_length), dtype=object)
        self.doc_ids[:] = list(doc_length)
        self.doc_lengths = np.fromiter(
            doc_length.values(), dtype=np.float64, count=len(doc_length)
        )
        self._terms: BuildCache[tuple[np.ndarray, np.ndarray]] = BuildCache(
            max(len(postings), 1)
        )

    def term(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``(ordinals, tf)`` of ``term``'s postings; ``None`` if absent."""
        postings = self._postings.get(term)
        if not postings:
            return None
        return self._terms.get(term, lambda: self._build(postings))

    def _build(self, postings: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
        count = len(postings)
        ordinals = np.fromiter(
            map(self._ordinal.__getitem__, postings), dtype=np.int64, count=count
        )
        tf = np.fromiter(postings.values(), dtype=np.float64, count=count)
        return ordinals, tf


class InvertedIndex:
    """An in-memory inverted index with tf/df/dl statistics.

    Build it either from raw ``(doc_id, text)`` pairs with
    :meth:`from_documents` or directly from a data graph with
    :meth:`from_graph`.
    """

    def __init__(self, analyzer: Analyzer = DEFAULT_ANALYZER) -> None:
        self.analyzer = analyzer
        self._postings: dict[str, dict[str, int]] = {}
        self._doc_terms: dict[str, dict[str, int]] = {}
        self._doc_length: dict[str, int] = {}
        self._total_length = 0
        # The columnar view of the current state (:meth:`columns`), keyed by
        # a counter every mutation bumps: built on first use, and a mutation
        # retires it whole — ordinals are dense positions, a removal shifts
        # them all.
        self._version = 0
        self._columns: BuildCache[PostingColumns] = BuildCache(1)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_documents(
        cls, documents: Iterable[tuple[str, str]], analyzer: Analyzer = DEFAULT_ANALYZER
    ) -> "InvertedIndex":
        index = cls(analyzer)
        for doc_id, text in documents:
            index.add_document(doc_id, text)
        return index

    @classmethod
    def from_graph(
        cls,
        graph: DataGraph,
        analyzer: Analyzer = DEFAULT_ANALYZER,
        include_metadata: bool = False,
    ) -> "InvertedIndex":
        """Index every node of ``graph``; node ids become document ids."""
        return cls.from_documents(
            ((node.node_id, node.text(include_metadata)) for node in graph.nodes()),
            analyzer,
        )

    def add_document(self, doc_id: str, text: str) -> None:
        """Index one document.  Re-adding an id replaces the old content."""
        if doc_id in self._doc_length:
            self.remove_document(doc_id)
        dl = len(text)
        self._doc_length[doc_id] = dl
        self._total_length += dl
        terms: dict[str, int] = {}
        for term in self.analyzer.terms(text):
            postings = self._postings.setdefault(term, {})
            postings[doc_id] = postings.get(doc_id, 0) + 1
            terms[term] = terms.get(term, 0) + 1
        self._doc_terms[doc_id] = terms
        self._version += 1

    def copy(self) -> "InvertedIndex":
        """An independent copy with identical statistics and term order.

        Term and document iteration order (and therefore everything derived
        from it, e.g. precomputed-vocabulary order) is preserved, so a copy
        can stand in for the original in determinism-sensitive rebuilds.
        The copy starts with no columnar view (:meth:`columns`) — it is the
        working copy of a mutation batch, which would drop it anyway.
        """
        clone = InvertedIndex(self.analyzer)
        clone._postings = {
            term: dict(postings) for term, postings in self._postings.items()
        }
        clone._doc_terms = {
            doc_id: dict(terms) for doc_id, terms in self._doc_terms.items()
        }
        clone._doc_length = dict(self._doc_length)
        clone._total_length = self._total_length
        return clone

    def remove_document(self, doc_id: str) -> None:
        """Drop a document from the index (used by residual-collection eval)."""
        if doc_id not in self._doc_length:
            return
        self._total_length -= self._doc_length.pop(doc_id)
        for term in self._doc_terms.pop(doc_id, ()):
            postings = self._postings[term]
            del postings[doc_id]
            if not postings:
                del self._postings[term]
        self._version += 1

    # -- statistics ----------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._doc_length)

    @property
    def average_document_length(self) -> float:
        """``avdl`` of Equation 3 (characters, as in the paper)."""
        if not self._doc_length:
            return 0.0
        return self._total_length / len(self._doc_length)

    def document_length(self, doc_id: str) -> int:
        return self._doc_length.get(doc_id, 0)

    def has_document(self, doc_id: str) -> bool:
        return doc_id in self._doc_length

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: str) -> int:
        return self._postings.get(term, {}).get(doc_id, 0)

    def terms_of_document(self, doc_id: str) -> dict[str, int]:
        """Forward view: term -> tf for one document (empty if unknown)."""
        return dict(self._doc_terms.get(doc_id, {}))

    def postings(self, term: str) -> list[Posting]:
        return [Posting(d, tf) for d, tf in self._postings.get(term, {}).items()]

    def documents_with_term(self, term: str) -> list[str]:
        return list(self._postings.get(term, ()))

    def documents_with_any(self, terms: Iterable[str]) -> list[str]:
        """Documents containing at least one of ``terms`` — the raw base set
        ``S(Q)`` of a keyword query, in deterministic first-hit order."""
        seen: dict[str, None] = {}
        for term in terms:
            for doc_id in self._postings.get(term, ()):
                seen.setdefault(doc_id)
        return list(seen)

    def vocabulary(self, min_document_frequency: int = 0) -> list[str]:
        """Index terms in insertion order, optionally only the frequent ones
        (the precompute vocabulary: rare terms are cheap to rank on the fly)."""
        if min_document_frequency <= 0:
            return list(self._postings)
        return [
            term
            for term, postings in self._postings.items()
            if len(postings) >= min_document_frequency
        ]

    # -- columnar view -----------------------------------------------------

    def columns(self) -> PostingColumns:
        """The columnar view of the current index state.

        What the array scorers read (:func:`repro.ir.accumulate.score_postings`).
        Built lazily — nothing is paid at construction or by an index that is
        only ever mutated — and retired by :meth:`add_document` /
        :meth:`remove_document`; two request threads racing on the first use
        build it once.  Take it once per query: the view is a consistent
        snapshot, the index is free to hand out a newer one later.
        """
        return self._columns.get(
            self._version, lambda: PostingColumns(self._postings, self._doc_length)
        )

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InvertedIndex(documents={self.num_documents}, "
            f"terms={len(self._postings)})"
        )
