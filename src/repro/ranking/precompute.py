"""Precomputed per-keyword ObjectRank vectors (the [BHP04] execution mode).

Section 6.2 notes that on-the-fly ObjectRank2 over DBLPcomplete-scale graphs
is "clearly too long for exploratory searching" and lists the remedies: use
faster hardware, *precompute ObjectRank2 values as in [BHP04]*, or define
focused subsets.  This module implements the precomputation remedy: one
authority vector per index keyword, computed offline, combined at query time.

The offline build is one :func:`repro.ranking.core.rank` call over a uniform
restart column per keyword, which runs the blocked engine of
:mod:`repro.ranking.batch` — one pass over the CSR matrix advances a whole
block of the vocabulary at once — instead of one serial power iteration per
keyword.  Each vector is identical to the serial computation.

Combination at query time follows the same weighted-base-set idea as
ObjectRank2: per-keyword vectors are blended linearly with weights
proportional to the query-vector weight times the keyword's idf — a standard
approximation of the exact weighted-base-set run (exact when base sets are
disjoint and per-document IR scores are constant per keyword, close
otherwise).  The trade-off is the classic one: instant queries, approximate
scores, rates frozen at precomputation time (a structure-based reformulation
invalidates the cache — :meth:`PrecomputedRanker.is_stale` detects that).

A query is blended only when every positive-weight term has a column; any
other query is refused with :class:`~repro.errors.PrecomputedCoverageError`
before anything is blended, and the serving layer runs it live.  No answer
from the store ever drops a query term.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import EmptyBaseSetError, ParameterError, PrecomputedCoverageError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ir.scoring import BM25Scorer
from repro.query.query import QueryVector
from repro.ranking.convergence import RankedResult
from repro.ranking.objectrank import keyword_objectranks
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)

if TYPE_CHECKING:
    from repro.store.format import ScoreStore


class KeywordVectors:
    """In-memory per-keyword vectors: the provider a fresh build serves from.

    The counterpart of :class:`repro.store.format.ScoreStore` — both expose
    the surface :class:`PrecomputedRanker` reads (``keywords``, ``node_ids``,
    ``graph_version``, ``damping``, ``build_iterations``, ``graph``,
    ``has_keyword``, ``vector``, ``idf_of``, ``matches_rates``).  This one
    keeps the graph it was built over and a scorer on its index, so idf is
    computed live and staleness can consult the graph's mutation counter; the
    rates and the graph version are snapshotted at construction.
    ``vectors`` insertion order becomes ``keywords`` order, so callers must
    supply it in the vocabulary order a full build would use for the two to
    be interchangeable.
    """

    def __init__(
        self,
        graph: AuthorityTransferDataGraph,
        index: InvertedIndex,
        vectors: dict[str, np.ndarray],
        damping: float = DEFAULT_DAMPING,
        build_iterations: int = 0,
    ) -> None:
        self.graph = graph
        self.damping = damping
        self.build_iterations = int(build_iterations)
        self.node_ids = graph.node_ids
        self.graph_version = graph.data_graph.version
        self.rates_snapshot = graph.transfer_schema
        self._scorer = BM25Scorer(index)
        self._vectors = dict(vectors)

    @property
    def keywords(self) -> list[str]:
        return list(self._vectors)

    def has_keyword(self, keyword: str) -> bool:
        return keyword in self._vectors

    def vector(self, keyword: str) -> np.ndarray:
        """The precomputed authority vector of one cached keyword."""
        return self._vectors[keyword]

    def idf_of(self, keyword: str) -> float:
        """The raw BM25 idf :meth:`PrecomputedRanker.rank` blends with.

        Exported into score stores (before the blend's 1e-6 floor) so the
        mapped provider hands back the exact same float.
        """
        return self._scorer.idf(keyword)

    def matches_rates(self, rates: AuthorityTransferSchemaGraph) -> bool:
        """Whether ``rates`` equal the rates the vectors were built under."""
        return rates == self.rates_snapshot


class PrecomputedRanker:
    """Per-keyword ObjectRank vectors with query-time linear blending.

    The only ranker over precomputed vectors: the constructor runs the
    offline build and serves it from memory (a :class:`KeywordVectors`),
    :meth:`over` serves vectors that already exist — an incremental refresh's
    :class:`KeywordVectors` or a mapped
    :class:`~repro.store.format.ScoreStore` — through the same ``is_stale`` /
    ``rank``, so every provider answers with identical floats.

    ``keywords=None`` precomputes every index term whose document frequency
    is at least ``min_document_frequency`` (rare terms are cheap to run
    on the fly and bloat the cache).  :meth:`rank` answers a query only when
    every positive-weight term is cached, and raises otherwise instead of
    silently dropping the uncached terms.

    Instances are immutable after construction and safe to share across
    threads; one over a store pins the store's mapping, so an in-flight
    request keeps its generation while a swap publishes the next one.
    """

    def __init__(
        self,
        graph: AuthorityTransferDataGraph,
        index: InvertedIndex,
        keywords: list[str] | None = None,
        min_document_frequency: int = 2,
        damping: float = DEFAULT_DAMPING,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        if keywords is None:
            keywords = index.vocabulary(min_document_frequency)
        built = keyword_objectranks(
            graph, index, keywords, damping, tolerance, max_iterations
        )
        #: Where the vectors, idf weights and fingerprints are read from.
        self.source = KeywordVectors(
            graph,
            index,
            {keyword: result.scores for keyword, result in built.items()},
            damping,
            sum(result.iterations for result in built.values()),
        )

    @classmethod
    def over(cls, source: "KeywordVectors | ScoreStore") -> "PrecomputedRanker":
        """A ranker over already-computed vectors, skipping the build."""
        ranker = cls.__new__(cls)
        ranker.source = source
        return ranker

    # -- cache inspection ------------------------------------------------------

    @property
    def keywords(self) -> list[str]:
        return list(self.source.keywords)

    @property
    def node_ids(self) -> list[str]:
        """Node ids the vectors are indexed by (graph row order)."""
        return self.source.node_ids

    @property
    def graph_version(self) -> int:
        """The data-graph version the vectors were computed at."""
        return self.source.graph_version

    @property
    def build_iterations(self) -> int:
        """Power-iteration steps the offline build (or refresh) spent."""
        return self.source.build_iterations

    def has_keyword(self, keyword: str) -> bool:
        return self.source.has_keyword(keyword)

    def vector(self, keyword: str) -> np.ndarray:
        """The precomputed authority vector of one cached keyword."""
        return self.source.vector(keyword)

    def is_stale(
        self,
        rates: AuthorityTransferSchemaGraph | None = None,
        graph_version: int | None = None,
    ) -> bool:
        """Whether the cache no longer matches the rates *or* the graph.

        Structure-based reformulation changes the transfer rates, which the
        precomputed vectors baked in; a graph mutation (node or edge added,
        removed or updated) changes the fixpoints themselves.  Either makes
        the cache stale.  The graph check compares ``graph_version`` (or,
        when omitted, the live data graph's current version) against the
        version snapshotted at build time — rates alone used to be checked
        here, which let serve keep answering from vectors of a graph that no
        longer existed.

        Over a mapped store there is no live graph to fall back on (a
        cluster worker has no local mutation counter — mutations happen on
        the builder side and arrive as whole generations): ``rates`` is
        required and the graph check runs only when a caller that *knows*
        the current data-graph version passes one.
        """
        graph = self.source.graph
        if rates is None:
            if graph is None:
                raise ValueError(
                    "a store-backed ranker has no live graph; pass the "
                    "serving rates to is_stale()"
                )
            rates = graph.transfer_schema
        if not self.source.matches_rates(rates):
            return True
        if graph_version is None and graph is not None:
            graph_version = graph.data_graph.version
        return (
            graph_version is not None
            and graph_version != self.source.graph_version
        )

    # -- query answering ---------------------------------------------------------

    def rank(self, query_vector: QueryVector) -> RankedResult:
        """Blend the precomputed vectors of the query's terms.

        Every positive-weight term must be cached: if one is not (a df = 1
        term below ``min_document_frequency``, an expansion term a
        content-based reformulation added), :class:`~repro.errors.PrecomputedCoverageError`
        names the missing terms before anything is blended; a query with no
        positive weight raises :class:`~repro.errors.EmptyBaseSetError`.
        Callers fall back to on-the-fly ObjectRank2 in both cases.

        The blend iterates the query terms in their canonical order,
        multiplies by the provider's idf (a store freezes the exact float
        the live scorer computes) and normalizes in one accumulation order,
        so a mapped store returns byte-identical scores to the in-memory
        ranker it was exported from.
        """
        source = self.source
        weighted = [
            (term, weight) for term, weight in query_vector.weights.items() if weight > 0
        ]
        missing = tuple(term for term, _ in weighted if not source.has_keyword(term))
        if missing:
            raise PrecomputedCoverageError(missing)
        blended = np.zeros(len(source.node_ids))
        total_weight = 0.0
        query_weight = 0.0
        matched: dict[str, float] = {}
        for term, weight in weighted:
            query_weight += weight
            blend_weight = weight * max(source.idf_of(term), 1e-6)
            blended += blend_weight * source.vector(term)
            total_weight += blend_weight
            matched[term] = blend_weight
        # total_weight accumulates strictly positive blend weights, so "no
        # positive-weight term" is exactly total_weight <= 0.0 — an exact
        # == 0.0 would miss a (theoretical) underflow-to-subnormal sum and
        # then divide by it below.
        if total_weight <= 0.0:
            raise EmptyBaseSetError(tuple(query_vector.terms))
        if math.isinf(total_weight) or math.isinf(query_weight):
            # Finite weights near the float limit: every blended score would
            # divide to NaN or zero, and the live path refuses them too.
            raise ParameterError(
                f"query weights sum to {query_weight}: too large to blend"
            )
        blended /= total_weight
        return RankedResult(
            node_ids=source.node_ids,
            scores=blended,
            iterations=0,  # query time does no power iteration
            converged=True,
            base_weights={t: w / total_weight for t, w in matched.items()},
        )
