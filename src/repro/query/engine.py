"""The search engine: base-set computation + ObjectRank2 over one dataset.

:class:`SearchEngine` owns the indexed view of a dataset (authority transfer
data graph, inverted index, IR scorer) and exposes one ``search`` call.  It is
deliberately stateless across queries — session state (current query vector,
learned rates, warm-start scores) lives in
:class:`repro.core.system.ObjectRankSystem`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.build_cache import BuildCache
from repro.graph.data_graph import DataGraph
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ir.scoring import BM25Scorer, Scorer
from repro.ir.tokenize import DEFAULT_ANALYZER, Analyzer
from repro.query.query import KeywordQuery, QueryVector
from repro.ranking.convergence import RankedResult
from repro.ranking.objectrank2 import objectrank2
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)


@dataclass
class SearchResult:
    """A ranked answer: the top-k hits plus full scores and accounting."""

    query_vector: QueryVector
    ranked: RankedResult
    top: list[tuple[str, float]]
    elapsed_seconds: float

    @property
    def iterations(self) -> int:
        return self.ranked.iterations

    @property
    def scores(self) -> np.ndarray:
        return self.ranked.scores

    def hit_ids(self) -> list[str]:
        return [node_id for node_id, _ in self.top]


def select_top(
    data_graph: DataGraph,
    ranked: RankedResult,
    top_k: int,
    labels: tuple[str, ...] | None,
    support: np.ndarray | None = None,
) -> list[tuple[str, float]]:
    """The top-``top_k`` hits of ``ranked``, optionally label-filtered.

    With ``labels``, hits are restricted to nodes of the given types —
    authority hubs of other types still influence scores but are not shown
    (nor are ids ``data_graph`` does not hold: a ranking served from a newer
    store generation can name nodes this process's graph predates).

    ``support`` (ascending node indices, e.g. a rerank neighborhood) promises
    every score outside it is exactly 0.0: the page is cut inside it, not by
    partitioning a mostly-zero vector, whenever it holds ``top_k`` positive
    scores the filter admits — with fewer, zeros reach the page and tie by
    global index, so every node is looked at.
    """
    if labels is not None:
        code_of, codes = data_graph.label_codes(ranked.node_ids)
        wanted = [code_of[label] for label in labels if label in code_of]
    if support is not None:
        inside = support if labels is None else support[np.isin(codes[support], wanted)]
        if np.count_nonzero(ranked.scores[inside] > 0) >= top_k:
            return ranked.top_k(top_k, within=inside)
    if labels is None:
        return ranked.top_k(top_k)
    return ranked.top_k(top_k, within=np.flatnonzero(np.isin(codes, wanted)))


@dataclass
class SearchEngine:
    """ObjectRank2 search over one data graph.

    ``transfer_schema`` supplies the *initial* authority transfer rates; a
    per-call override supports learned rates without mutating shared state
    (each :class:`SimulatedUser` and each feedback session can carry its own
    rates against one shared engine).
    """

    data_graph: DataGraph
    transfer_schema: AuthorityTransferSchemaGraph
    analyzer: Analyzer = field(default_factory=lambda: DEFAULT_ANALYZER)
    damping: float = DEFAULT_DAMPING
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    #: Distinct learned-rate views kept alive per engine.  Each view shares
    #: the graph topology and only owns an O(edges) rate array plus a sparse
    #: matrix, so a handful of concurrent sessions is cheap to cache.
    VIEW_CACHE_SIZE = 8

    def __post_init__(self) -> None:
        self.graph = AuthorityTransferDataGraph(self.data_graph, self.transfer_schema)
        self.index = InvertedIndex.from_graph(self.data_graph, self.analyzer)
        self.scorer: Scorer = BM25Scorer(self.index)
        self._views: BuildCache[AuthorityTransferDataGraph] = BuildCache(
            self.VIEW_CACHE_SIZE
        )

    def adopt(
        self,
        data_graph: DataGraph,
        transfer_schema: AuthorityTransferSchemaGraph,
        graph: AuthorityTransferDataGraph,
        index: InvertedIndex,
    ) -> None:
        """Swap in a new graph snapshot (the ingest refresh handover).

        ``graph``/``index`` must already be built over ``data_graph`` under
        ``transfer_schema`` — the expensive construction happens in the
        caller (outside any lock); this method only republishes references
        and drops the learned-rate view cache, which indexed the old
        topology.  An in-flight request that already resolved the old graph
        keeps using it coherently (the old objects stay alive and
        internally consistent), exactly like a store generation swap; only
        *new* lookups see the adopted snapshot.  In-flight view builds
        are left alone: a build that races the swap caches a view
        of the old topology under a rate key, which the next miss on that
        key simply rebuilds — stale entries age out of the small LRU.
        """
        self.data_graph = data_graph
        self.transfer_schema = transfer_schema
        self.graph = graph
        self.index = index
        self.scorer = BM25Scorer(index)
        self._views.clear()

    def transfer_view(
        self, rates: AuthorityTransferSchemaGraph | None = None
    ) -> AuthorityTransferDataGraph:
        """The transfer graph under ``rates``, without mutating shared state.

        Returns the engine's own graph when ``rates`` is ``None`` or equals
        the engine's schema rates; otherwise a cached
        :meth:`~repro.graph.transfer_graph.AuthorityTransferDataGraph.with_rates`
        view.  Views are keyed by the canonical rate vector and kept in a
        small LRU so repeated queries of the same feedback session (or the
        same cached serving session) reuse one transition matrix.

        Concurrent misses on the same key are deduplicated by the cache's
        per-key build latch (:class:`~repro.graph.build_cache.BuildCache`):
        exactly one thread materializes the O(edges) view (its rate array
        and CSR matrix), everyone else waits and shares the built view
        instead of clobbering it.
        """
        graph = self.graph
        if rates is None or rates == graph.transfer_schema:
            return graph
        return self._views.get(
            tuple(rates.as_vector()), lambda: graph.with_rates(rates)
        )

    def query_vector(self, query: KeywordQuery | QueryVector | str) -> QueryVector:
        """Normalize any accepted query form into a weighted query vector."""
        if isinstance(query, QueryVector):
            return query
        if isinstance(query, str):
            query = KeywordQuery.parse(query, self.analyzer)
        return query.vector()

    def search(
        self,
        query: KeywordQuery | QueryVector | str,
        top_k: int = 10,
        rates: AuthorityTransferSchemaGraph | None = None,
        init: np.ndarray | None = None,
        labels: tuple[str, ...] | None = None,
    ) -> SearchResult:
        """Run ObjectRank2 and return the top-``top_k`` objects.

        ``rates`` overrides the transfer rates for this call (the learned
        rates of a feedback session) via a per-call :meth:`transfer_view` —
        the shared graph is never mutated, so interleaved or concurrent
        sessions with different learned rates cannot contaminate each other;
        ``init`` warm-starts the power iteration with a previous score vector
        (Section 6.2); ``labels`` restricts the returned hits to the given
        node types (e.g. only ``("Paper",)`` — authority hubs like Year nodes
        still influence scores but are not shown).
        """
        vector = self.query_vector(query)
        graph = self.transfer_view(rates)
        start = time.perf_counter()
        ranked = objectrank2(
            graph,
            self.scorer,
            vector,
            self.damping,
            self.tolerance,
            self.max_iterations,
            init,
        )
        elapsed = time.perf_counter() - start
        top = select_top(self.data_graph, ranked, top_k, labels)
        return SearchResult(vector, ranked, top, elapsed)
