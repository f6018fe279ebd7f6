"""Two-stage retrieval: exact top-N IR candidates, then an authority rerank.

Full ObjectRank2 pays a power iteration over the whole corpus for every
query, even though the user sees one page of results.  The two-stage engine
makes the per-query cost scale with that page instead:

1. **Candidate generation** — :func:`top_n_candidates`: every document of
   ``S(Q)`` scored term at a time (:func:`repro.ir.accumulate.score_postings`,
   ``scorer.score`` floats), the best N kept by (score desc, doc id asc).
2. **Authority reranking** — the focused-subgraph ObjectRank2 fixpoint
   (:func:`repro.ranking.core.rank` with ``support=``) on the candidates'
   ``horizon``-hop neighborhood, restarted from the candidates' normalized
   IR scores.  Its authority scores are the answer, as in reranking an
   initially retrieved list by authority over the graph that list induces.

Stage 2 builds no matrix: the transition matrix is per topology; a query
gathers its neighborhood's rows and iterates them over a scratch vector
(:mod:`repro.ranking.focused` says why the floats cannot move), then cuts
its page inside the neighborhood, outside which every score is exactly 0.0.

Degenerate configurations collapse *bit-identically* onto existing paths —
``candidates >= |S(Q)|`` is exactly focused ObjectRank2 (the IR-weighted
base set of all of ``S(Q)``, its ``horizon``-hop neighborhood, the same
``rank`` call; ``tests/ranking/reference.py`` keeps it as the oracle) and
the run over the induced submatrix.  The property tests pin this, which is
what makes the fast path trustworthy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from repro.errors import ParameterError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.accumulate import score_postings
from repro.ir.scoring import Scorer
from repro.query.engine import SearchEngine, SearchResult, select_top
from repro.query.query import KeywordQuery, QueryVector
from repro.ranking.core import rank, weighted_restarts
from repro.ranking.focused import FocusedResult, RowOperator, focused_neighborhood
from repro.ranking.objectrank2 import normalized_base_weights
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    Tolerance,
)
from repro.ranking.topk import TopKStable

DEFAULT_CANDIDATES = 200
DEFAULT_RERANK_HORIZON = 2

#: The per-request two-stage knobs, in wire/CLI order: stage-1 candidate-set
#: size, rerank horizon, top-k early exit, hub-expansion cap and the
#: adaptive-deepening budget with its hop ceiling.
TWO_STAGE_PARAMETERS = (
    "candidates", "horizon", "early_k", "expand_cap", "node_budget", "max_horizon",
)


def check_two_stage_parameters(
    candidates: int,
    horizon: int,
    early_k: int | None = None,
    expand_cap: int | None = None,
    node_budget: int | None = None,
    max_horizon: int | None = None,
) -> None:
    """Reject out-of-range two-stage parameters (the one validator)."""
    if candidates < 1:
        raise ParameterError(f"candidates must be positive, got {candidates}")
    if horizon < 0:
        raise ParameterError(f"horizon must be non-negative, got {horizon}")
    for name, value in (
        ("early_k", early_k),
        ("expand_cap", expand_cap),
        ("node_budget", node_budget),
        ("max_horizon", max_horizon),
    ):
        if value is not None and value < 1:
            raise ParameterError(f"{name} must be positive, got {value}")
    # focused_neighborhood deepens only under both: one alone would be ignored.
    if (node_budget is None) != (max_horizon is None):
        raise ParameterError(
            "node_budget and max_horizon must be set together, got "
            f"node_budget={node_budget}, max_horizon={max_horizon}"
        )


@dataclass(frozen=True)
class Candidate:
    """One stage-1 hit: a document and its exact IR score."""

    doc_id: str
    score: float


@dataclass
class CandidateSet:
    """Top-N candidates in (score desc, doc id asc) order, plus accounting.

    ``evaluated`` counts the documents scored: every one of ``S(Q)``.
    """

    candidates: list[Candidate]
    evaluated: int
    #: Positions into ``candidates`` in ``S(Q)`` first-hit order — the order
    #: a base set over the candidates lists them in.
    first_hit_order: list[int]
    #: Documents of ``S(Q)`` left unscored: none.
    pruned: ClassVar[int] = 0

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


def top_n_candidates(
    scorer: Scorer, query_vector: QueryVector, n: int
) -> CandidateSet:
    """The best ``n`` documents of ``S(Q)`` by (score desc, doc id asc).

    Every document holding a positive-weight query term is scored, so the
    candidates carry ``scorer.score`` floats (``tests/ir/reference.py`` is
    the document-at-a-time oracle).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    scored = score_postings(scorer, query_vector.weights)
    doc_ids = scored.doc_ids
    keep = np.lexsort((doc_ids, -scored.scores))[:n]
    return CandidateSet(
        candidates=[
            Candidate(doc_id, score)
            for doc_id, score in zip(doc_ids[keep].tolist(), scored.scores[keep].tolist())
        ],
        evaluated=int(doc_ids.size),
        first_hit_order=np.argsort(keep).tolist(),
    )


@dataclass
class TwoStageResult(FocusedResult):
    """The rerank's :class:`FocusedResult` plus per-stage accounting."""

    candidate_set: CandidateSet
    stage1_seconds: float
    stage2_seconds: float

    @property
    def num_candidates(self) -> int:
        return len(self.candidate_set.candidates)


def restricted_base_set(candidate_set: CandidateSet) -> dict[str, float]:
    """Base-set weights over the candidates only, in ``S(Q)`` order.

    :func:`repro.ranking.objectrank2.weighted_base_set` restricted to the
    candidates: the same documents in the same first-hit order
    (``candidate_set.first_hit_order``), their stage-1 scores — which are
    ``scorer.score`` floats, so nothing is re-scored — through the same
    floor-and-normalize step.  When the candidates cover the whole base set
    the two are bit-identical.
    """
    ordered = [candidate_set.candidates[i] for i in candidate_set.first_hit_order]
    weights = normalized_base_weights(
        np.array([candidate.score for candidate in ordered], dtype=np.float64)
    )
    return dict(zip([candidate.doc_id for candidate in ordered], weights.tolist()))


def two_stage_rank(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vector: QueryVector,
    candidates: int = DEFAULT_CANDIDATES,
    horizon: int = DEFAULT_RERANK_HORIZON,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    early_k: int | None = None,
    expand_cap: int | None = None,
    node_budget: int | None = None,
    max_horizon: int | None = None,
) -> TwoStageResult:
    """Rank ``query_vector`` with candidate generation + authority reranking.

    The returned scores are the focused-subgraph authority scores over the
    whole rerank neighborhood — the focused-ObjectRank2 shape.  ``early_k``
    stops the rerank fixpoint once the top-``early_k`` sequence is stable
    instead of iterating to tolerance.  ``expand_cap`` bounds hub expansion;
    ``node_budget`` with ``max_horizon`` (both or neither) deepens the
    horizon adaptively for small base sets (see
    :func:`repro.ranking.focused.focused_neighborhood`); leave all three
    ``None`` for the exact focused semantics — the degenerate bit-identity
    with focused ObjectRank2 assumes the uncapped, fixed-horizon expansion.
    """
    check_two_stage_parameters(
        candidates, horizon, early_k, expand_cap, node_budget, max_horizon
    )

    start = time.perf_counter()
    candidate_set = top_n_candidates(scorer, query_vector, candidates)
    stage1_seconds = time.perf_counter() - start

    start = time.perf_counter()
    nodes = focused_neighborhood(
        graph,
        graph.indices_of(candidate_set.doc_ids),
        horizon,
        expand_cap=expand_cap,
        node_budget=node_budget,
        max_horizon=max_horizon,
    )
    (ranked,) = rank(
        graph,
        weighted_restarts(graph, [graph.base_set(restricted_base_set(candidate_set))]),
        Tolerance(tolerance) if early_k is None else TopKStable(early_k),
        damping=damping,
        max_iterations=max_iterations,
        support=nodes,
    )
    edge_count = RowOperator(graph.matrix(), nodes).edge_count()
    stage2_seconds = time.perf_counter() - start

    return TwoStageResult(
        ranked=ranked,
        candidate_set=candidate_set,
        neighborhood=nodes,
        subgraph_edges=edge_count,
        horizon=horizon,
        stage1_seconds=stage1_seconds,
        stage2_seconds=stage2_seconds,
    )


@dataclass
class TwoStageSearchResult(SearchResult):
    """A :class:`SearchResult` that also carries the two-stage accounting."""

    stages: TwoStageResult | None = None


@dataclass
class TwoStageEngine:
    """Two-stage retrieval bound to a :class:`SearchEngine`'s dataset.

    Mirrors :meth:`SearchEngine.search` (same query forms, per-call learned
    rates via shared transfer views, label filtering) so callers can switch
    retrieval modes without changing anything else.  The constructor fields
    are per-engine defaults; every ``search`` call may override the
    :data:`TWO_STAGE_PARAMETERS` among them.
    """

    engine: SearchEngine
    candidates: int = DEFAULT_CANDIDATES
    horizon: int = DEFAULT_RERANK_HORIZON
    early_k: int | None = None
    expand_cap: int | None = None
    node_budget: int | None = None
    max_horizon: int | None = None

    @classmethod
    def from_config(cls, engine: SearchEngine, config) -> "TwoStageEngine":
        """An engine with a :class:`repro.serve.service.ServeConfig`'s
        two-stage defaults (the ``mode=two_stage`` ``/search`` defaults)."""
        return cls(
            engine,
            candidates=config.candidates,
            horizon=config.rerank_horizon,
            expand_cap=config.rerank_expand_cap,
            node_budget=config.rerank_node_budget,
            max_horizon=config.rerank_max_horizon,
        )

    def resolve(self, **overrides) -> dict:
        """Per-call overrides over the engine defaults, validated.

        ``overrides`` may name any of :data:`TWO_STAGE_PARAMETERS` (``None``
        keeps the engine's default).  Returns the value of every one of them
        a search with these overrides runs under — what the serve tier keys
        its two-stage cache cohorts on.
        """
        unknown = sorted(set(overrides).difference(TWO_STAGE_PARAMETERS))
        if unknown:
            raise TypeError(f"unknown two-stage parameters: {unknown}")
        resolved = {}
        for name in TWO_STAGE_PARAMETERS:
            value = overrides.get(name)
            resolved[name] = value if value is not None else getattr(self, name)
        check_two_stage_parameters(**resolved)
        return resolved

    def search(
        self,
        query: KeywordQuery | QueryVector | str,
        top_k: int = 10,
        rates: AuthorityTransferSchemaGraph | None = None,
        labels: tuple[str, ...] | None = None,
        **overrides,
    ) -> TwoStageSearchResult:
        """Two-stage search; ``overrides`` are :meth:`resolve`'s arguments."""
        parameters = self.resolve(**overrides)
        vector = self.engine.query_vector(query)
        graph = self.engine.transfer_view(rates)
        start = time.perf_counter()
        stages = two_stage_rank(
            graph,
            self.engine.scorer,
            vector,
            damping=self.engine.damping,
            tolerance=self.engine.tolerance,
            max_iterations=self.engine.max_iterations,
            **parameters,
        )
        elapsed = time.perf_counter() - start
        top = select_top(
            self.engine.data_graph, stages.ranked, top_k, labels,
            support=stages.neighborhood,
        )
        return TwoStageSearchResult(vector, stages.ranked, top, elapsed, stages=stages)
