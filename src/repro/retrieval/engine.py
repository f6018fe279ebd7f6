"""Stage 1 + stage 2 assembled: the two-stage retrieval engine.

Full ObjectRank2 pays a power iteration over the whole corpus for every
query, even though the user sees one page of results.  The two-stage engine
makes the per-query cost scale with that page instead:

1. **Candidate generation** — pruned top-N IR retrieval
   (:func:`repro.retrieval.wand.pruned_top_n`): exact BM25 top N, touching
   only postings whose impact bound can reach the running threshold.
2. **Authority reranking** — the focused-subgraph ObjectRank2 fixpoint
   (:func:`repro.ranking.focused.induced_objectrank`) on the candidates'
   ``horizon``-hop neighborhood, restarted from the candidates' normalized
   IR scores; then pluggable fusion (:mod:`repro.retrieval.fusion`) of the
   IR and authority signals.

Stage 2 builds no matrix: the transition matrix is per topology; a query
gathers its neighborhood's rows and iterates them over a scratch vector
(:mod:`repro.ranking.focused` says why the floats cannot move), then cuts
its page inside the neighborhood, outside which every score is exactly 0.0.

Degenerate configurations collapse *bit-identically* onto existing paths —
``candidates >= |S(Q)|`` with authority-only fusion is exactly
:func:`repro.ranking.focused.focused_objectrank2` — because both run the
same induced-subgraph core on the same restart vector.  The property tests
pin this, which is what makes the fast path trustworthy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.scoring import Scorer
from repro.query.engine import SearchEngine, SearchResult, select_top
from repro.query.query import KeywordQuery, QueryVector
from repro.ranking.focused import (
    FocusedResult,
    focused_neighborhood,
    induced_objectrank,
)
from repro.ranking.objectrank2 import normalized_base_weights
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)
from repro.retrieval.fusion import DEFAULT_RRF_K, FUSION_MODES, fuse_scores
from repro.retrieval.wand import CandidateSet, pruned_top_n

DEFAULT_CANDIDATES = 200
DEFAULT_FUSION = "weighted"
DEFAULT_FUSION_WEIGHT = 1.0
DEFAULT_RERANK_HORIZON = 2

#: The per-request two-stage knobs, in wire/CLI order: stage-1 candidate-set
#: size, fusion mode and authority share, rerank horizon, top-k early exit,
#: hub-expansion cap and the adaptive-deepening budget with its hop ceiling.
TWO_STAGE_PARAMETERS = (
    "candidates", "fusion", "fusion_weight", "horizon", "early_k",
    "expand_cap", "node_budget", "max_horizon",
)


def check_two_stage_parameters(
    candidates: int,
    fusion: str,
    fusion_weight: float,
    horizon: int,
    early_k: int | None = None,
    expand_cap: int | None = None,
    node_budget: int | None = None,
    max_horizon: int | None = None,
) -> None:
    """Reject out-of-range two-stage parameters (the one validator)."""
    if fusion not in FUSION_MODES:
        raise ParameterError(
            f"unknown fusion mode {fusion!r}; expected one of {FUSION_MODES}"
        )
    if not 0.0 <= fusion_weight <= 1.0:
        raise ParameterError(f"fusion_weight must be in [0, 1], got {fusion_weight}")
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


@dataclass
class TwoStageResult(FocusedResult):
    """The rerank's :class:`FocusedResult` plus per-stage accounting."""

    candidate_set: CandidateSet
    fusion: str
    fusion_weight: float
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
    return normalized_base_weights(
        [candidate.doc_id for candidate in ordered],
        np.array([candidate.score for candidate in ordered], dtype=np.float64),
    )


def two_stage_rank(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vector: QueryVector,
    candidates: int = DEFAULT_CANDIDATES,
    fusion: str = DEFAULT_FUSION,
    fusion_weight: float = DEFAULT_FUSION_WEIGHT,
    horizon: int = DEFAULT_RERANK_HORIZON,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    early_k: int | None = None,
    rrf_k: float = DEFAULT_RRF_K,
    expand_cap: int | None = None,
    node_budget: int | None = None,
    max_horizon: int | None = None,
) -> TwoStageResult:
    """Rank ``query_vector`` with candidate generation + authority reranking.

    With authority-only fusion (``weighted`` at weight 1.0) the returned
    scores are the focused-subgraph authority scores over the whole rerank
    neighborhood — the focused-ObjectRank2 shape.  With a genuinely mixed
    fusion the scores are fused values over the candidates only (zeros
    elsewhere): the result *is* the reranked page.  ``early_k`` stops the
    rerank fixpoint once the top-``early_k`` sequence is stable instead of
    iterating to tolerance.  ``expand_cap`` bounds hub expansion;
    ``node_budget`` with ``max_horizon`` deepens the horizon adaptively for
    small base sets (see :func:`repro.ranking.focused.focused_neighborhood`);
    leave all three ``None`` for the exact focused semantics — the degenerate
    bit-identity with focused ObjectRank2 assumes the uncapped, fixed-horizon
    expansion.
    """
    check_two_stage_parameters(
        candidates, fusion, fusion_weight, horizon, early_k, expand_cap,
        node_budget, max_horizon,
    )

    start = time.perf_counter()
    candidate_set = pruned_top_n(scorer, query_vector, candidates)
    stage1_seconds = time.perf_counter() - start

    start = time.perf_counter()
    seeds = graph.indices_of(candidate_set.doc_ids)
    nodes = focused_neighborhood(
        graph,
        seeds,
        horizon,
        expand_cap=expand_cap,
        node_budget=node_budget,
        max_horizon=max_horizon,
    )
    base = restricted_base_set(candidate_set)
    ranked, edge_count = induced_objectrank(
        graph,
        nodes,
        base,
        damping,
        tolerance,
        max_iterations,
        early_k=early_k,
    )
    # repro-lint: ignore[RL005] exact endpoint check IS the degenerate config
    authority_only = fusion == "weighted" and fusion_weight == 1.0
    if not authority_only:
        ir_scores = np.asarray(
            [c.score for c in candidate_set.candidates], dtype=np.float64
        )
        fused = fuse_scores(
            fusion,
            ir_scores,
            ranked.scores[seeds],
            authority_weight=fusion_weight,
            rrf_k=rrf_k,
        )
        ranked.scores = np.zeros(graph.num_nodes)
        # repro-lint: ignore[RL001] candidate doc ids are unique by WAND merge
        ranked.scores[seeds] = fused
    stage2_seconds = time.perf_counter() - start

    return TwoStageResult(
        ranked=ranked,
        candidate_set=candidate_set,
        neighborhood=nodes,
        subgraph_edges=edge_count,
        horizon=horizon,
        fusion=fusion,
        fusion_weight=fusion_weight,
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
    fusion: str = DEFAULT_FUSION
    fusion_weight: float = DEFAULT_FUSION_WEIGHT
    horizon: int = DEFAULT_RERANK_HORIZON
    early_k: int | None = None
    rrf_k: float = field(default=DEFAULT_RRF_K)
    expand_cap: int | None = None
    node_budget: int | None = None
    max_horizon: int | None = None

    @classmethod
    def from_config(cls, engine: SearchEngine, config) -> "TwoStageEngine":
        """An engine with a config's two-stage defaults.

        ``config`` is a :class:`repro.core.config.SystemConfig` or a
        :class:`repro.serve.service.ServeConfig` — both spell the rerank
        knobs with a ``rerank_`` prefix.
        """
        return cls(
            engine,
            candidates=config.candidates,
            fusion=config.fusion,
            fusion_weight=config.fusion_weight,
            horizon=config.rerank_horizon,
            early_k=config.rerank_early_k,
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
            rrf_k=self.rrf_k,
            **parameters,
        )
        elapsed = time.perf_counter() - start
        top = select_top(
            self.engine.data_graph, stages.ranked, top_k, labels,
            support=stages.neighborhood,
        )
        return TwoStageSearchResult(vector, stages.ranked, top, elapsed, stages=stages)
