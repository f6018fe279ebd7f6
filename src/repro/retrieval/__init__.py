"""Two-stage retrieval: exact top-N candidates + authority reranking.

The query engine whose cost scales with the result page, not the corpus:
stage 1 scores every document of ``S(Q)`` and keeps the top N by IR score,
stage 2 reranks them by focused ObjectRank2 authority over the candidates'
neighborhood (:mod:`repro.retrieval.engine`).
"""

from repro.retrieval.engine import (
    DEFAULT_CANDIDATES,
    DEFAULT_RERANK_HORIZON,
    TWO_STAGE_PARAMETERS,
    Candidate,
    CandidateSet,
    TwoStageEngine,
    TwoStageResult,
    TwoStageSearchResult,
    check_two_stage_parameters,
    positive_query_weights,
    restricted_base_set,
    top_n_candidates,
    two_stage_rank,
)

__all__ = [
    "Candidate",
    "CandidateSet",
    "DEFAULT_CANDIDATES",
    "DEFAULT_RERANK_HORIZON",
    "TWO_STAGE_PARAMETERS",
    "TwoStageEngine",
    "TwoStageResult",
    "TwoStageSearchResult",
    "check_two_stage_parameters",
    "positive_query_weights",
    "restricted_base_set",
    "top_n_candidates",
    "two_stage_rank",
]
