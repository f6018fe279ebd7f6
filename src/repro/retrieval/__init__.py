"""Two-stage retrieval: pruned candidate generation + authority reranking.

The query engine whose cost scales with the result page, not the corpus:
stage 1 generates an exact top-N IR candidate set with WAND/max-score
pruning (:mod:`repro.retrieval.wand`), stage 2 reranks it with focused
ObjectRank2 over the candidate neighborhood and pluggable score fusion
(:mod:`repro.retrieval.engine`, :mod:`repro.retrieval.fusion`).
"""

from repro.retrieval.engine import (
    DEFAULT_CANDIDATES,
    DEFAULT_FUSION,
    DEFAULT_FUSION_WEIGHT,
    DEFAULT_RERANK_HORIZON,
    TWO_STAGE_PARAMETERS,
    TwoStageEngine,
    TwoStageResult,
    TwoStageSearchResult,
    check_two_stage_parameters,
    restricted_base_set,
    two_stage_rank,
)
from repro.retrieval.fusion import DEFAULT_RRF_K, FUSION_MODES, fuse_scores
from repro.retrieval.wand import (
    Candidate,
    CandidateSet,
    exhaustive_top_n,
    positive_query_weights,
    pruned_top_n,
)

__all__ = [
    "Candidate",
    "CandidateSet",
    "DEFAULT_CANDIDATES",
    "DEFAULT_FUSION",
    "DEFAULT_FUSION_WEIGHT",
    "DEFAULT_RERANK_HORIZON",
    "DEFAULT_RRF_K",
    "FUSION_MODES",
    "TWO_STAGE_PARAMETERS",
    "TwoStageEngine",
    "TwoStageResult",
    "TwoStageSearchResult",
    "check_two_stage_parameters",
    "exhaustive_top_n",
    "fuse_scores",
    "positive_query_weights",
    "pruned_top_n",
    "restricted_base_set",
    "two_stage_rank",
]
