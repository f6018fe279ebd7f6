"""Authority-flow ranking: PageRank, ObjectRank, ObjectRank2 and baselines
(Section 3, Equations 4 and 16)."""

from repro.ranking.batch import (
    BatchedPowerIterationResult,
    batched_keyword_vectors,
    batched_objectrank,
    batched_objectrank2,
    batched_power_iteration,
)
from repro.ranking.compare import RankChange, RankingDelta, ranking_delta
from repro.ranking.convergence import PowerIterationResult, RankedResult
from repro.ranking.focused import FocusedResult, focused_neighborhood, focused_objectrank2
from repro.ranking.ir_only import ir_only_rank
from repro.ranking.objectrank import (
    base_set,
    global_objectrank,
    keyword_objectrank,
    multi_keyword_objectrank,
    normalizing_exponent,
    objectrank,
)
from repro.ranking.objectrank2 import objectrank2, weighted_base_set
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    pagerank,
    personalized_pagerank,
    power_iteration,
    restart_distribution,
)
from repro.ranking.precompute import PrecomputedRanker
from repro.ranking.topk import objectrank2_topk

__all__ = [
    "BatchedPowerIterationResult",
    "DEFAULT_DAMPING",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "FocusedResult",
    "PowerIterationResult",
    "PrecomputedRanker",
    "RankChange",
    "RankedResult",
    "RankingDelta",
    "base_set",
    "batched_keyword_vectors",
    "batched_objectrank",
    "batched_objectrank2",
    "batched_power_iteration",
    "focused_neighborhood",
    "focused_objectrank2",
    "global_objectrank",
    "ir_only_rank",
    "keyword_objectrank",
    "multi_keyword_objectrank",
    "normalizing_exponent",
    "objectrank",
    "objectrank2",
    "objectrank2_topk",
    "pagerank",
    "personalized_pagerank",
    "power_iteration",
    "ranking_delta",
    "restart_distribution",
    "weighted_base_set",
]
