"""Authority-flow ranking: ObjectRank, ObjectRank2 and baselines (Section 3,
Equations 4 and 16).

Every authority-flow variant is a restart builder plus one
:func:`~repro.ranking.core.rank` call (:mod:`repro.ranking.core`).
"""

from repro.ranking.compare import ranking_delta
from repro.ranking.convergence import RankedResult
from repro.ranking.core import global_restarts, rank, uniform_restarts, weighted_restarts
from repro.ranking.ir_only import ir_only_rank
from repro.ranking.objectrank import multi_keyword_objectrank
from repro.ranking.objectrank2 import objectrank2, weighted_base_set
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    Tolerance,
)
from repro.ranking.precompute import PrecomputedRanker
from repro.ranking.topk import TopKStable

__all__ = [
    "DEFAULT_DAMPING",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "PrecomputedRanker",
    "RankedResult",
    "Tolerance",
    "TopKStable",
    "global_restarts",
    "ir_only_rank",
    "multi_keyword_objectrank",
    "objectrank2",
    "rank",
    "ranking_delta",
    "uniform_restarts",
    "weighted_base_set",
    "weighted_restarts",
]
