"""Pure-IR ranking baseline (no link structure).

The paper's motivating claim (Sections 1 and 7): traditional IR ranking
"misses objects that are much related to the keywords, although they do not
contain them" — the "Data Cube" paper for the query "OLAP".  This baseline
ranks nodes purely by IR score so that the claim is testable: any node
without a query term scores exactly zero here, while ObjectRank2 can rank it
first.
"""

from __future__ import annotations

from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.accumulate import score_postings
from repro.ir.scoring import Scorer
from repro.query.query import QueryVector
from repro.ranking.convergence import RankedResult


def ir_only_rank(
    graph: AuthorityTransferDataGraph,
    scorer: Scorer,
    query_vector: QueryVector,
) -> RankedResult:
    """Rank nodes by ``IRScore(v, Q)`` alone (Equation 2, no authority flow).

    Returned as a :class:`RankedResult` (iterations = 0) so it slots into any
    comparison harness next to the authority-flow rankers.  Raises
    :class:`EmptyBaseSetError` when no node matches any query term, matching
    the authority-flow rankers' contract.
    """
    scored = score_postings(scorer, query_vector.weights)
    base = dict(zip(scored.doc_ids.tolist(), scored.scores.tolist()))
    return RankedResult(
        node_ids=graph.node_ids,
        scores=graph.restart_vector(base),
        iterations=0,
        converged=True,
        base_weights=base,
    )
