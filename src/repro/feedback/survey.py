"""Survey sessions: the feedback-loop protocol of Section 6.1.

One session plays the role of one (user, query) pair of the paper's surveys:

1. the system answers the query and presents the top-k *unseen* objects;
2. precision is recorded against the user's relevant set under the residual
   collection method;
3. the user marks the relevant presented objects, the presented objects are
   added to the seen set, and the system reformulates from the marks;
4. repeat for a fixed number of feedback iterations.

The per-iteration precision list (initial query + reformulated queries) is
the unit averaged into Figures 10 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.system import ObjectRankSystem
from repro.feedback.residual import ResidualCollection
from repro.feedback.simulated_user import SimulatedUser
from repro.fold import left_sum
from repro.query.query import KeywordQuery


@dataclass
class SessionTrace:
    """Everything recorded during one survey session."""

    query: str
    precisions: list[float] = field(default_factory=list)
    marked_counts: list[int] = field(default_factory=list)
    rate_vectors: list[list[float]] = field(default_factory=list)
    explaining_iterations: list[int] = field(default_factory=list)


def run_feedback_session(
    system: ObjectRankSystem,
    user: SimulatedUser,
    query: KeywordQuery | str,
    feedback_iterations: int = 4,
    presented_k: int = 10,
) -> SessionTrace:
    """Drive one full survey session and return its trace.

    ``presented_k`` is the number of results shown per iteration (the ``k``
    of the paper's precision@k; recall equals precision because output is cut
    at ``k``).  The returned trace has ``feedback_iterations + 1`` precision
    entries: the initial query plus each reformulated query.
    """
    query_text = query if isinstance(query, str) else " ".join(query.keywords)
    trace = SessionTrace(query=query_text)
    residual = ResidualCollection()
    relevant = user.relevant_set(query)

    result = system.query(query)
    for _ in range(feedback_iterations + 1):
        presented = residual.present(result.ranked.ranking(), presented_k)
        trace.precisions.append(residual.precision(result.ranked.ranking(), relevant, presented_k))
        marked = user.judge(presented, query)
        trace.marked_counts.append(len(marked))
        residual.mark_seen(presented)
        trace.rate_vectors.append(system.current_rates.as_vector())
        if len(trace.precisions) == feedback_iterations + 1:
            break
        outcome = system.feedback(marked)
        trace.explaining_iterations.extend(e.iterations for e in outcome.explanations)
        result = outcome.result
    return trace


def average_precision_curve(traces: list[SessionTrace]) -> list[float]:
    """Mean precision per iteration across sessions (a Figure 10/12 series)."""
    if not traces:
        return []
    length = min(len(t.precisions) for t in traces)
    return [
        left_sum(t.precisions[i] for t in traces) / len(traces) for i in range(length)
    ]
