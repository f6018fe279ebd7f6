"""Training the authority transfer rates from feedback (Section 6.1.1).

The rates of ObjectRank had to be set manually by a domain expert; the paper
shows structure-based reformulation *learns* them.  The protocol:

* initialize every edge-type rate to 0.3 (``UserVector``);
* run structure-only feedback sessions; after every reformulation iteration
  the learned rate vector is compared to the ground-truth ``ObjVector`` of
  [BHP04] by cosine similarity;
* curves are averaged over (user, query) sessions, each trained
  independently from the initial vector — the paper's "training curves for 4
  users averaged over 5 queries each";
* the curve rises, then falls as the rates overfit the feedback objects;
  larger adjustment factors ``C_f`` peak in fewer iterations (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.system import ObjectRankSystem
from repro.datasets.base import Dataset
from repro.feedback.metrics import cosine_similarity
from repro.feedback.residual import ResidualCollection
from repro.feedback.simulated_user import SimulatedUser
from repro.graph.authority import AuthorityTransferSchemaGraph, EdgeType
from repro.query.engine import SearchEngine, SearchResult
from repro.ranking.batch import batched_objectrank2
from repro.ranking.objectrank import global_objectrank


@dataclass
class TrainingCurve:
    """Cosine similarity to the ground truth after each iteration.

    ``similarities[0]`` is the similarity of the initial (untrained) vector;
    entry ``i`` follows reformulation ``i``.  One curve per ``C_f`` value is
    what Figure 11 plots.
    """

    adjustment_factor: float
    similarities: list[float] = field(default_factory=list)
    rate_vectors: list[list[float]] = field(default_factory=list)

    @property
    def peak_iteration(self) -> int:
        """Index of the maximum similarity (0 = before any training)."""
        best = max(self.similarities)
        return self.similarities.index(best)


def train_transfer_rates(
    dataset: Dataset,
    queries: list[str],
    adjustment_factor: float,
    iterations: int = 5,
    initial_rate: float = 0.3,
    presented_k: int = 10,
    relevance_depth: int = 20,
    edge_order: list[EdgeType] | None = None,
    engine: SearchEngine | None = None,
    user_seed: int = 0,
    user_noise: float = 0.0,
    radius: int = 3,
) -> TrainingCurve:
    """Run the rate-training experiment for one ``C_f`` value.

    Each query trains its own session starting from the all-``initial_rate``
    vector; the returned curve averages the per-session cosine similarities
    (and rate vectors) per iteration.  The ground truth is
    ``dataset.ground_truth_rates``.

    Every session's *initial* evaluation runs against the same matrix (the
    all-``initial_rate`` schema), so the per-query fixpoints are computed in
    one blocked run (``repro.ranking.batch``) sharing a single global
    warm-start vector, instead of one serial power iteration — and one
    global-ObjectRank recomputation — per query.
    """
    if dataset.ground_truth_rates is None:
        raise ValueError(f"dataset {dataset.name!r} has no ground-truth rates")
    ground_truth = dataset.ground_truth_rates
    order = edge_order if edge_order is not None else ground_truth.edge_types()
    truth_vector = ground_truth.as_vector(order)

    initial = AuthorityTransferSchemaGraph(
        ground_truth.schema, default_rate=initial_rate, epsilon=ground_truth.epsilon
    )
    engine = engine or SearchEngine(dataset.data_graph, initial)
    config = SystemConfig.structure_only(
        adjustment_factor=adjustment_factor,
        radius=radius,
        top_k=presented_k,
    )
    user = SimulatedUser(
        engine,
        ground_truth,
        relevance_depth=relevance_depth,
        noise=user_noise,
        seed=user_seed,
    )

    # Batch the initial evaluations: all sessions start from the same rate
    # schema (one matrix) and the same global warm start, differing only in
    # their restart vectors — exactly the blocked engine's shape.
    query_vectors = [engine.query_vector(query) for query in queries]
    graph = engine.transfer_view(initial)
    init = None
    if config.warm_start and config.global_warm_start:
        init = global_objectrank(
            graph, config.damping, config.tolerance, config.max_iterations
        ).scores
    initial_ranked = batched_objectrank2(
        graph,
        engine.scorer,
        query_vectors,
        engine.damping,
        engine.tolerance,
        engine.max_iterations,
        init=init,
    )

    session_vectors: list[list[list[float]]] = []
    for query_vector, ranked in zip(query_vectors, initial_ranked):
        system = ObjectRankSystem(dataset.data_graph, initial, config, engine=engine)
        residual = ResidualCollection()
        vectors = [initial.as_vector(order)]
        result = system.adopt_initial(
            query_vector,
            SearchResult(
                query_vector, ranked, ranked.top_k(config.top_k), elapsed_seconds=0.0
            ),
            rates=initial,
        )
        for _ in range(iterations):
            presented = residual.present(result.ranked.ranking(), presented_k)
            marked = user.judge(presented, query_vector)
            residual.mark_seen(presented)
            outcome = system.feedback(marked)
            result = outcome.result
            vectors.append(system.current_rates.as_vector(order))
        session_vectors.append(vectors)

    if not session_vectors:
        raise ValueError("feedback training needs at least one query session")
    curve = TrainingCurve(adjustment_factor=adjustment_factor)
    num_sessions = len(session_vectors)
    for step in range(iterations + 1):
        mean_vector = [
            sum(vectors[step][i] for vectors in session_vectors) / num_sessions
            for i in range(len(order))
        ]
        curve.rate_vectors.append(mean_vector)
        similarity = sum(
            cosine_similarity(vectors[step], truth_vector) for vectors in session_vectors
        ) / num_sessions
        curve.similarities.append(similarity)
    return curve
