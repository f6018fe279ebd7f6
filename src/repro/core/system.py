"""The ObjectRank2 query-and-reformulation system (the paper's deployed demo).

:class:`ObjectRankSystem` ties every component together into the interactive
loop of Section 5's "Overview of process":

1. :meth:`query` computes the top-k objects by ObjectRank2;
2. :meth:`explain` builds the explaining subgraph of any result and runs the
   flow-adjustment fixpoint;
3. :meth:`feedback` takes the objects the user marked relevant, reformulates
   the query (content and/or structure) from their explanations
   (:meth:`reformulate`), and re-runs the reformulated query — warm-started
   from the previous scores, the Section 6.2 optimization (:meth:`rerun`).

Every front end drives this one loop: the CLI and REPL hold a session for
their lifetime, the serve tier a short-lived one per request over its shared
engine (``engine=``; sessions never mutate the engine).

The system records per-stage timings (:class:`repro.core.timing.IterationTiming`)
for every iteration, which is exactly what Figures 14-17 plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RETRIEVAL_MODES, SystemConfig
from repro.core.timing import (
    STAGE_ADJUST,
    STAGE_REFORMULATE,
    STAGE_SEARCH,
    STAGE_SUBGRAPH,
    IterationTiming,
    StageClock,
)
from repro.errors import ReproError
from repro.explain.adjustment import FlowExplanation
from repro.explain.batch import (
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
)
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.data_graph import DataGraph
from repro.query.engine import SearchEngine, SearchResult
from repro.query.query import KeywordQuery, QueryVector
from repro.ranking.objectrank import global_objectrank
from repro.reformulate.combined import ReformulatedQuery, Reformulator
from repro.retrieval.engine import TwoStageEngine, TwoStageSearchResult


@dataclass
class FeedbackOutcome:
    """Everything produced by one feedback-and-reformulate iteration."""

    explanations: list[FlowExplanation]
    reformulated: ReformulatedQuery
    result: SearchResult
    timing: IterationTiming


class ObjectRankSystem:
    """A stateful ObjectRank2 session over one dataset.

    The session tracks the current query vector, the current (possibly
    learned) authority transfer rates, and the previous score vector used to
    warm-start reformulated queries.
    """

    def __init__(
        self,
        data_graph: DataGraph,
        transfer_schema: AuthorityTransferSchemaGraph,
        config: SystemConfig | None = None,
        engine: SearchEngine | None = None,
    ) -> None:
        self.config = config or SystemConfig()
        if self.config.retrieval_mode not in RETRIEVAL_MODES:
            raise ReproError(
                f"unknown retrieval mode: {self.config.retrieval_mode!r} "
                f"(choose from {RETRIEVAL_MODES})"
            )
        self.engine = engine or SearchEngine(
            data_graph,
            transfer_schema,
            damping=self.config.damping,
            tolerance=self.config.tolerance,
            max_iterations=self.config.max_iterations,
        )
        self.reformulator = Reformulator.with_factors(
            self.config.expansion_factor,
            self.config.adjustment_factor,
            self.config.decay,
            self.config.num_expansion_terms,
        )
        self._initial_schema = transfer_schema
        self.current_rates: AuthorityTransferSchemaGraph = transfer_schema
        self.current_vector: QueryVector | None = None
        self.last_result: SearchResult | None = None
        self.timings: list[IterationTiming] = []
        self._iteration = 0
        #: Stage totals of the iteration in progress (one bar group of
        #: Figures 14-17); restarted by ``query`` and ``reformulate``.
        self._clock = StageClock()
        self._explaining_iterations: list[int] = []
        self._global_scores: np.ndarray | None = None
        self._two_stage: TwoStageEngine | None = None

    # -- querying ------------------------------------------------------------

    def query(
        self, query: KeywordQuery | QueryVector | str, rates=None
    ) -> SearchResult:
        """Run a fresh query; resets session state (rates, warm start)."""
        self._reset(query, rates)
        return self._run(label="initial")

    def adopt_initial(
        self,
        query: KeywordQuery | QueryVector | str,
        result: SearchResult,
        rates=None,
    ) -> SearchResult:
        """Seed the session with an externally computed initial result.

        Batched evaluation (``repro.ranking.batch``) computes many sessions'
        initial fixpoints in one blocked run; this installs one such result
        exactly as if :meth:`query` had produced it — feedback iterations and
        warm starts continue from it unchanged.
        """
        self._reset(query, rates)
        self.last_result = result
        self.timings.append(
            IterationTiming(
                label="initial",
                search_seconds=result.elapsed_seconds,
                subgraph_seconds=0.0,
                adjust_seconds=0.0,
                reformulate_seconds=0.0,
                objectrank_iterations=result.iterations,
            )
        )
        return result

    def _reset(self, query: KeywordQuery | QueryVector | str, rates) -> None:
        self.current_rates = rates if rates is not None else self._initial_schema
        self.current_vector = self.engine.query_vector(query)
        self.last_result = None
        self.timings = []
        self._iteration = 0
        self._clock = StageClock()
        self._explaining_iterations = []

    def _search(self, init: np.ndarray | None) -> SearchResult:
        """One retrieval run under the session's configured mode.

        Two-stage retrieval builds its own restart from the candidates'
        focused subgraph, so the warm-start vector only applies to full runs.
        """
        if self.config.retrieval_mode == "two_stage":
            return self.two_stage_engine.search(
                self.current_vector,
                top_k=self.config.top_k,
                rates=self.current_rates,
            )
        return self.engine.search(
            self.current_vector,
            top_k=self.config.top_k,
            rates=self.current_rates,
            init=init,
        )

    @property
    def two_stage_engine(self) -> TwoStageEngine:
        """The session's two-stage engine (built lazily from the config)."""
        if self._two_stage is None:
            self._two_stage = TwoStageEngine.from_config(self.engine, self.config)
        return self._two_stage

    def _explain_within(self) -> np.ndarray | None:
        """Two-stage results explain within the candidate neighborhood only."""
        if isinstance(self.last_result, TwoStageSearchResult):
            stages = self.last_result.stages
            if stages is not None:
                return stages.neighborhood
        return None

    def _run(self, label: str) -> SearchResult:
        """Search under the current vector and rates; close the iteration's
        timing row with whatever stages ran since the clock restarted."""
        if self.current_vector is None:
            raise ReproError("no query has been issued yet")
        clock = self._clock
        init = self._warm_start()
        with clock.stage(STAGE_SEARCH):
            result = self._search(init)
        self.last_result = result
        self.timings.append(
            IterationTiming(
                label=label,
                search_seconds=clock.total(STAGE_SEARCH),
                subgraph_seconds=clock.total(STAGE_SUBGRAPH),
                adjust_seconds=clock.total(STAGE_ADJUST),
                reformulate_seconds=clock.total(STAGE_REFORMULATE),
                objectrank_iterations=result.iterations,
            )
        )
        return result

    def _warm_start(self) -> np.ndarray | None:
        """The Section 6.2 warm-start chain.

        Reformulated queries start from the previous query's scores; the
        *initial* query starts from the global (query-independent)
        ObjectRank values, computed lazily once per session under the
        system's initial rates.
        """
        if not self.config.warm_start:
            return None
        if self.last_result is not None:
            return self.last_result.scores
        if self.config.global_warm_start:
            return self._global_warm_start()
        return None

    def _global_warm_start(self) -> np.ndarray:
        if self._global_scores is None:
            self._global_scores = global_objectrank(
                self.engine.transfer_view(self._initial_schema),
                self.config.damping,
                self.config.tolerance,
                self.config.max_iterations,
            ).scores
        return self._global_scores

    # -- explanation -----------------------------------------------------------

    def explain(self, node_id: str) -> FlowExplanation:
        """Build and adjust the explaining subgraph for one result object."""
        return self.explain_many([node_id])[0]

    def explain_many(self, node_ids: list[str]) -> list[FlowExplanation]:
        """Explain several results in one batched pass: shared positive-rate
        adjacency for the subgraphs, one multi-target fixpoint for the
        adjustment (per id bit-identical to the serial
        :func:`repro.explain.explain`, see :mod:`repro.explain.batch`)."""
        if self.last_result is None:
            raise ReproError("query before explaining a result")
        with self._clock.stage(STAGE_SUBGRAPH):
            subgraphs = batched_build_explaining_subgraphs(
                # A shared, cached view under the session's (possibly learned)
                # rates — never a mutation of the engine's graph, so
                # concurrent sessions over one engine stay isolated.
                self.engine.transfer_view(self.current_rates),
                list(self.last_result.ranked.base_weights),
                node_ids,
                self.config.radius,
                within=self._explain_within(),
            )
        with self._clock.stage(STAGE_ADJUST):
            return batched_adjust_flows(
                subgraphs,
                self.last_result.scores,
                self.config.damping,
                self.config.tolerance,
            )

    # -- feedback loop ------------------------------------------------------------

    def feedback(self, relevant_ids: list[str]) -> FeedbackOutcome:
        """Reformulate from the user's marked-relevant objects and re-run.

        The full loop, as its two public steps: :meth:`reformulate` explains
        each feedback object and rewrites query vector and transfer rates
        from the explanations, :meth:`rerun` executes the reformulated query
        warm-started from the previous scores.  Callers with work to do
        between the two (the serve tier publishes the learned rates and
        checks its deadline there) call the steps themselves.
        """
        explanations, reformulated = self.reformulate(relevant_ids)
        result = self.rerun()
        return FeedbackOutcome(explanations, reformulated, result, self.timings[-1])

    def reformulate(
        self, relevant_ids: list[str]
    ) -> tuple[list[FlowExplanation], ReformulatedQuery]:
        """Step 1: explain the feedback objects and reformulate from them.

        Installs the reformulated vector and rates as the session's current
        ones (Section 5.3 aggregation for multiple objects); the previous
        result stays in place as the warm start of :meth:`rerun`.  An object
        marked more than once counts once: the aggregation is over feedback
        *objects*, and a repeat would double its weight under sum.
        """
        if self.last_result is None or self.current_vector is None:
            raise ReproError("query before giving feedback")
        self._clock = StageClock()
        explanations = self.explain_many(list(dict.fromkeys(relevant_ids)))
        for explanation in explanations:
            self._explaining_iterations.append(explanation.iterations)

        with self._clock.stage(STAGE_REFORMULATE):
            reformulated = self.reformulator.reformulate(
                self.current_vector, self.current_rates, explanations
            )
        self.current_vector = reformulated.query_vector
        self.current_rates = reformulated.transfer_schema
        self._iteration += 1
        return explanations, reformulated

    def rerun(self) -> SearchResult:
        """Step 2: run the current (reformulated or restored) query,
        warm-started from the previous scores."""
        return self._run(label=f"reformulated-{self._iteration}")

    # -- accounting ----------------------------------------------------------------

    @property
    def explaining_iterations(self) -> list[int]:
        """Flow-adjustment iteration counts seen so far (Table 3's metric)."""
        return list(self._explaining_iterations)
