"""Unit tests for the two-stage engine (stage assembly and degeneracies)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.query import QueryVector, SearchEngine
from repro.query.engine import select_top
from repro.ranking import focused_objectrank2, weighted_base_set
from repro.retrieval import (
    TwoStageEngine,
    TwoStageSearchResult,
    restricted_base_set,
    top_n_candidates,
    two_stage_rank,
)

QUERY = QueryVector({"improved": 1.0, "study": 1.0})
EVERYTHING = 1_000_000  # candidate budget that always covers S(Q)


@pytest.fixture(scope="module")
def tiny_engine(dblp_tiny):
    return SearchEngine(dblp_tiny.data_graph, dblp_tiny.transfer_schema)


class TestRestrictedBaseSet:
    def test_full_coverage_equals_weighted_base_set(self, tiny_engine):
        """Candidates ⊇ S(Q) ⇒ the restricted base set IS Equation 2's."""
        candidates = top_n_candidates(tiny_engine.scorer, QUERY, EVERYTHING)
        restricted = restricted_base_set(candidates)
        full = weighted_base_set(tiny_engine.scorer, QUERY)
        assert restricted == full  # same keys, same order, same floats

    def test_partial_coverage_normalizes_over_candidates_only(self, tiny_engine):
        candidates = top_n_candidates(tiny_engine.scorer, QUERY, 5)
        base = restricted_base_set(candidates)
        assert set(base) == set(candidates.doc_ids)
        assert sum(base.values()) == pytest.approx(1.0)
        assert all(weight > 0 for weight in base.values())


class TestTwoStageRank:
    def test_degenerate_config_matches_focused_objectrank2(self, tiny_engine):
        graph = tiny_engine.transfer_view(None)
        mine = two_stage_rank(
            graph, tiny_engine.scorer, QUERY,
            candidates=EVERYTHING, horizon=2,
        )
        focused = focused_objectrank2(
            graph, tiny_engine.scorer, QUERY, horizon=2
        )
        assert np.array_equal(mine.ranked.scores, focused.ranked.scores)
        assert mine.ranked.iterations == focused.ranked.iterations
        assert mine.subgraph_nodes == focused.subgraph_nodes
        assert mine.subgraph_edges == focused.subgraph_edges

    def test_authority_only_scores_cover_the_neighborhood(self, tiny_engine):
        graph = tiny_engine.transfer_view(None)
        result = two_stage_rank(
            graph, tiny_engine.scorer, QUERY, candidates=10, horizon=2
        )
        positive = np.flatnonzero(result.ranked.scores > 0)
        assert len(positive) > len(result.candidate_set)
        assert set(positive.tolist()) <= set(result.neighborhood.tolist())

    def test_horizon_zero_reranks_candidates_in_isolation(self, tiny_engine):
        graph = tiny_engine.transfer_view(None)
        result = two_stage_rank(
            graph, tiny_engine.scorer, QUERY, candidates=10, horizon=0
        )
        assert result.subgraph_nodes == len(result.candidate_set)

    def test_early_k_converges_to_a_stable_page(self, tiny_engine):
        graph = tiny_engine.transfer_view(None)
        exact = two_stage_rank(
            graph, tiny_engine.scorer, QUERY, candidates=20, horizon=2
        )
        early = two_stage_rank(
            graph, tiny_engine.scorer, QUERY, candidates=20, horizon=2, early_k=5
        )
        assert early.ranked.iterations <= exact.ranked.iterations
        top = lambda r: [n for n, _ in r.ranked.top_k(5)]  # noqa: E731
        assert top(early) == top(exact)

    def test_validation(self, tiny_engine):
        graph = tiny_engine.transfer_view(None)
        with pytest.raises(ValueError, match="candidates"):
            two_stage_rank(graph, tiny_engine.scorer, QUERY, candidates=0)
        with pytest.raises(ValueError, match="horizon"):
            two_stage_rank(graph, tiny_engine.scorer, QUERY, horizon=-1)


class TestTwoStageEngine:
    def test_search_returns_stage_accounting(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=15)
        result = engine.search(QUERY, top_k=5)
        assert isinstance(result, TwoStageSearchResult)
        assert len(result.top) == 5
        assert result.stages is not None
        assert result.stages.num_candidates == 15
        assert result.stages.stage1_seconds >= 0.0
        assert result.stages.stage2_seconds >= 0.0

    def test_label_filter(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=15)
        result = engine.search(QUERY, top_k=5, labels=("Author",))
        data_graph = tiny_engine.data_graph
        assert result.top
        assert all(
            data_graph.node(node_id).label == "Author" for node_id, _ in result.top
        )

    @pytest.mark.parametrize(
        "top_k, labels, overrides",
        [
            # the usual page: top_k positive scores inside the neighbourhood
            (5, None, {}),
            (5, ("Author",), {}),
            # fewer than top_k positive scores: zeros tie by global index
            (5, None, {"candidates": 2, "horizon": 0}),
            (400, None, {}),
            # a label filter that empties the neighbourhood (papers only)
            (5, ("Author",), {"candidates": 2, "horizon": 0}),
            (5, ("NoSuchLabel",), {}),
            # the top-k early exit; more pages than positive scores; a capped
            # expansion under a label filter
            (5, None, {"early_k": 3}),
            (40, None, {"candidates": 3, "horizon": 1}),
            (5, ("Paper",), {"expand_cap": 1}),
        ],
    )
    def test_page_is_the_full_vector_page(self, tiny_engine, top_k, labels, overrides):
        """Cut inside the neighbourhood or over every node, the page is
        ``select_top`` of the full score vector: ids and floats."""
        engine = TwoStageEngine(tiny_engine, candidates=15)
        result = engine.search(QUERY, top_k=top_k, labels=labels, **overrides)
        assert result.top == select_top(
            tiny_engine.data_graph, result.ranked, top_k, labels
        )
        order = np.argsort(-result.ranked.scores, kind="stable")
        if labels is not None:
            label_of = tiny_engine.data_graph.node
            order = [
                i for i in order if label_of(result.ranked.node_ids[i]).label in labels
            ]
        assert result.top == [
            (result.ranked.node_ids[i], float(result.ranked.scores[i]))
            for i in order[:top_k]
        ]

    def test_per_call_overrides_beat_engine_defaults(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=15, horizon=2)
        result = engine.search(QUERY, top_k=3, candidates=5, horizon=0)
        assert result.stages.num_candidates == 5
        assert result.stages.horizon == 0

    def test_string_queries_accepted(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=10)
        assert engine.search("improved study", top_k=3).top

    def test_expand_cap_shrinks_the_neighborhood(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=10, horizon=2)
        uncapped = engine.search(QUERY, top_k=3)
        capped = engine.search(QUERY, top_k=3, expand_cap=1)
        assert capped.stages.subgraph_nodes <= uncapped.stages.subgraph_nodes

    def test_node_budget_deepens_small_neighborhoods(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=2, horizon=0)
        fixed = engine.search(QUERY, top_k=3)
        # Horizon 0 keeps only the candidates; an unreached budget deepens
        # the expansion up to max_horizon instead.
        adaptive = engine.search(
            QUERY, top_k=3, node_budget=1_000_000, max_horizon=2
        )
        assert fixed.stages.subgraph_nodes == 2
        assert adaptive.stages.subgraph_nodes > fixed.stages.subgraph_nodes
        # A budget the candidates already satisfy never deepens.
        satisfied = engine.search(QUERY, top_k=3, node_budget=1, max_horizon=2)
        assert satisfied.stages.subgraph_nodes == fixed.stages.subgraph_nodes

    @pytest.mark.parametrize(
        "defaults", [{"node_budget": 256}, {"max_horizon": 4}]
    )
    def test_half_set_deepening_default_is_rejected(self, tiny_engine, defaults):
        """Deepening needs both, checked after the defaults are applied: one
        alone would run at a fixed horizon."""
        engine = TwoStageEngine(tiny_engine, candidates=5, **defaults)
        with pytest.raises(ParameterError, match="node_budget and max_horizon"):
            engine.search(QUERY, top_k=3, early_k=5)

    def test_an_override_completes_the_pair(self, tiny_engine):
        engine = TwoStageEngine(tiny_engine, candidates=2, horizon=0, max_horizon=2)
        deeper = engine.search(QUERY, top_k=3, node_budget=1_000_000)
        assert deeper.stages.subgraph_nodes > 2
