"""Unit and integration tests for the ObjectRankSystem facade."""

import pytest

from repro.core import ObjectRankSystem, SystemConfig
from repro.errors import ReproError


@pytest.fixture
def system(figure1):
    return ObjectRankSystem(
        figure1.data_graph,
        figure1.transfer_schema,
        SystemConfig(top_k=7, tolerance=1e-8, radius=None),
    )


class TestQuery:
    def test_query_returns_ranked_results(self, system):
        result = system.query("OLAP")
        assert result.top[0][0] == "v7"
        assert system.last_result is result

    def test_query_resets_session(self, system):
        system.query("OLAP")
        system.feedback(["v4"])
        assert len(system.timings) == 2
        system.query("databases")
        assert len(system.timings) == 1
        assert system.current_rates == system._initial_schema

    def test_timing_recorded(self, system):
        result = system.query("OLAP")
        timing = system.timings[0]
        assert timing.label == "initial"
        assert timing.search_seconds > 0
        assert timing.objectrank_iterations == result.iterations
        assert timing.subgraph_seconds == 0.0


class TestExplain:
    def test_requires_query_first(self, system):
        with pytest.raises(ReproError):
            system.explain("v4")

    def test_explain_uses_current_base_set(self, system):
        system.query("OLAP")
        explanation = system.explain("v4")
        assert explanation.converged
        base_ids = {
            explanation.graph.node_id_of(b) for b in explanation.subgraph.base_nodes
        }
        assert base_ids <= {"v1", "v4"}


class TestFeedback:
    def test_requires_query_first(self, system):
        with pytest.raises(ReproError):
            system.feedback(["v4"])

    def test_feedback_updates_state(self, system, figure1):
        system.query("OLAP")
        outcome = system.feedback(["v4"])
        assert system.current_rates is outcome.reformulated.transfer_schema
        assert system.current_vector is outcome.reformulated.query_vector
        assert system.current_rates != figure1.transfer_schema

    def test_feedback_timing_has_all_stages(self, system):
        system.query("OLAP")
        outcome = system.feedback(["v4"])
        timing = outcome.timing
        assert timing.label == "reformulated-1"
        assert timing.search_seconds > 0
        assert timing.subgraph_seconds > 0
        assert timing.adjust_seconds > 0
        assert timing.reformulate_seconds > 0
        assert timing.total_seconds == pytest.approx(
            timing.search_seconds
            + timing.subgraph_seconds
            + timing.adjust_seconds
            + timing.reformulate_seconds
        )

    def test_multiple_feedback_objects(self, system):
        system.query("OLAP")
        outcome = system.feedback(["v4", "v7"])
        assert len(outcome.explanations) == 2

    def test_duplicate_feedback_ids_count_once(self, figure1):
        """Regression: ``["v4", "v4", "v7"]`` used to explain v4 twice and
        double its weight under Eq. 14/15 sum aggregation."""

        def session():
            system = ObjectRankSystem(
                figure1.data_graph,
                figure1.transfer_schema,
                SystemConfig(top_k=7, tolerance=1e-8, radius=None),
            )
            system.query("OLAP")
            return system

        once = session().feedback(["v4", "v7"])
        twice = session().feedback(["v4", "v4", "v7", "v4"])
        assert len(twice.explanations) == 2
        assert twice.reformulated == once.reformulated
        assert twice.result.top == once.result.top

    def test_empty_feedback_is_noop_reformulation(self, system, figure1):
        system.query("OLAP")
        before_vector = system.current_vector.copy()
        outcome = system.feedback([])
        assert outcome.explanations == []
        assert system.current_vector == before_vector
        assert system.current_rates == figure1.transfer_schema

    def test_explaining_iterations_accumulate(self, system):
        system.query("OLAP")
        system.feedback(["v4"])
        system.feedback(["v7"])
        assert len(system.explaining_iterations) == 2

    def test_warm_start_reduces_iterations(self, figure1):
        warm_system = ObjectRankSystem(
            figure1.data_graph,
            figure1.transfer_schema,
            SystemConfig(top_k=7, warm_start=True, tolerance=1e-8, radius=None),
        )
        cold_system = ObjectRankSystem(
            figure1.data_graph,
            figure1.transfer_schema,
            SystemConfig(top_k=7, warm_start=False, tolerance=1e-8, radius=None),
        )
        warm_system.query("OLAP")
        cold_system.query("OLAP")
        warm = warm_system.feedback(["v4"])
        cold = cold_system.feedback(["v4"])
        assert warm.result.iterations <= cold.result.iterations

    def test_sequence_of_feedback_labels(self, system):
        system.query("OLAP")
        system.feedback(["v4"])
        system.feedback(["v4"])
        labels = [t.label for t in system.timings]
        assert labels == ["initial", "reformulated-1", "reformulated-2"]


class TestGlobalWarmStart:
    def test_initial_query_warm_started_from_global(self, figure1):
        """Section 6.2: the initial query starts from global ObjectRank."""
        from repro.core import ObjectRankSystem, SystemConfig

        warm = ObjectRankSystem(
            figure1.data_graph, figure1.transfer_schema,
            SystemConfig(top_k=7, tolerance=1e-8, global_warm_start=True),
        )
        cold = ObjectRankSystem(
            figure1.data_graph, figure1.transfer_schema,
            SystemConfig(top_k=7, tolerance=1e-8, global_warm_start=False),
        )
        warm_result = warm.query("OLAP")
        cold_result = cold.query("OLAP")
        assert warm_result.ranked.ranking() == cold_result.ranked.ranking()
        assert warm_result.iterations <= cold_result.iterations

    def test_global_scores_cached_across_queries(self, figure1):
        from repro.core import ObjectRankSystem, SystemConfig

        system = ObjectRankSystem(
            figure1.data_graph, figure1.transfer_schema,
            SystemConfig(top_k=7, global_warm_start=True),
        )
        system.query("OLAP")
        cached = system._global_scores
        assert cached is not None
        system.query("databases")
        assert system._global_scores is cached

    def test_warm_start_disabled_globally(self, figure1):
        from repro.core import ObjectRankSystem, SystemConfig

        system = ObjectRankSystem(
            figure1.data_graph, figure1.transfer_schema,
            SystemConfig(top_k=7, warm_start=False, global_warm_start=True),
        )
        system.query("OLAP")
        assert system._global_scores is None
