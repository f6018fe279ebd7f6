"""Unit tests for early-terminating top-k ObjectRank2."""

import numpy as np
import pytest

from repro.query import KeywordQuery
from repro.ranking import objectrank2, objectrank2_topk, weighted_base_set
from repro.ranking.topk import topk_power_iteration

from tests.ranking.reference import reference_topk_power_iteration


class TestTopK:
    def test_same_topk_as_exact(self, figure1_graph, figure1_scorer):
        vector = KeywordQuery(["olap"]).vector()
        exact = objectrank2(figure1_graph, figure1_scorer, vector, tolerance=1e-10)
        fast = objectrank2_topk(figure1_graph, figure1_scorer, vector, k=3)
        assert [i for i, _ in fast.top_k(3)] == [i for i, _ in exact.top_k(3)]

    def test_terminates_early(self, dblp_tiny_engine):
        engine = dblp_tiny_engine
        vector = KeywordQuery(["olap"]).vector()
        exact = objectrank2(engine.graph, engine.scorer, vector, tolerance=1e-8)
        fast = objectrank2_topk(engine.graph, engine.scorer, vector, k=10)
        assert fast.iterations < exact.iterations

    def test_topk_matches_on_synthetic_dblp(self, dblp_tiny_engine):
        engine = dblp_tiny_engine
        vector = KeywordQuery(["mining"]).vector()
        exact = objectrank2(engine.graph, engine.scorer, vector, tolerance=1e-8)
        fast = objectrank2_topk(engine.graph, engine.scorer, vector, k=10)
        exact_ids = [i for i, _ in exact.top_k(10)]
        fast_ids = [i for i, _ in fast.top_k(10)]
        # identical sets; order may swap between near-tied neighbors
        assert set(fast_ids) == set(exact_ids)

    def test_warm_start_supported(self, figure1_graph, figure1_scorer):
        vector = KeywordQuery(["olap"]).vector()
        cold = objectrank2_topk(figure1_graph, figure1_scorer, vector, k=3)
        warm = objectrank2_topk(
            figure1_graph, figure1_scorer, vector, k=3, init=cold.scores
        )
        assert warm.iterations <= cold.iterations

    def test_stability_window_lengthens_run(self, figure1_graph, figure1_scorer):
        vector = KeywordQuery(["olap"]).vector()
        short = objectrank2_topk(
            figure1_graph, figure1_scorer, vector, k=3, stable_iterations=1
        )
        long = objectrank2_topk(
            figure1_graph, figure1_scorer, vector, k=3, stable_iterations=6
        )
        assert long.iterations >= short.iterations

    def test_validation(self, figure1_graph, figure1_scorer):
        vector = KeywordQuery(["olap"]).vector()
        with pytest.raises(ValueError):
            objectrank2_topk(figure1_graph, figure1_scorer, vector, k=0)
        with pytest.raises(ValueError):
            objectrank2_topk(
                figure1_graph, figure1_scorer, vector, k=3, stable_iterations=0
            )

    @pytest.mark.parametrize("k", [1, 10])
    def test_shared_step_equals_the_reference_loop(self, dblp_tiny_engine, k):
        engine = dblp_tiny_engine
        base = weighted_base_set(engine.scorer, KeywordQuery(["mining"]).vector())
        restart = engine.graph.restart_vector(base)
        mine = topk_power_iteration(engine.graph.matrix(), restart, k)
        theirs = reference_topk_power_iteration(engine.graph.matrix(), restart, k)
        assert np.array_equal(mine.scores, theirs.scores)
        assert (mine.iterations, mine.converged) == (theirs.iterations, theirs.converged)
        assert mine.residuals == theirs.residuals
