"""Unit tests for the top-k stability stop (early-terminating ObjectRank2)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.query import KeywordQuery
from repro.ranking import (
    TopKStable,
    objectrank2,
    rank,
    weighted_base_set,
    weighted_restarts,
)
from repro.ranking.topk import RESIDUAL_GUARD, STABLE_ITERATIONS

from tests.ranking.reference import reference_topk_power_iteration


def objectrank2_topk(graph, scorer, vector, k, init=None):
    """ObjectRank2's restart under the top-k stop."""
    base = weighted_base_set(scorer, vector, graph)
    (result,) = rank(graph, weighted_restarts(graph, [base]), TopKStable(k), init=init)
    return result


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

    def test_stability_window_lengthens_run(self, dblp_tiny_engine):
        """The window is the module's constant, not a knob: the stop ends
        where the reference loop does with that window, and the reference
        loop runs no shorter with a longer one."""
        engine = dblp_tiny_engine
        vector = KeywordQuery(["olap"]).vector()
        restart = engine.graph.restart_vector(weighted_base_set(engine.scorer, vector))
        matrix = engine.graph.matrix()
        window = {
            stable: reference_topk_power_iteration(
                matrix, restart, 10, stable_iterations=stable,
                residual_guard=RESIDUAL_GUARD,
            ).iterations
            for stable in (1, STABLE_ITERATIONS, 6)
        }
        mine = objectrank2_topk(engine.graph, engine.scorer, vector, k=10)
        assert mine.iterations == window[STABLE_ITERATIONS]
        assert window[1] <= window[STABLE_ITERATIONS] <= window[6]

    def test_validation(self, figure1_graph, figure1_scorer):
        with pytest.raises(ValueError):
            TopKStable(0)
        with pytest.raises(TypeError):
            TopKStable(3, stable_iterations=0)  # the window is a constant
        base = weighted_base_set(
            figure1_scorer, KeywordQuery(["olap"]).vector(), figure1_graph
        )
        with pytest.raises(ParameterError, match="one restart column"):
            rank(figure1_graph, weighted_restarts(figure1_graph, [base, base]), TopKStable(3))

    @pytest.mark.parametrize("k", [1, 10])
    def test_shared_step_equals_the_reference_loop(self, dblp_tiny_engine, k):
        engine = dblp_tiny_engine
        vector = KeywordQuery(["mining"]).vector()
        restart = engine.graph.restart_vector(weighted_base_set(engine.scorer, vector))
        mine = objectrank2_topk(engine.graph, engine.scorer, vector, k)
        theirs = reference_topk_power_iteration(engine.graph.matrix(), restart, k)
        assert np.array_equal(mine.scores, theirs.scores)
        assert (mine.iterations, mine.converged) == (theirs.iterations, theirs.converged)
        assert mine.residuals == theirs.residuals
