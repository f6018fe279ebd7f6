"""Unit tests for the single-vector Eq. 4 loop, its parameters and the
restart builders."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import EmptyBaseSetError, ParameterError
from repro.ranking import (
    Tolerance,
    TopKStable,
    global_restarts,
    rank,
    uniform_restarts,
    weighted_restarts,
)
from repro.ranking.pagerank import iterate

from tests.ranking.reference import dense_uniform_restarts, reference_power_iteration


def cycle_matrix(n: int) -> sparse.csr_matrix:
    """A directed n-cycle, column-stochastic (each node sends all to next)."""
    rows = [(i + 1) % n for i in range(n)]
    cols = list(range(n))
    return sparse.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))


def power_iteration(
    matrix, restart, damping=0.85, tolerance=0.0001, max_iterations=500, init=None
):
    """The loop under a tolerance stop, on a bare operator."""
    return iterate(
        matrix, restart, damping, max_iterations, init, Tolerance(tolerance).rule()
    )


class TestPowerIteration:
    def test_uniform_on_symmetric_cycle(self):
        matrix = cycle_matrix(4)
        restart = np.full(4, 0.25)
        result = power_iteration(matrix, restart, tolerance=1e-12)
        assert result.converged
        assert result.scores == pytest.approx(np.full(4, 0.25), abs=1e-6)

    def test_fixpoint_property(self):
        """Converged scores satisfy r = d A r + (1-d) s."""
        matrix = cycle_matrix(5)
        restart = np.zeros(5)
        restart[0] = 1.0
        result = power_iteration(matrix, restart, damping=0.85, tolerance=1e-12)
        reconstructed = 0.85 * (matrix @ result.scores) + 0.15 * restart
        assert result.scores == pytest.approx(reconstructed, abs=1e-9)

    def test_iteration_count_and_residuals(self):
        matrix = cycle_matrix(5)
        restart = np.full(5, 0.2)
        result = power_iteration(matrix, restart, tolerance=1e-10)
        assert result.iterations == len(result.residuals)
        assert result.residuals[-1] < 1e-10
        # residuals shrink overall
        assert result.residuals[-1] <= result.residuals[0]

    def test_max_iterations_cap(self):
        matrix = cycle_matrix(50)
        restart = np.zeros(50)
        restart[0] = 1.0
        result = power_iteration(matrix, restart, tolerance=0.0, max_iterations=3)
        assert result.iterations == 3
        assert not result.converged

    def test_warm_start_reduces_iterations(self):
        matrix = cycle_matrix(30)
        restart = np.zeros(30)
        restart[0] = 1.0
        cold = power_iteration(matrix, restart, tolerance=1e-10)
        warm = power_iteration(matrix, restart, tolerance=1e-10, init=cold.scores)
        assert warm.iterations < cold.iterations
        assert warm.scores == pytest.approx(cold.scores, abs=1e-8)

    def test_invalid_damping(self, figure1_graph):
        """Every stop, every block width: ``rank`` refuses the damping."""
        one = uniform_restarts(figure1_graph, [["v1"]])
        two = uniform_restarts(figure1_graph, [["v1"], ["v4"]])
        for damping in (0.0, 1.0, -0.2, 1.5):
            for restarts, stop in ((one, Tolerance()), (one, TopKStable(3)), (two, Tolerance())):
                with pytest.raises(ParameterError, match="damping"):
                    rank(figure1_graph, restarts, stop, damping=damping)

    def test_restart_shape_checked(self):
        with pytest.raises(ValueError):
            power_iteration(cycle_matrix(3), np.zeros(4))

    @pytest.mark.parametrize("shape", [(50, 1), (1, 50), (49,), (51,), ()])
    @pytest.mark.parametrize("rule", ["residual", "top-k"])
    def test_init_must_be_a_vector_of_length_n(self, shape, rule):
        """Regression: an ``(n, 1)`` init broadcast into an n×n "scores"
        array; a short one failed inside scipy, and would be read past its
        end by the compiled step."""
        matrix = cycle_matrix(50)
        restart = np.full(50, 1 / 50)
        init = np.full(shape, 1 / 50)
        stop = Tolerance() if rule == "residual" else TopKStable(5)
        with pytest.raises(ValueError, match=r"init has shape .*, expected \(50,\)"):
            iterate(matrix, restart, 0.85, 500, init, stop.rule())


class TestPageRank:
    def test_sink_free_cycle_is_uniform(self):
        result = power_iteration(cycle_matrix(6), np.full(6, 1 / 6), tolerance=1e-12)
        assert result.scores == pytest.approx(np.full(6, 1 / 6), abs=1e-8)

    def test_hub_attracts_authority(self):
        """Star graph: all leaves point to node 0, which gets the most."""
        n = 6
        rows = [0] * (n - 1)
        cols = list(range(1, n))
        matrix = sparse.csr_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        result = power_iteration(matrix, np.full(n, 1 / n), tolerance=1e-12)
        assert result.scores[0] == result.scores.max()


class TestPersonalized:
    def test_restart_mass_concentrates_near_seeds(self):
        restart = np.zeros(10)
        restart[0] = 1.0
        result = power_iteration(cycle_matrix(10), restart, tolerance=1e-12)
        assert result.scores[0] == result.scores.max()

    def test_weights_normalized(self, figure1_graph):
        """Every builder's base sets are distributions."""
        built = [
            uniform_restarts(figure1_graph, [["v1", "v4"], ["v5", "v5", "v2"]]),
            weighted_restarts(figure1_graph, [figure1_graph.base_set({"v1": 0.25, "v4": 0.75})]),
            global_restarts(figure1_graph),
        ]
        for restarts in built:
            for weights in restarts.base_weights:
                assert figure1_graph.restart_vector(weights).sum() == pytest.approx(1.0)

    def test_empty_restart_rejected(self, figure1_graph):
        with pytest.raises(EmptyBaseSetError):
            uniform_restarts(figure1_graph, [["v1"], []])
        with pytest.raises(EmptyBaseSetError):
            weighted_restarts(figure1_graph, [figure1_graph.base_set({})])

    def test_duplicate_uniform_restarts_accumulate(self, figure1_graph):
        """Regression: uniform base weights gave every listed id 1/len, so
        ``[a, a, b]`` summed to 2/3 while the restart gave ``a`` 2/3."""
        restarts = uniform_restarts(figure1_graph, [["v1", "v1", "v4"]])
        (weights,) = restarts.base_weights
        assert weights == pytest.approx({"v1": 2 / 3, "v4": 1 / 3})
        assert list(weights) == ["v1", "v4"]
        assert sum(weights.values()) == pytest.approx(1.0)
        assert np.array_equal(
            figure1_graph.restart_vector(weights),
            dense_uniform_restarts(figure1_graph, [["v1", "v1", "v4"]])[:, 0],
        )


class TestSharedStep:
    """Every stopping rule runs one step; the loops they ran before, kept in
    ``tests/ranking/reference.py``, give the same floats."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_live_path_equals_the_reference_loop(self, dblp_tiny_engine, warm):
        graph = dblp_tiny_engine.graph
        restarts = uniform_restarts(graph, [[graph.node_ids[i] for i in (3, 40, 41)]])
        init = np.random.default_rng(5).random(graph.num_nodes) if warm else None
        (mine,) = rank(graph, restarts, Tolerance(), init=init)
        theirs = reference_power_iteration(
            graph.matrix(), graph.restart_vector(*restarts.base_weights), init=init
        )
        assert np.array_equal(mine.scores, theirs.scores)
        assert (mine.iterations, mine.converged) == (theirs.iterations, theirs.converged)
        assert mine.residuals == theirs.residuals

    def test_non_scipy_operators_are_not_converted(self):
        """The contract is ``shape[0]`` and ``@``: no ``tocsr`` on the way in."""

        class Cycle:
            shape = (4, 4)

            def __matmul__(self, vector):
                return np.roll(vector, 1)

        restart = np.array([1.0, 0.0, 0.0, 0.0])
        mine = power_iteration(Cycle(), restart)
        theirs = power_iteration(cycle_matrix(4), restart)
        assert np.array_equal(mine.scores, theirs.scores)
        assert mine.residuals == theirs.residuals
