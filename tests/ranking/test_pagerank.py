"""Unit tests for the power-iteration core and PageRank variants."""

import numpy as np
import pytest
from scipy import sparse

from repro.ranking import (
    pagerank,
    personalized_pagerank,
    power_iteration,
    restart_distribution,
)

from tests.ranking.reference import reference_power_iteration


def cycle_matrix(n: int) -> sparse.csr_matrix:
    """A directed n-cycle, column-stochastic (each node sends all to next)."""
    rows = [(i + 1) % n for i in range(n)]
    cols = list(range(n))
    return sparse.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))


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

    def test_invalid_damping(self):
        matrix = cycle_matrix(3)
        restart = np.full(3, 1 / 3)
        for damping in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                power_iteration(matrix, restart, damping=damping)

    def test_restart_shape_checked(self):
        with pytest.raises(ValueError):
            power_iteration(cycle_matrix(3), np.zeros(4))


class TestPageRank:
    def test_sink_free_cycle_is_uniform(self):
        result = pagerank(cycle_matrix(6), tolerance=1e-12)
        assert result.scores == pytest.approx(np.full(6, 1 / 6), abs=1e-8)

    def test_hub_attracts_authority(self):
        """Star graph: all leaves point to node 0, which gets the most."""
        n = 6
        rows = [0] * (n - 1)
        cols = list(range(1, n))
        matrix = sparse.csr_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        result = pagerank(matrix, tolerance=1e-12)
        assert result.scores[0] == result.scores.max()


class TestPersonalized:
    def test_restart_mass_concentrates_near_seeds(self):
        matrix = cycle_matrix(10)
        result = personalized_pagerank(matrix, np.asarray([0]), tolerance=1e-12)
        assert result.scores[0] == result.scores.max()

    def test_weights_normalized(self):
        matrix = cycle_matrix(4)
        uniform = personalized_pagerank(
            matrix, np.asarray([0, 1]), np.asarray([5.0, 5.0]), tolerance=1e-12
        )
        explicit = personalized_pagerank(
            matrix, np.asarray([0, 1]), np.asarray([0.5, 0.5]), tolerance=1e-12
        )
        assert uniform.scores == pytest.approx(explicit.scores)

    def test_empty_restart_rejected(self):
        matrix = cycle_matrix(4)
        with pytest.raises(ValueError):
            personalized_pagerank(matrix, np.asarray([0]), np.asarray([0.0]))

    def test_duplicate_restart_nodes_accumulate(self):
        """Regression: a node listed twice (e.g. a base-set object matched by
        two keywords) must accumulate both weights, not keep only the last
        one (the old fancy-assignment behavior)."""
        matrix = cycle_matrix(6)
        duplicated = personalized_pagerank(
            matrix,
            np.asarray([0, 0, 1]),
            np.asarray([0.3, 0.3, 0.4]),
            tolerance=1e-12,
        )
        merged = personalized_pagerank(
            matrix, np.asarray([0, 1]), np.asarray([0.6, 0.4]), tolerance=1e-12
        )
        assert duplicated.scores == pytest.approx(merged.scores, abs=1e-12)
        # The buggy last-write-wins distribution is measurably different.
        last_write_wins = personalized_pagerank(
            matrix, np.asarray([0, 1]), np.asarray([0.3, 0.4]), tolerance=1e-12
        )
        assert np.abs(duplicated.scores - last_write_wins.scores).max() > 1e-3

    def test_duplicate_uniform_restarts_accumulate(self):
        distribution = restart_distribution(4, np.asarray([0, 0, 1]))
        assert distribution == pytest.approx(np.asarray([2 / 3, 1 / 3, 0.0, 0.0]))


class TestSharedStep:
    """Both stopping rules run one step; the loops they ran before, kept in
    ``tests/ranking/reference.py``, give the same floats."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_live_path_equals_the_reference_loop(self, dblp_tiny_engine, warm):
        graph = dblp_tiny_engine.graph
        restart = restart_distribution(graph.num_nodes, np.array([3, 40, 41]))
        init = np.random.default_rng(5).random(graph.num_nodes) if warm else None
        mine = power_iteration(graph.matrix(), restart, init=init)
        theirs = reference_power_iteration(graph.matrix(), restart, init=init)
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
