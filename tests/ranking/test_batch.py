"""Unit tests for the blocked multi-restart power-iteration engine."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import EmptyBaseSetError
from repro.query import QueryVector
from repro.ranking import (
    batched_keyword_vectors,
    batched_objectrank,
    batched_objectrank2,
    batched_power_iteration,
    keyword_objectrank,
    multi_keyword_objectrank,
    objectrank,
    objectrank2,
    power_iteration,
)


def random_substochastic(n: int, seed: int, density: float = 0.25) -> sparse.csr_matrix:
    matrix = sparse.random(n, n, density=density, random_state=seed, format="csr")
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    column_sums[column_sums == 0] = 1.0
    return (matrix @ sparse.diags(1.0 / column_sums)).tocsr()


def random_restarts(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    restarts = rng.random((n, k))
    return restarts / restarts.sum(axis=0)


def assert_matches_serial(matrix, restarts, batch, **kwargs):
    """Column-by-column comparison against the serial engine.

    Scores and iteration counts are exact; the residual trace is recorded
    in a different (vectorized) summation order and matches to a few ulps.
    """
    for j in range(restarts.shape[1]):
        serial = power_iteration(matrix, restarts[:, j], **kwargs)
        column = batch.column(j)
        assert column.iterations == serial.iterations
        assert column.converged == serial.converged
        assert np.abs(column.scores - serial.scores).max() <= 1e-12
        assert len(column.residuals) == len(serial.residuals)
        assert column.residuals == pytest.approx(serial.residuals, rel=1e-9)


class TestBlockedEngine:
    def test_matches_serial_column_by_column(self):
        matrix = random_substochastic(50, seed=3)
        restarts = random_restarts(50, 6, seed=4)
        batch = batched_power_iteration(matrix, restarts, tolerance=1e-10)
        assert_matches_serial(matrix, restarts, batch, tolerance=1e-10)

    def test_columns_converge_independently(self):
        """A one-hot restart takes more iterations than a near-uniform one."""
        matrix = random_substochastic(60, seed=7)
        uniform = np.full(60, 1.0 / 60)
        one_hot = np.zeros(60)
        one_hot[0] = 1.0
        restarts = np.stack([uniform, one_hot], axis=1)
        batch = batched_power_iteration(matrix, restarts, tolerance=1e-10)
        assert batch.iterations[0] != batch.iterations[1]
        assert batch.converged.all()

    def test_max_iterations_cap_per_column(self):
        matrix = random_substochastic(30, seed=8)
        restarts = random_restarts(30, 3, seed=9)
        batch = batched_power_iteration(
            matrix, restarts, tolerance=0.0, max_iterations=4
        )
        assert (batch.iterations == 4).all()
        assert not batch.converged.any()
        assert_matches_serial(
            matrix, restarts, batch, tolerance=0.0, max_iterations=4
        )

    def test_shared_init_matches_serial(self):
        matrix = random_substochastic(30, seed=10)
        restarts = random_restarts(30, 4, seed=11)
        init = np.linspace(0.0, 1.0, 30)
        batch = batched_power_iteration(matrix, restarts, tolerance=1e-9, init=init)
        for j in range(4):
            serial = power_iteration(matrix, restarts[:, j], tolerance=1e-9, init=init)
            assert batch.column(j).iterations == serial.iterations
            assert np.abs(batch.column(j).scores - serial.scores).max() <= 1e-12

    def test_per_column_init(self):
        matrix = random_substochastic(20, seed=12)
        restarts = random_restarts(20, 2, seed=13)
        init = random_restarts(20, 2, seed=14)
        batch = batched_power_iteration(matrix, restarts, tolerance=1e-9, init=init)
        for j in range(2):
            serial = power_iteration(
                matrix, restarts[:, j], tolerance=1e-9, init=init[:, j]
            )
            assert batch.column(j).iterations == serial.iterations
            assert np.abs(batch.column(j).scores - serial.scores).max() <= 1e-12

    def test_more_columns_than_one_chunk_matches_serial(self):
        """Two full chunks and a tail: columns served from per-chunk slabs."""
        from repro.ranking.batch import DEFAULT_BLOCK_WIDTH

        k = 2 * DEFAULT_BLOCK_WIDTH + 5
        matrix = random_substochastic(40, seed=15)
        restarts = random_restarts(40, k, seed=16)
        batch = batched_power_iteration(matrix, restarts, tolerance=1e-9)
        assert_matches_serial(matrix, restarts, batch, tolerance=1e-9)
        assert batch.scores.shape == (40, k)
        assert np.array_equal(batch.scores[:, k - 1], batch.column(k - 1).scores)

    def test_empty_block(self):
        matrix = random_substochastic(10, seed=17)
        batch = batched_power_iteration(matrix, np.empty((10, 0)))
        assert batch.num_columns == 0
        assert batch.scores.shape == (10, 0)

    def test_validation_errors(self):
        matrix = random_substochastic(10, seed=18)
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, np.zeros(10))  # 1-D block
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, np.zeros((4, 2)))  # wrong n
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, np.zeros((10, 2)), damping=1.5)
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, np.zeros((10, 2)), init=np.zeros(3))


class TestGraphLevelBatching:
    def test_batched_objectrank_matches_serial(self, figure1_graph):
        base_sets = [["v1", "v4"], ["v5"], ["v1", "v2", "v3"]]
        batched = batched_objectrank(figure1_graph, base_sets, tolerance=1e-10)
        for base, result in zip(base_sets, batched):
            serial = objectrank(figure1_graph, base, tolerance=1e-10)
            assert result.iterations == serial.iterations
            assert result.converged == serial.converged
            assert np.abs(result.scores - serial.scores).max() <= 1e-12
            assert result.base_weights == serial.base_weights

    def test_batched_objectrank_empty_base_set_raises(self, figure1_graph):
        with pytest.raises(EmptyBaseSetError):
            batched_objectrank(figure1_graph, [["v1"], []])

    def test_batched_keyword_vectors_matches_serial(
        self, figure1_graph, figure1_index
    ):
        keywords = list(figure1_index.vocabulary())
        batched = batched_keyword_vectors(
            figure1_graph, figure1_index, keywords, tolerance=1e-10
        )
        assert set(batched) == set(keywords)
        for keyword, result in batched.items():
            serial = keyword_objectrank(
                figure1_graph, figure1_index, keyword, tolerance=1e-10
            )
            assert result.iterations == serial.iterations
            assert np.abs(result.scores - serial.scores).max() <= 1e-12

    def test_batched_keyword_vectors_skips_unmatched(
        self, figure1_graph, figure1_index
    ):
        batched = batched_keyword_vectors(
            figure1_graph, figure1_index, ["olap", "notaword"]
        )
        assert list(batched) == ["olap"]

    def test_multi_keyword_objectrank_unchanged(
        self, figure1_graph, figure1_index
    ):
        """Equation 16 over the blocked engine equals the old serial loop."""
        result = multi_keyword_objectrank(
            figure1_graph, figure1_index, ("olap", "multidimensional"),
            tolerance=1e-10,
        )
        serial_parts = [
            keyword_objectrank(figure1_graph, figure1_index, kw, tolerance=1e-10)
            for kw in ("olap", "multidimensional")
        ]
        assert result.iterations == sum(p.iterations for p in serial_parts)
        assert result.converged

    def test_batched_objectrank2_matches_serial(
        self, figure1_graph, figure1_scorer
    ):
        vectors = [
            QueryVector({"olap": 1.0}),
            QueryVector({"olap": 1.0, "multidimensional": 2.0}),
            QueryVector({"cube": 1.0}),
        ]
        init = np.full(figure1_graph.num_nodes, 1.0 / figure1_graph.num_nodes)
        batched = batched_objectrank2(
            figure1_graph, figure1_scorer, vectors, tolerance=1e-10, init=init
        )
        for vector, result in zip(vectors, batched):
            serial = objectrank2(
                figure1_graph, figure1_scorer, vector, tolerance=1e-10, init=init
            )
            assert result.iterations == serial.iterations
            assert np.abs(result.scores - serial.scores).max() <= 1e-12
            assert result.base_weights == serial.base_weights
