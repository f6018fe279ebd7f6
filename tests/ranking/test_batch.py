"""Unit tests for the blocked multi-restart power-iteration engine."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import EmptyBaseSetError, ParameterError
from repro.query import QueryVector
from repro.ranking import (
    Tolerance,
    multi_keyword_objectrank,
    objectrank2,
    rank,
    uniform_restarts,
    weighted_base_set,
    weighted_restarts,
)
from repro.ranking.batch import batched_power_iteration
from repro.ranking.objectrank import keyword_objectranks

from tests.graph.test_transfer_graph import _kernel_modes
from tests.properties.test_explain_batch_properties import same_bits
from tests.ranking.reference import (
    column_base_sets,
    dense_batched_power_iteration,
    dense_uniform_restarts,
    objectrank,
    reference_power_iteration,
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
    """Column-by-column comparison against the serial reference loop.

    Scores and iteration counts are exact; the residual trace is recorded
    in a different (vectorized) summation order and matches to a few ulps.
    """
    for j in range(restarts.shape[1]):
        serial = reference_power_iteration(matrix, restarts[:, j], **kwargs)
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
        batch = batched_power_iteration(matrix, column_base_sets(restarts), tolerance=1e-10)
        assert_matches_serial(matrix, restarts, batch, tolerance=1e-10)

    def test_columns_converge_independently(self):
        """A one-hot restart takes more iterations than a near-uniform one."""
        matrix = random_substochastic(60, seed=7)
        uniform = np.full(60, 1.0 / 60)
        one_hot = np.zeros(60)
        one_hot[0] = 1.0
        restarts = np.stack([uniform, one_hot], axis=1)
        batch = batched_power_iteration(matrix, column_base_sets(restarts), tolerance=1e-10)
        assert batch.iterations[0] != batch.iterations[1]
        assert batch.converged.all()

    def test_max_iterations_cap_per_column(self):
        matrix = random_substochastic(30, seed=8)
        restarts = random_restarts(30, 3, seed=9)
        batch = batched_power_iteration(
            matrix, column_base_sets(restarts), tolerance=0.0, max_iterations=4
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
        batch = batched_power_iteration(
            matrix, column_base_sets(restarts), tolerance=1e-9, init=init
        )
        for j in range(4):
            serial = reference_power_iteration(
                matrix, restarts[:, j], tolerance=1e-9, init=init
            )
            assert batch.column(j).iterations == serial.iterations
            assert np.abs(batch.column(j).scores - serial.scores).max() <= 1e-12

    def test_per_column_init(self):
        # One start is shared by every column; an (n, k) block is refused.
        matrix = random_substochastic(20, seed=12)
        restarts = random_restarts(20, 2, seed=13)
        init = random_restarts(20, 2, seed=14)
        with pytest.raises(ValueError, match=r"expected \(20,\)"):
            batched_power_iteration(
                matrix, column_base_sets(restarts), tolerance=1e-9, init=init
            )

    def test_more_columns_than_one_chunk_matches_serial(self):
        """Two full chunks and a tail: every column handed out contiguous."""
        from repro.ranking.batch import DEFAULT_BLOCK_WIDTH

        k = 2 * DEFAULT_BLOCK_WIDTH + 5
        matrix = random_substochastic(40, seed=15)
        restarts = random_restarts(40, k, seed=16)
        batch = batched_power_iteration(matrix, column_base_sets(restarts), tolerance=1e-9)
        assert_matches_serial(matrix, restarts, batch, tolerance=1e-9)
        assert len(batch.columns) == k
        for column in batch.columns:
            assert column.shape == (40,) and column.flags.c_contiguous
            assert column.base is None  # its own array, not a view of a slab
        assert batch.column(k - 1).scores is batch.columns[k - 1]

    def test_empty_block(self):
        matrix = random_substochastic(10, seed=17)
        batch = batched_power_iteration(matrix, [])
        assert batch.num_columns == 0
        assert batch.columns == []

    def test_validation_errors(self, figure1_graph):
        matrix = random_substochastic(10, seed=18)
        one = (np.array([1, 4]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, [one, (np.array([1, 4]), np.ones(3))])
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, [one, (np.array([10]), np.ones(1))])  # past n
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, [one, (np.array([-1]), np.ones(1))])
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, [one, (np.array([0.0]), np.ones(1))])
        with pytest.raises(ValueError):
            batched_power_iteration(matrix, [one, one], init=np.zeros(3))
        # Damping and the iteration cap are checked once, by ``rank``.
        two = uniform_restarts(figure1_graph, [["v1"], ["v4"]])
        with pytest.raises(ParameterError):
            rank(figure1_graph, two, Tolerance(), damping=1.5)
        with pytest.raises(ParameterError):
            rank(figure1_graph, two, Tolerance(), max_iterations=0)


class TestGraphLevelBatching:
    def test_batched_objectrank_matches_serial(self, figure1_graph):
        base_sets = [["v1", "v4"], ["v5"], ["v1", "v2", "v3"]]
        batched = rank(figure1_graph, uniform_restarts(figure1_graph, base_sets), Tolerance(1e-10))
        for base, result in zip(base_sets, batched):
            serial = objectrank(figure1_graph, base, tolerance=1e-10)
            assert result.iterations == serial.iterations
            assert result.converged == serial.converged
            assert np.array_equal(result.scores, serial.scores)
            assert result.base_weights == serial.base_weights

    def test_batched_objectrank_empty_base_set_raises(self, figure1_graph):
        with pytest.raises(EmptyBaseSetError):
            uniform_restarts(figure1_graph, [["v1"], []])

    def test_batched_keyword_vectors_matches_serial(
        self, figure1_graph, figure1_index
    ):
        keywords = list(figure1_index.vocabulary())
        batched = keyword_objectranks(
            figure1_graph, figure1_index, keywords, tolerance=1e-10
        )
        assert set(batched) == set(keywords)
        for keyword, result in batched.items():
            (serial,) = keyword_objectranks(
                figure1_graph, figure1_index, [keyword], tolerance=1e-10
            ).values()
            assert result.iterations == serial.iterations
            assert np.array_equal(result.scores, serial.scores)

    def test_batched_keyword_vectors_skips_unmatched(
        self, figure1_graph, figure1_index
    ):
        batched = keyword_objectranks(
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
            objectrank(
                figure1_graph, figure1_index.documents_with_term(kw), tolerance=1e-10
            )
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
        bases = [
            weighted_base_set(figure1_scorer, vector, figure1_graph) for vector in vectors
        ]
        batched = rank(
            figure1_graph, weighted_restarts(figure1_graph, bases), Tolerance(1e-10),
            init=init,
        )
        for vector, result in zip(vectors, batched):
            serial = objectrank2(
                figure1_graph, figure1_scorer, vector, tolerance=1e-10, init=init
            )
            assert result.iterations == serial.iterations
            assert np.array_equal(result.scores, serial.scores)
            assert result.base_weights == serial.base_weights


class TestDenseSlabOracle:
    """The base-set engine equals the engine that laid out a dense ``(n, k)``
    restart block (``tests/ranking/reference.py``): scores bit for bit,
    iterations, flags and residual traces ``==``, with the kernel and
    without."""

    def id_sets(self, graph, k):
        rng = np.random.default_rng(k)
        ids = graph.node_ids
        sets = []
        for j in range(k):
            picks = rng.integers(0, len(ids), size=1 + j % 7)
            sets.append([ids[i] for i in picks] + [ids[picks[0]]])  # a repeat
        return sets

    @pytest.mark.parametrize("warm", [False, True])
    def test_every_width_up_to_forty(self, dblp_tiny_engine, warm):
        graph = dblp_tiny_engine.graph
        init = np.random.default_rng(3).random(graph.num_nodes) if warm else None
        for mode in _kernel_modes():
            for k in range(1, 41):
                id_sets = self.id_sets(graph, k)
                restarts = uniform_restarts(graph, id_sets)
                block = dense_uniform_restarts(graph, id_sets)
                for j in range(k):
                    assert same_bits(graph.restart_vector(restarts.base_weights[j]), block[:, j])
                with mode:
                    theirs = dense_batched_power_iteration(
                        graph.matrix(), block, tolerance=1e-9, init=init
                    )
                    mine = batched_power_iteration(
                        graph.matrix(),
                        [(b.nodes, b.values_array) for b in restarts.base_weights],
                        tolerance=1e-9,
                        init=init,
                    )
                    ranked = rank(graph, restarts, Tolerance(1e-9), init=init)
                for j, expected in enumerate(theirs):
                    column = mine.column(j)
                    assert same_bits(column.scores, expected.scores)
                    assert column.iterations == expected.iterations
                    assert column.converged == expected.converged
                    assert column.residuals == expected.residuals
                    if k > 1:
                        assert same_bits(ranked[j].scores, expected.scores)
                        assert ranked[j].residuals == expected.residuals

    def test_an_empty_base_set_still_raises(self, figure1_graph):
        with pytest.raises(EmptyBaseSetError):
            uniform_restarts(figure1_graph, [["v1", "v1"], []])
        with pytest.raises(EmptyBaseSetError):
            dense_uniform_restarts(figure1_graph, [["v1", "v1"], []])
