"""Property tests: the blocked engine is the serial engine, column for column.

The tentpole claim of ``repro.ranking.batch`` is that blocking is a pure
performance change — per column, scores (≤1e-12), iteration counts and
convergence flags all match the serial reference loop
(``tests/ranking/reference.py``), and residual traces match to a few ulps
(they are recorded in a vectorized summation order).  ``rank`` hands two or
more restart columns to the blocked engine and one to the single-vector
loop, so a base set ranks the same alone or in a block.  These properties
check that over random conforming DBLP graphs and random restart blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranking import Tolerance, rank, uniform_restarts
from repro.ranking.batch import batched_power_iteration

from tests.graph.test_transfer_graph import _kernel_modes
from tests.properties.strategies import dblp_transfer_graphs
from tests.properties.test_explain_batch_properties import same_bits
from tests.ranking.reference import (
    column_base_sets,
    objectrank,
    reference_power_iteration,
)


@st.composite
def graphs_with_restart_blocks(draw):
    """A random transfer graph plus a random (n, k) restart block."""
    atdg = draw(dblp_transfer_graphs())
    k = draw(st.integers(1, 5))
    n = atdg.num_nodes
    columns = []
    for _ in range(k):
        weights = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
            )
        )
        column = np.asarray(weights)
        if column.sum() == 0:
            column[draw(st.integers(0, n - 1))] = 1.0
        columns.append(column / column.sum())
    return atdg, np.stack(columns, axis=1)


@given(graphs_with_restart_blocks())
@settings(max_examples=25, deadline=None)
def test_blocked_matches_serial_column_by_column(graph_and_block):
    atdg, restarts = graph_and_block
    matrix = atdg.matrix()
    batch = batched_power_iteration(matrix, column_base_sets(restarts), tolerance=1e-8)
    for j in range(restarts.shape[1]):
        serial = reference_power_iteration(matrix, restarts[:, j], tolerance=1e-8)
        column = batch.column(j)
        assert column.iterations == serial.iterations
        assert column.converged == serial.converged
        assert np.abs(column.scores - serial.scores).max() <= 1e-12
        assert len(column.residuals) == len(serial.residuals)
        assert np.allclose(column.residuals, serial.residuals, rtol=1e-9)


@given(dblp_transfer_graphs(), st.data())
@settings(max_examples=20, deadline=None)
def test_batched_objectrank_matches_serial(atdg, data):
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    k = data.draw(st.integers(1, 3))
    base_sets = [
        data.draw(
            st.lists(st.sampled_from(papers), min_size=1, unique=True)
        )
        for _ in range(k)
    ]
    batched = rank(atdg, uniform_restarts(atdg, base_sets), Tolerance(1e-9))
    for base, result in zip(base_sets, batched):
        serial = objectrank(atdg, base, tolerance=1e-9)
        assert result.iterations == serial.iterations
        assert result.converged == serial.converged
        assert np.abs(result.scores - serial.scores).max() <= 1e-12
        assert result.base_weights == serial.base_weights


@st.composite
def graphs_with_uneven_base_sets(draw):
    """A random transfer graph, 1..40 uniform restart columns over base sets
    of different sizes, and a shared start: uniform, or one column's own
    fixpoint, which that column leaves within an iteration or two while the
    others run on — the columns converge iterations apart.

    The width crosses the compiled kernel's padding (7 -> 8, 29 -> 32) and
    the 32-column chunk boundary."""
    atdg = draw(dblp_transfer_graphs())
    n = atdg.num_nodes
    k = draw(st.integers(1, 40))
    restarts = np.zeros((n, k))
    for j in range(k):
        size = draw(st.integers(1, n))
        base = draw(st.permutations(range(n)))[:size]
        restarts[base, j] = 1.0 / size
    init = None
    warm = draw(st.one_of(st.none(), st.integers(0, k - 1)))
    if warm is not None:
        init = reference_power_iteration(
            atdg.matrix(), restarts[:, warm], tolerance=1e-12
        ).scores
    return atdg, restarts, init


@given(graphs_with_uneven_base_sets())
@settings(max_examples=25, deadline=None)
def test_every_block_width_moves_no_bit(case):
    atdg, restarts, init = case
    matrix = atdg.matrix()
    serial = [
        reference_power_iteration(matrix, restarts[:, j], tolerance=1e-8, init=init)
        for j in range(restarts.shape[1])
    ]
    for mode in _kernel_modes():
        with mode:
            batch = batched_power_iteration(
                matrix, column_base_sets(restarts), tolerance=1e-8, init=init
            )
        for j, expected in enumerate(serial):
            column = batch.column(j)
            assert same_bits(column.scores, expected.scores)
            assert column.iterations == expected.iterations
            assert column.converged == expected.converged
            assert len(column.residuals) == len(expected.residuals)
            assert np.allclose(column.residuals, expected.residuals, rtol=1e-9)
