"""Property tests: the blocked engine is the serial engine, column for column.

The tentpole claim of ``repro.ranking.batch`` is that blocking is a pure
performance change — per column, scores (≤1e-12), iteration counts and
convergence flags all match a serial
:func:`~repro.ranking.pagerank.power_iteration` run, and residual traces
match to a few ulps (they are recorded in a vectorized summation order).
These properties check that over random conforming DBLP graphs and random
restart blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranking import (
    batched_objectrank,
    batched_power_iteration,
    objectrank,
    power_iteration,
)

from tests.properties.strategies import dblp_transfer_graphs


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
    batch = batched_power_iteration(matrix, restarts, tolerance=1e-8)
    for j in range(restarts.shape[1]):
        serial = power_iteration(matrix, restarts[:, j], tolerance=1e-8)
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
    batched = batched_objectrank(atdg, base_sets, tolerance=1e-9)
    for base, result in zip(base_sets, batched):
        serial = objectrank(atdg, base, tolerance=1e-9)
        assert result.iterations == serial.iterations
        assert result.converged == serial.converged
        assert np.abs(result.scores - serial.scores).max() <= 1e-12
        assert result.base_weights == serial.base_weights
