"""The compiled SELL-4 step against the reference power-iteration loops.

Live ObjectRank runs iterate a :class:`~repro.graph.transfer_graph.SellMatrix`
through the compiled kernel (:mod:`repro.ranking._native`).  Rows regrouped,
interleaved and padded must not move a float: scores, the residual list,
the iteration count and ``converged`` are ``==`` the loops kept in
``tests/ranking/reference.py``, with the kernel and with it forced off.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph.transfer_graph import SellMatrix, sell_layout
from repro.ranking import (
    Tolerance,
    TopKStable,
    _native,
    objectrank2,
    rank,
    weighted_restarts,
)
from repro.ranking.pagerank import iterate, live_operator

from tests.ranking.reference import (
    reference_power_iteration,
    reference_topk_power_iteration,
)


@st.composite
def transition_multigraphs(draw):
    """``(A, restart, init)`` over a random column-substochastic multigraph.

    Parallel edges are summed as in the transfer graph; rows may be empty,
    one row may be a hub of thousands of entries, ``n`` need not be a
    multiple of the group size (one node included), some slots hold an
    explicit 0.0 (a zero-rate edge type), and a warm init may hold zeros.
    """
    n = draw(st.one_of(st.integers(1, 40), st.integers(1500, 4000)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = draw(st.integers(0, 4 * n))
    rows = rng.integers(0, n, edges)
    columns = rng.integers(0, n, edges)
    if draw(st.booleans()):  # a band of empty rows
        keep = rows % 5 != 2
        rows, columns = rows[keep], columns[keep]
    if draw(st.booleans()):  # a hub: one row reading (almost) every column
        hub = draw(st.integers(0, n - 1))
        spokes = rng.integers(0, n, draw(st.integers(1, 3000)))
        rows = np.concatenate((rows, np.full(spokes.size, hub)))
        columns = np.concatenate((columns, spokes))
    rates = rng.uniform(0.01, 1.0, rows.size)
    rates /= np.bincount(columns, rates, minlength=n)[columns]  # out-rates sum to 1
    matrix = sparse.csr_matrix((rates, (rows, columns)), shape=(n, n))
    if matrix.nnz and draw(st.booleans()):
        matrix.data[:: draw(st.integers(1, 7))] = 0.0  # zero-rate slots
    restart = np.zeros(n)
    restart[rng.choice(n, draw(st.integers(1, min(n, 30))), replace=False)] = 1.0
    restart /= restart.sum()
    init = None
    if draw(st.booleans()):
        init = rng.random(n)
        init[rng.random(n) < 0.3] = 0.0
    return matrix, restart, init


#: ``step`` holds for every example of a test: nothing to reset between them.
ONE_SETUP = [HealthCheck.function_scoped_fixture]


@pytest.fixture(params=["kernel", "numpy"])
def step(request):
    """Run the loop through the compiled kernel, or with it forced off."""
    if request.param == "numpy":
        with mock.patch.object(_native, "_ensure", lambda: None):
            yield request.param
    elif not _native.available():
        pytest.skip("no compiled kernel in this process")
    else:
        yield request.param


def sell(matrix) -> SellMatrix:
    return SellMatrix(sell_layout(matrix.indptr, matrix.indices), matrix.data)


def assert_same(mine, theirs) -> None:
    assert np.array_equal(mine.scores, theirs.scores)
    assert mine.residuals == theirs.residuals
    assert (mine.iterations, mine.converged) == (theirs.iterations, theirs.converged)


def assert_kernel_runs(step, operator, restart) -> None:
    bound = _native.bind_sell_step(operator, 0.15 * restart, 0.85, restart)
    assert (bound is not None) == (step == "kernel")


@settings(max_examples=60, deadline=None, suppress_health_check=ONE_SETUP)
@given(case=transition_multigraphs(), tolerance=st.sampled_from([1e-4, 1e-9, 0.0]))
def test_power_iteration_equals_the_reference_loop(step, case, tolerance):
    matrix, restart, init = case
    operator = sell(matrix)
    assert_kernel_runs(step, operator, restart)
    assert_same(
        iterate(operator, restart, 0.85, 60, init, Tolerance(tolerance).rule()),
        reference_power_iteration(matrix, restart, 0.85, tolerance, 60, init),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=ONE_SETUP)
@given(case=transition_multigraphs(), k=st.integers(1, 12))
def test_topk_power_iteration_equals_the_reference_loop(step, case, k):
    matrix, restart, init = case
    assert_same(
        iterate(sell(matrix), restart, 0.85, 80, init, TopKStable(k).rule()),
        reference_topk_power_iteration(matrix, restart, k, max_iterations=80, init=init),
    )


def test_live_ranker_equals_the_reference_loop(step, dblp_tiny_engine):
    """``objectrank2`` and its restart under the top-k stop on the live
    path, cold and warm-started: their operator, their floats."""
    engine = dblp_tiny_engine
    graph = engine.graph
    vector = engine.query_vector("olap cube mining")
    for init in (None, np.random.default_rng(5).random(graph.num_nodes)):
        ranked = objectrank2(graph, engine.scorer, vector, init=init)
        restart = graph.restart_vector(ranked.base_weights)
        assert_same(ranked, reference_power_iteration(graph.matrix(), restart, init=init))
        (top,) = rank(
            graph, weighted_restarts(graph, [ranked.base_weights]), TopKStable(10),
            init=init,
        )
        assert_same(
            top, reference_topk_power_iteration(graph.matrix(), restart, 10, init=init)
        )
    assert isinstance(live_operator(graph), SellMatrix) == (step == "kernel")
