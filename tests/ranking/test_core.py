"""The ranking core against the reference loops: every restart builder, both
stops and block widths on either side of the blocked engine's 32-column
chunk, with the compiled kernels and with them forced off."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.query import QueryVector, SearchEngine
from repro.ranking import (
    Tolerance,
    TopKStable,
    _native,
    global_restarts,
    rank,
    uniform_restarts,
    weighted_base_set,
    weighted_restarts,
)
from repro.retrieval import two_stage_rank

from tests.ranking.reference import (
    reference_power_iteration,
    reference_topk_power_iteration,
)

WIDTHS = (1, 2, 33)


@pytest.fixture(params=["kernel", "numpy"])
def step(request):
    """Rank through the compiled kernels, or with them forced off."""
    if request.param == "numpy":
        with mock.patch.object(_native, "_ensure", lambda: None):
            yield request.param
    elif not _native.available():
        pytest.skip("no compiled kernel in this process")
    else:
        yield request.param


def build(engine, builder, k):
    """``k`` restart columns from ``builder`` over ``engine``'s corpus."""
    graph = engine.graph
    terms = engine.index.vocabulary(2)[:k]
    if builder == "uniform":
        return uniform_restarts(graph, [engine.index.documents_with_term(t) for t in terms])
    if builder == "weighted":
        return weighted_restarts(
            graph,
            [weighted_base_set(engine.scorer, QueryVector({t: 1.0}), graph) for t in terms],
        )
    return global_restarts(graph)


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("builder", ["uniform", "weighted", "global"])
@pytest.mark.parametrize("warm", [False, True])
def test_tolerance_stop_equals_the_reference_loop(step, dblp_tiny_engine, builder, k, warm):
    if builder == "global" and k > 1:
        pytest.skip("the global restart is one column")
    graph = dblp_tiny_engine.graph
    restarts = build(dblp_tiny_engine, builder, k)
    assert len(restarts.base_weights) == k
    init = np.random.default_rng(k).random(graph.num_nodes) if warm else None
    ranked = rank(graph, restarts, Tolerance(), init=init)
    assert len(ranked) == k
    for j, result in enumerate(ranked):
        restart = graph.restart_vector(restarts.base_weights[j])
        theirs = reference_power_iteration(graph.matrix(), restart, init=init)
        assert np.array_equal(result.scores, theirs.scores)
        assert (result.iterations, result.converged) == (theirs.iterations, theirs.converged)
        assert result.base_weights is restarts.base_weights[j]
        if k == 1:
            assert result.residuals == theirs.residuals
        else:  # the blocked engine sums its residual trace in another order
            assert result.residuals == pytest.approx(theirs.residuals, rel=1e-9)


@pytest.mark.parametrize("builder", ["uniform", "weighted", "global"])
def test_top_k_stop_equals_the_reference_loop(step, dblp_tiny_engine, builder):
    graph = dblp_tiny_engine.graph
    restarts = build(dblp_tiny_engine, builder, 1)
    (result,) = rank(graph, restarts, TopKStable(10))
    restart = graph.restart_vector(*restarts.base_weights)
    theirs = reference_topk_power_iteration(graph.matrix(), restart, 10)
    assert np.array_equal(result.scores, theirs.scores)
    assert (result.iterations, result.converged) == (theirs.iterations, theirs.converged)
    assert result.residuals == theirs.residuals
    if builder != "global":
        with pytest.raises(ParameterError, match="one restart column"):
            rank(graph, build(dblp_tiny_engine, builder, 2), TopKStable(10))


@pytest.mark.parametrize("stop", [Tolerance(), TopKStable(5)], ids=["tolerance", "top-k"])
def test_every_stop_refuses_a_loop_that_cannot_run(figure1_graph, stop):
    restarts = uniform_restarts(figure1_graph, [["v1"]])
    for max_iterations in (0, -3):
        with pytest.raises(ParameterError, match="max_iterations"):
            rank(figure1_graph, restarts, stop, max_iterations=max_iterations)


def test_search_refuses_zero_iterations(dblp_tiny):
    """Regression: ``max_iterations=0`` returned a page of the uniform 1/n
    start with ``iterations=0``."""
    engine = SearchEngine(dblp_tiny.data_graph, dblp_tiny.transfer_schema, max_iterations=0)
    with pytest.raises(ParameterError, match="max_iterations"):
        engine.search("xml")


def test_two_stage_top_k_exit_refuses_divergent_damping(dblp_tiny_engine):
    """Regression: the top-k stop ran a ``damping=1.5`` rerank to the end
    and returned scores summing to a negative number."""
    engine = dblp_tiny_engine
    with pytest.raises(ParameterError, match="damping"):
        two_stage_rank(
            engine.graph, engine.scorer, QueryVector({"xml": 1.0}),
            damping=1.5, early_k=10,
        )
