"""Every fixpoint is capped at its entry.

The paper's Theorem 1 promises convergence only while the transfer schema
stays convergent; after a structure-based reformulation a learned rate at
the boundary can make Equations 4 and 10 contract arbitrarily slowly.  So
no entry trusts the tolerance to end its loop: ``check_max_iterations``
refuses a cap below one at ``rank``, ``adjust_flows``,
``batched_adjust_flows`` and ``batched_explain``, and every residual loop
tests ``max_iterations`` (``tests/test_layering.py`` guards the loops).

Under ``Tolerance(0.0)`` no residual is ever below the tolerance, so each
entry must run exactly ``max_iterations`` steps and report
``converged=False`` — with the compiled kernels and with them forced off.
Under ``TopKStable`` the stop may come earlier, never later.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explain import adjust_flows, batched_adjust_flows, build_explaining_subgraph
from repro.explain.batch import batched_explain
from repro.ranking import Tolerance, TopKStable, _native, rank, uniform_restarts

CAPS = st.integers(1, 12)
NEVER = Tolerance(0.0)
#: ``step`` patches the kernel switch for the whole test, every example.
PROPERTY = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(params=["kernel", "numpy"])
def step(request):
    """Run through the compiled kernels, or with them forced off."""
    if request.param == "numpy":
        with mock.patch.object(_native, "_ensure", lambda: None):
            yield request.param
    elif not _native.available():
        pytest.skip("no compiled kernel in this process")
    else:
        yield request.param


@pytest.fixture(scope="module")
def corpus(dblp_tiny_engine):
    """The graph, the base sets of four terms and, for the first term, its
    converged scores and three targets with a non-empty explaining subgraph."""
    engine = dblp_tiny_engine
    graph = engine.graph
    terms = engine.index.vocabulary(2)[:4]
    bases = [sorted(engine.index.documents_with_term(term)) for term in terms]
    (ranked,) = rank(graph, uniform_restarts(graph, bases[:1]), Tolerance())
    order = np.argsort(-ranked.scores, kind="stable")
    targets = []
    for index in order:
        node = graph.node_id_of(int(index))
        if node in bases[0]:
            continue
        if not build_explaining_subgraph(graph, bases[0], node).is_empty:
            targets.append(node)
        if len(targets) == 3:
            break
    return graph, bases, ranked.scores, targets


def _assert_capped(results, cap):
    assert [(r.iterations, r.converged) for r in results] == [(cap, False)] * len(results)


@given(cap=CAPS)
@PROPERTY
def test_rank_on_one_column_runs_exactly_the_cap(step, corpus, cap):
    graph, bases, _scores, _targets = corpus
    _assert_capped(rank(graph, uniform_restarts(graph, bases[:1]), NEVER, max_iterations=cap), cap)


@given(cap=CAPS)
@PROPERTY
def test_rank_over_a_support_runs_exactly_the_cap(step, corpus, cap):
    graph, bases, _scores, targets = corpus
    support = np.unique(graph.indices_of(bases[0] + targets))
    restarts = uniform_restarts(graph, bases[:1])
    _assert_capped(rank(graph, restarts, NEVER, max_iterations=cap, support=support), cap)


@given(cap=CAPS, k=st.integers(2, 4))
@PROPERTY
def test_rank_on_many_columns_runs_exactly_the_cap(step, corpus, cap, k):
    graph, bases, _scores, _targets = corpus
    _assert_capped(rank(graph, uniform_restarts(graph, bases[:k]), NEVER, max_iterations=cap), cap)


@given(cap=CAPS, k=st.integers(1, 5))
@PROPERTY
def test_top_k_stable_never_runs_past_the_cap(step, corpus, cap, k):
    graph, bases, _scores, _targets = corpus
    (result,) = rank(graph, uniform_restarts(graph, bases[:1]), TopKStable(k), max_iterations=cap)
    assert 1 <= result.iterations <= cap
    assert result.converged or result.iterations == cap


@given(cap=CAPS)
@PROPERTY
def test_adjust_flows_runs_exactly_the_cap(step, corpus, cap):
    graph, bases, scores, targets = corpus
    subgraph = build_explaining_subgraph(graph, bases[0], targets[0])
    _assert_capped([adjust_flows(subgraph, scores, tolerance=0.0, max_iterations=cap)], cap)


@given(cap=CAPS)
@PROPERTY
def test_batched_adjust_flows_runs_exactly_the_cap(step, corpus, cap):
    graph, bases, scores, targets = corpus
    subgraphs = [build_explaining_subgraph(graph, bases[0], target) for target in targets]
    _assert_capped(batched_adjust_flows(subgraphs, scores, tolerance=0.0, max_iterations=cap), cap)


@given(cap=CAPS)
@PROPERTY
def test_batched_explain_runs_exactly_the_cap(step, corpus, cap):
    graph, bases, scores, targets = corpus
    explained = batched_explain(
        graph, bases[0], targets, scores, tolerance=0.0, max_iterations=cap
    )
    _assert_capped(explained, cap)
