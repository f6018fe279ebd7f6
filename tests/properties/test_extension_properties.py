"""Property-based tests for the extension modules (focused/topk/agg)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import BM25Scorer, InvertedIndex
from repro.query import QueryVector
from repro.ranking import (
    TopKStable,
    objectrank2,
    rank,
    weighted_base_set,
    weighted_restarts,
)
from repro.reformulate.aggregation import AGGREGATORS

from tests.properties.strategies import dblp_transfer_graphs
from tests.reformulate.reference import aggregate_maps
from tests.ranking.reference import focused_objectrank2


def _query_for(atdg):
    index = InvertedIndex.from_graph(atdg.data_graph)
    scorer = BM25Scorer(index)
    # every generated paper title draws from this pool; pick a term that exists
    for term in ("olap", "cube", "xml", "mining", "query"):
        if index.documents_with_term(term):
            return scorer, QueryVector({term: 1.0})
    return scorer, None


@given(dblp_transfer_graphs())
@settings(max_examples=20, deadline=None)
def test_focused_converges_to_exact_with_horizon(atdg):
    """At a horizon covering the whole graph, focused == exact."""
    scorer, vector = _query_for(atdg)
    if vector is None:
        return
    exact = objectrank2(atdg, scorer, vector, tolerance=1e-10)
    focused = focused_objectrank2(
        atdg, scorer, vector, horizon=atdg.num_nodes, tolerance=1e-10
    )
    assert np.allclose(focused.ranked.scores, exact.scores, atol=1e-8)


@given(dblp_transfer_graphs(), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_focused_scores_vanish_outside_subgraph(atdg, horizon):
    scorer, vector = _query_for(atdg)
    if vector is None:
        return
    focused = focused_objectrank2(atdg, scorer, vector, horizon=horizon)
    assert focused.subgraph_nodes <= atdg.num_nodes
    nonzero = int((focused.ranked.scores > 0).sum())
    assert nonzero <= focused.subgraph_nodes


@given(dblp_transfer_graphs(), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_topk_agrees_with_exact_on_top_set(atdg, k):
    scorer, vector = _query_for(atdg)
    if vector is None:
        return
    exact = objectrank2(atdg, scorer, vector, tolerance=1e-10)
    base = weighted_base_set(scorer, vector, atdg)
    (fast,) = rank(atdg, weighted_restarts(atdg, [base]), TopKStable(k))
    exact_ids = {i for i, _ in exact.top_k(k)}
    fast_ids = {i for i, _ in fast.top_k(k)}
    # allow one borderline swap on near-ties
    assert len(exact_ids & fast_ids) >= k - 1


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(0.0, 100.0, allow_nan=False),
            max_size=4,
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60)
def test_aggregators_bounded_by_min_max(maps):
    summed = aggregate_maps(maps, "sum")
    for how in ("min", "max", "avg"):
        combined = aggregate_maps(maps, how)
        assert set(combined) == set(summed)
        for key, value in combined.items():
            values = [m[key] for m in maps if key in m]
            assert min(values) - 1e-12 <= value <= max(values) + 1e-12
    for key, value in summed.items():
        values = [m[key] for m in maps if key in m]
        assert abs(value - sum(values)) < 1e-9


def test_aggregators_registry_consistency():
    for name, fn in AGGREGATORS.items():
        assert fn([1.0, 3.0]) >= 0.0
        assert aggregate_maps([{"k": 2.0}], name) == {"k": 2.0}
