"""Property-based tests for the graph substrate (Equation 1 invariants)."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.graph import AuthorityTransferDataGraph

from tests.properties.strategies import dblp_graphs, rate_vectors


@given(dblp_graphs())
@settings(max_examples=40, deadline=None)
def test_transfer_edge_count_is_double(graph):
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    assert atdg.num_edges == 2 * graph.num_edges


@given(dblp_graphs())
@settings(max_examples=40, deadline=None)
def test_per_node_per_type_rates_sum_to_alpha(graph):
    """Equation 1: for each node and edge type with outgoing edges, the edge
    rates of that type sum to the schema-level alpha."""
    schema = dblp_transfer_schema()
    atdg = AuthorityTransferDataGraph(graph, schema)
    sums: dict[tuple[int, int], float] = {}
    for edge_id in range(atdg.num_edges):
        key = (int(atdg.edge_source[edge_id]), int(atdg.edge_type_index[edge_id]))
        sums[key] = sums.get(key, 0.0) + float(atdg.edge_rate[edge_id])
    for (node, type_index), total in sums.items():
        alpha = schema.rate(atdg.edge_types[type_index])
        assert abs(total - alpha) < 1e-9


@given(dblp_graphs())
@settings(max_examples=40, deadline=None)
def test_matrix_column_sums_bounded(graph):
    """Column i of the matrix sums each node's outgoing rates: at most 1."""
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    column_sums = np.asarray(atdg.matrix().sum(axis=0)).ravel()
    assert (column_sums <= 1.0 + 1e-9).all()


@given(dblp_graphs(), rate_vectors())
@settings(max_examples=30, deadline=None)
def test_rate_swap_equals_fresh_build(graph, vector):
    """A ``with_rates`` view must be exactly the graph a fresh build with
    those rates would be."""
    from repro.datasets import dblp_edge_order, dblp_schema

    order = dblp_edge_order(dblp_schema())
    base = dblp_transfer_schema()
    new_rates = base.with_vector(vector, dblp_edge_order(base.schema))

    swapped = AuthorityTransferDataGraph(graph, base).with_rates(new_rates)
    fresh = AuthorityTransferDataGraph(graph, new_rates)
    assert np.allclose(swapped.edge_rate, fresh.edge_rate)
    assert (swapped.matrix() != fresh.matrix()).nnz == 0


def _per_rate(graph) -> list:
    """Every structure one rate setting derives, built now: the edge
    rates, the CSR matrix, the SELL values and the positive incidence."""
    incoming, outgoing = graph.positive_incidence()
    return [graph.edge_rate, graph.matrix(), graph.sell_matrix(), incoming, outgoing]


def _floats(graph) -> list[bytes]:
    """The bytes of every array in :func:`_per_rate`."""
    edge_rate, matrix, sell, incoming, outgoing = _per_rate(graph)
    arrays = [edge_rate, matrix.data, matrix.indices, matrix.indptr, sell.values]
    return [array.tobytes() for array in (*arrays, *incoming, *outgoing)]


def _new_rates(vector):
    from repro.datasets import dblp_edge_order

    base = dblp_transfer_schema()
    return base, base.with_vector(vector, dblp_edge_order(base.schema))


@given(dblp_graphs(), rate_vectors(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_view_under_new_rates_owns_a_fresh_build(graph, vector, warm_parent):
    """Rates are values: a view's per-rate structures are those of a fresh
    build under its rates, and building them touches nothing of the
    parent's — warm or cold."""
    base, new_rates = _new_rates(vector)
    parent = AuthorityTransferDataGraph(graph, base)
    parent_before = _per_rate(parent) if warm_parent else None
    view = parent.with_rates(new_rates)
    assert _floats(view) == _floats(AuthorityTransferDataGraph(graph, new_rates))
    if new_rates != base:
        assert not any(
            ours is theirs for ours, theirs in zip(_per_rate(view), _per_rate(parent))
        )
    if warm_parent:
        assert all(map(operator.is_, _per_rate(parent), parent_before))
    assert _floats(parent) == _floats(AuthorityTransferDataGraph(graph, base))


@given(dblp_graphs(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_view_under_equal_rates_shares_the_parents_structures(graph, warm_parent):
    base = dblp_transfer_schema()
    parent = AuthorityTransferDataGraph(graph, base)
    parent_before = _floats(parent) if warm_parent else None
    equal = base.with_vector(base.as_vector())
    view = parent.rebound(graph.copy(), equal)
    assert all(map(operator.is_, _per_rate(view), _per_rate(parent)))
    if warm_parent:
        assert _floats(parent) == parent_before


@given(dblp_graphs(), rate_vectors())
@settings(max_examples=20, deadline=None)
def test_edge_rates_are_read_only(graph, vector):
    base, new_rates = _new_rates(vector)
    parent = AuthorityTransferDataGraph(graph, base)
    for built in (parent, parent.with_rates(new_rates), parent.rebound(graph.copy(), base)):
        with pytest.raises(ValueError):
            built.edge_rate[...] = 0.5


@given(dblp_graphs())
@settings(max_examples=40, deadline=None)
def test_incidence_index_bijection(graph):
    """out/in edge-id indexes form a partition of all edge ids."""
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    out_ids = sorted(
        int(e) for i in range(atdg.num_nodes) for e in atdg.out_edge_ids(i)
    )
    in_ids = sorted(
        int(e) for i in range(atdg.num_nodes) for e in atdg.in_edge_ids(i)
    )
    assert out_ids == list(range(atdg.num_edges))
    assert in_ids == list(range(atdg.num_edges))
