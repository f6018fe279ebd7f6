"""Property-based tests for the graph substrate (Equation 1 invariants)."""

import numpy as np
from hypothesis import given, settings

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
    """set_transfer_rates must produce exactly the graph a fresh build with
    those rates would."""
    from repro.datasets import dblp_edge_order, dblp_schema

    order = dblp_edge_order(dblp_schema())
    base = dblp_transfer_schema()
    new_rates = base.with_vector(vector, dblp_edge_order(base.schema))

    swapped = AuthorityTransferDataGraph(graph, base)
    swapped.set_transfer_rates(new_rates)
    fresh = AuthorityTransferDataGraph(graph, new_rates)
    assert np.allclose(swapped.edge_rate, fresh.edge_rate)
    assert (swapped.matrix() != fresh.matrix()).nnz == 0


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
