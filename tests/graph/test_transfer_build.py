"""The array-native transfer-graph build against the per-edge loop it replaced.

``tests/graph/reference.py`` keeps the old constructor body, conformance
walk and ``remove_node``; everything here is ``array_equal`` with equal
dtypes (conforming graphs) or an identical violation list (nonconforming
ones).  The counting test pins the structural claim: the schema is consulted
once per distinct ``(source label, target label, role)`` triple.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import figure1_dataset, load_dataset
from repro.errors import ConformanceError
from repro.graph import (
    AuthorityTransferDataGraph,
    DataGraph,
    SchemaGraph,
    find_violations,
)
from tests.graph.reference import (
    reference_find_violations,
    reference_matrix,
    reference_transfer_arrays,
    tricky_rates,
)
from tests.properties.test_explain_batch_properties import same_bits


def same_array(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.dtype == expected.dtype and np.array_equal(actual, expected)


def assert_matches_reference(data_graph, transfer_schema, graph=None) -> None:
    """``graph`` (by default, a fresh build) holds the per-edge loop's arrays
    over ``data_graph`` and ``transfer_schema``."""
    if graph is None:
        graph = AuthorityTransferDataGraph(data_graph, transfer_schema)
    expected = reference_transfer_arrays(data_graph, transfer_schema)
    assert graph.node_ids == expected.node_ids
    assert graph.edge_types == expected.edge_types
    assert graph.num_edges == len(expected.edge_source)
    assert same_array(graph.edge_source, expected.edge_source)
    assert same_array(graph.edge_target, expected.edge_target)
    assert same_array(graph.edge_type_index, expected.edge_type_index)
    assert same_array(graph._edge_out_degree, expected.edge_out_degree)
    assert same_array(graph.edge_rate, expected.edge_rate)
    for built, reference in (
        (graph._out_index, expected.out_index),
        (graph._in_index, expected.in_index),
    ):
        assert same_array(built[0], reference[0])
        assert same_array(built[1], reference[1])
    matrix, expected_matrix = graph.matrix(), reference_matrix(graph)
    expected_matrix.eliminate_zeros()  # the transition matrix stores no zero rate
    assert same_array(matrix.data, expected_matrix.data)
    assert same_bits(matrix.data, expected_matrix.data)
    assert same_array(matrix.indices, expected_matrix.indices)
    assert same_array(matrix.indptr, expected_matrix.indptr)


def assert_same_violations(data_graph, transfer_schema) -> None:
    expected = reference_find_violations(data_graph, transfer_schema.schema)
    assert expected
    assert find_violations(data_graph, transfer_schema.schema) == expected
    with pytest.raises(ConformanceError) as raised:
        AuthorityTransferDataGraph(data_graph, transfer_schema)
    assert raised.value.violations == expected
    with pytest.raises(ConformanceError) as reference:
        reference_transfer_arrays(data_graph, transfer_schema)
    assert str(raised.value) == str(reference.value)


# -- random graphs over ``tricky_rates``: every shape the resolver distinguishes --


#: ``(source label, target label, role)`` triples that resolve; role-less
#: ones are unambiguous because their label pair has a single schema edge.
_CONFORMING = (
    ("A", "B", "r1"),
    ("A", "B", "r2"),
    ("A", "A", "self"),
    ("A", "A", None),
    ("B", "A", "back"),
    ("B", "A", None),
)


@st.composite
def tricky_graphs(draw, min_nodes: int = 0):
    """Role-less, parallel and self-loop edges, isolated nodes, maybe nothing."""
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=min_nodes, max_size=8))
    graph = DataGraph()
    by_label: dict[str, list[str]] = {"A": [], "B": [], "C": []}
    for position, label in enumerate(labels):
        by_label[label].append(graph.add_node(f"n{position}", label).node_id)
    usable = [t for t in _CONFORMING if by_label[t[0]] and by_label[t[1]]]
    if usable:
        for source_label, target_label, role in draw(
            st.lists(st.sampled_from(usable), max_size=16)
        ):
            source = draw(st.sampled_from(by_label[source_label]))
            target = draw(st.sampled_from(by_label[target_label]))
            graph.add_edge(source, target, role)
    return graph


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("name", ["dblp_tiny", "bio_tiny"])
    def test_generated_datasets(self, name):
        dataset = load_dataset(name)
        assert_matches_reference(dataset.data_graph, dataset.transfer_schema)

    def test_figure1(self):
        dataset = figure1_dataset()
        assert_matches_reference(dataset.data_graph, dataset.transfer_schema)

    def test_empty_graph(self):
        assert_matches_reference(DataGraph(), tricky_rates())

    @settings(max_examples=60, deadline=None)
    @given(tricky_graphs())
    def test_random_graphs(self, graph):
        assert_matches_reference(graph, tricky_rates())

    def test_view_shares_topology_and_matches_reference_rates(self):
        dataset = figure1_dataset()
        graph = AuthorityTransferDataGraph(dataset.data_graph, dataset.transfer_schema)
        vector = [0.1 * (i + 1) for i in range(len(graph.edge_types))]
        rates = dataset.transfer_schema.with_vector(vector)
        copy = dataset.data_graph.copy()
        copy.update_attributes("v7", {"title": "rewritten"})
        view = graph.rebound(copy, rates)
        assert view.data_graph is copy and view.transfer_schema is rates
        assert view.edge_source is graph.edge_source
        assert view._out_index is graph._out_index
        assert same_array(view.edge_rate, reference_transfer_arrays(copy, rates).edge_rate)
        # The source graph is untouched.
        assert graph.transfer_schema is dataset.transfer_schema
        assert same_array(
            graph.edge_rate,
            reference_transfer_arrays(dataset.data_graph, dataset.transfer_schema).edge_rate,
        )


class TestNonconforming:
    def test_unknown_label_on_an_edgeless_node(self):
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("z", "Z")
        assert_same_violations(graph, tricky_rates())

    def test_unresolvable_role(self):
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b", "r1")
        graph.add_edge("a", "b", "nope")
        assert_same_violations(graph, tricky_rates())

    def test_ambiguous_role_less_edge(self):
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b")
        assert_same_violations(graph, tricky_rates())

    def test_edge_between_unknown_labels(self):
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("z", "Z")
        graph.add_edge("a", "z", "r1")
        graph.add_edge("z", "a")
        assert_same_violations(graph, tricky_rates())

    def test_more_violations_than_the_limit(self):
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        for position in range(40):
            graph.add_node(f"z{position}", "Z")
        for _ in range(30):
            graph.add_edge("b", "a", "nope")
        rates = tricky_rates()
        assert_same_violations(graph, rates)
        assert len(find_violations(graph, rates.schema)) == 50

    @settings(max_examples=40, deadline=None)
    @given(tricky_graphs(), st.sampled_from(["label", "role", "ambiguous"]))
    def test_random_graph_with_one_defect(self, graph, defect):
        if defect == "label":
            graph.add_node("defect", "Z")
        else:
            graph.add_node("defect:a", "A")
            graph.add_node("defect:b", "B")
            graph.add_edge("defect:a", "defect:b", "nope" if defect == "role" else None)
            graph.add_edge("defect:a", "defect:a", "self")
        assert_same_violations(graph, tricky_rates())


class TestResolutionCount:
    def test_one_schema_resolution_per_distinct_triple(self, monkeypatch):
        dataset = load_dataset("dblp_tiny")
        data_graph = dataset.data_graph
        triples = {
            (data_graph.node(e.source).label, data_graph.node(e.target).label, e.role)
            for e in data_graph.edges()
        }
        calls: list[tuple] = []
        resolve = SchemaGraph.resolve_edge

        def counting(self, source, target, role):
            calls.append((source, target, role))
            return resolve(self, source, target, role)

        monkeypatch.setattr(SchemaGraph, "resolve_edge", counting)
        AuthorityTransferDataGraph(data_graph, dataset.transfer_schema)
        assert len(triples) == 4
        assert sorted(calls, key=repr) == sorted(triples, key=repr)
