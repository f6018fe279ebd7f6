"""An extended transfer graph against the per-edge loop's arrays.

An ingest refresh whose batch only appended nodes and edges extends the last
snapshot's graph (:meth:`AuthorityTransferDataGraph.extended`) instead of
building one.  Random mutation rounds over ``tricky_rates`` graphs — a
label's first node, parallel edges, self-loops, role-less edges and
zero-rate types, and now and then a removal — are refreshed one by one, and
every refreshed graph must hold exactly the arrays of
``tests/graph/reference.py`` over its data graph, the transition matrix
compared by bit pattern.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import AuthorityTransferDataGraph, DataGraph
from repro.graph.transfer_graph import build_incidence, extend_incidence
from repro.ingest import IngestEngine
from tests.graph.reference import tricky_rates
from tests.graph.test_transfer_build import (
    _CONFORMING,
    assert_matches_reference,
    tricky_graphs,
)

#: Rates drawn per edge type: zero-rate types leave slots out of the
#: transition matrix, and a pattern is cached per zero-rate type set.
_RATES = st.lists(
    st.sampled_from([0.0, 0.3, 0.15]), min_size=8, max_size=8
).map(lambda vector: tricky_rates().with_vector(vector))


def _mutate(data, ingest: IngestEngine, graph: DataGraph, fresh: list[int]) -> str:
    """One random mutation of ``ingest``'s working graph (``graph`` is a
    copy it keeps in step); its kind, or ``"none"`` when nothing fits."""
    kind = data.draw(
        st.sampled_from(
            ["add_node"] * 3 + ["add_edge"] * 4 + ["repeat_edge", "update_node"]
            + ["remove_edge", "remove_node"]
        )
    )
    nodes = graph.node_ids()
    edges = graph.edges()
    if kind == "add_node":
        fresh[0] += 1
        node_id, label = f"new{fresh[0]}", data.draw(st.sampled_from("ABC"))
        ingest.add_node(node_id, label, {"title": node_id})
        graph.add_node(node_id, label, {"title": node_id})
    elif kind == "add_edge":
        usable = [
            t for t in _CONFORMING
            if any(graph.node(n).label == t[0] for n in nodes)
            and any(graph.node(n).label == t[1] for n in nodes)
        ]
        if not usable:
            return "none"
        source_label, target_label, role = data.draw(st.sampled_from(usable))
        source = data.draw(
            st.sampled_from([n for n in nodes if graph.node(n).label == source_label])
        )
        target = data.draw(
            st.sampled_from([n for n in nodes if graph.node(n).label == target_label])
        )
        ingest.add_edge(source, target, role)
        graph.add_edge(source, target, role)
    elif kind == "repeat_edge":  # a parallel edge: the same ordered pair again
        if not edges:
            return "none"
        edge = data.draw(st.sampled_from(edges))
        ingest.add_edge(edge.source, edge.target, edge.role)
        graph.add_edge(edge.source, edge.target, edge.role)
    elif kind == "update_node":
        if not nodes:
            return "none"
        node_id = data.draw(st.sampled_from(nodes))
        ingest.update_node(node_id, {"title": "rewritten"})
        graph.update_attributes(node_id, {"title": "rewritten"})
    elif kind == "remove_edge":
        if not edges:
            return "none"
        edge = data.draw(st.sampled_from(edges))
        ingest.remove_edge(edge.source, edge.target, edge.role)
        graph.remove_edge(edge.source, edge.target, edge.role)
    else:
        if not nodes:
            return "none"
        node_id = data.draw(st.sampled_from(nodes))
        ingest.remove_node(node_id)
        graph.remove_node(node_id)
    return kind


@settings(max_examples=60, deadline=None)
@given(tricky_graphs(), _RATES, st.data())
def test_every_refresh_holds_the_reference_arrays(start, rates, data):
    ingest = IngestEngine(start, rates, min_document_frequency=1)
    graph = start.copy()
    first = ingest.refresh(precompute=False)
    assert first.graph_path == "built"
    assert_matches_reference(first.data_graph, rates, first.graph)
    fresh = [0]
    for _ in range(data.draw(st.integers(1, 4))):
        kinds = {
            _mutate(data, ingest, graph, fresh)
            for _ in range(data.draw(st.integers(1, 5)))
        }
        result = ingest.refresh(precompute=False)
        if kinds <= {"none", "update_node"}:
            assert result.graph_path == "rebound"
        elif not kinds & {"remove_edge", "remove_node"}:
            assert result.graph_path == "extended"
        assert_matches_reference(result.data_graph, rates, result.graph)
        assert result.graph.node_ids == graph.node_ids()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), max_size=12),
    st.lists(st.integers(0, 8), max_size=12),
)
def test_a_merged_incidence_is_a_sorted_one(old, added):
    old, added = np.asarray(old, dtype=np.int64), np.asarray(added, dtype=np.int64)
    num_nodes = 9
    merged = extend_incidence(
        build_incidence(old, 6, old.size), added, old.size, num_nodes
    )
    endpoint = np.concatenate((old, added))
    for built, expected in zip(merged, build_incidence(endpoint, num_nodes, endpoint.size)):
        assert built.dtype == expected.dtype and np.array_equal(built, expected)


def test_extension_refuses_a_smaller_graph():
    rates = tricky_rates()
    graph = DataGraph()
    graph.add_node("a", "A")
    graph.add_node("b", "B")
    graph.add_edge("a", "b", "r1")
    built = AuthorityTransferDataGraph(graph, rates)
    smaller = graph.copy()
    smaller.remove_edge("a", "b", "r1")
    assert not smaller.extends(graph)
    with pytest.raises(GraphError, match="smaller"):
        built.extended(smaller, rates)


def test_extends_reads_labels_and_order_not_attributes():
    graph = DataGraph()
    for node_id, label in (("a", "A"), ("b", "B"), ("c", "C")):
        graph.add_node(node_id, label)
    graph.add_edge("a", "b", "r1")
    grown = graph.copy()
    grown.update_attributes("a", {"title": "new text"})
    grown.add_node("d", "A")
    grown.add_edge("a", "a", "self")
    assert grown.extends(graph) and graph.extends(graph)
    assert not graph.extends(grown)
    relabelled = graph.copy()
    relabelled.remove_node("c")
    relabelled.add_node("c", "A")  # same id, same place, another label
    assert relabelled.edges() == graph.edges()
    assert relabelled.node_ids() == graph.node_ids()
    assert not relabelled.extends(graph)
    reordered = graph.copy()
    reordered.remove_node("a")
    reordered.add_node("a", "A")  # the same nodes, in another order
    reordered.add_edge("a", "b", "r1")
    assert reordered.edges() == graph.edges()
    assert not reordered.extends(graph)
