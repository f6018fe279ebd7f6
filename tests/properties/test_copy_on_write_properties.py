"""Copy-on-write graph and index copies are observably independent.

``DataGraph.copy()`` and ``InvertedIndex.copy()`` share every per-node edge
list and per-term postings dict with the original until one side writes to
it.  The property: over random sequences of the five mutation kinds
interleaved with ``copy()``, every frozen copy still equals the deep state
taken when it was frozen, and the side that kept being mutated equals the
same mutations replayed on a deep copy that was never shared.  Either side
of a copy may be the one that goes on: writes through the clone must not
leak into the original any more than the reverse.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DataGraph
from repro.ir.index import InvertedIndex

from .strategies import _WORDS, dblp_graphs


def graph_state(graph: DataGraph) -> tuple:
    """Everything a graph holds, as plain values in iteration order."""
    return (
        [(n.node_id, n.label, tuple(n.attributes.items())) for n in graph.nodes()],
        graph.edges(),
        [(n, graph.out_edges(n), graph.in_edges(n)) for n in graph.node_ids()],
        graph.version,
    )


def index_state(index: InvertedIndex) -> tuple:
    """Everything an index holds, as plain values in iteration order."""
    return (
        [(term, list(postings.items())) for term, postings in index._postings.items()],
        [(doc_id, list(terms.items())) for doc_id, terms in index._doc_terms.items()],
        list(index._doc_length.items()),
        index._total_length,
    )


def mutate(data, graph: DataGraph, fresh: int) -> tuple:
    """Draw one of the five mutations applicable to ``graph``'s current state."""
    node_ids = graph.node_ids()
    kinds = ["add_node"]
    if node_ids:
        kinds += ["remove_node", "add_edge", "update"]
    if graph.num_edges:
        kinds.append("remove_edge")
    kind = data.draw(st.sampled_from(kinds))
    words = " ".join(data.draw(st.lists(st.sampled_from(_WORDS), max_size=4)))
    if kind == "add_node":
        return (kind, f"new:{fresh}", words)
    if kind == "add_edge":
        pick = st.sampled_from(node_ids)
        role = data.draw(st.sampled_from(["cites", None]))
        return (kind, data.draw(pick), data.draw(pick), role)
    if kind == "remove_edge":
        edge = data.draw(st.sampled_from(graph.edges()))
        return (kind, edge.source, edge.target, edge.role)
    return (kind, data.draw(st.sampled_from(node_ids)), words)


def apply(graph: DataGraph, index: InvertedIndex, mutation: tuple) -> None:
    """Apply ``mutation`` to a graph and its index the way ingest does."""
    kind, *args = mutation
    if kind == "add_node":
        node_id, words = args
        node = graph.add_node(node_id, "Paper", {"title": words})
        index.add_document(node_id, node.text())
    elif kind == "remove_node":
        graph.remove_node(args[0])
        index.remove_document(args[0])
    elif kind == "add_edge":
        graph.add_edge(*args)
    elif kind == "remove_edge":
        graph.remove_edge(*args)
    else:
        node_id, words = args
        node = graph.update_attributes(node_id, {"title": words})
        index.add_document(node_id, node.text())


@settings(max_examples=120, deadline=None)
@given(dblp_graphs(max_papers=5), st.data())
def test_copies_stay_independent_of_later_mutations(graph, data):
    reference = copy.deepcopy(graph)
    reference_index = InvertedIndex.from_graph(reference)
    work, index = graph, InvertedIndex.from_graph(graph)
    frozen: list[tuple] = []
    for step in range(data.draw(st.integers(1, 30))):
        if data.draw(st.integers(0, 3)) == 0:
            clone, clone_index = work.copy(), index.copy()
            if data.draw(st.booleans()):
                # The clone goes on; the original is what stays frozen.
                clone, work, clone_index, index = work, clone, index, clone_index
            frozen.append((clone, clone_index, graph_state(clone), index_state(clone_index)))
        else:
            mutation = mutate(data, work, step)
            apply(work, index, mutation)
            apply(reference, reference_index, mutation)
        for clone, clone_index, state, terms in frozen:
            assert graph_state(clone) == state
            assert index_state(clone_index) == terms
        assert graph_state(work) == graph_state(reference)
        assert index_state(index) == index_state(reference_index)
