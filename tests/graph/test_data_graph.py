"""Unit tests for labeled data graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import figure1_dataset
from repro.errors import DuplicateNodeError, UnknownNodeError
from repro.graph import DataGraph
from tests.graph.reference import reference_remove_node


@pytest.fixture
def small():
    graph = DataGraph()
    graph.add_node("p1", "Paper", {"title": "Index Selection for OLAP"})
    graph.add_node("p2", "Paper", {"title": "Data Cube"})
    graph.add_node("a1", "Author", {"name": "R. Agrawal"})
    graph.add_edge("p1", "p2", "cites")
    graph.add_edge("p1", "a1", "by")
    return graph


class TestNodes:
    def test_node_lookup(self, small):
        node = small.node("p1")
        assert node.label == "Paper"
        assert node.attributes["title"] == "Index Selection for OLAP"

    def test_unknown_node_raises(self, small):
        with pytest.raises(UnknownNodeError):
            small.node("nope")

    def test_duplicate_node_raises(self, small):
        with pytest.raises(DuplicateNodeError):
            small.add_node("p1", "Paper")

    def test_contains_and_len(self, small):
        assert "p1" in small
        assert "zz" not in small
        assert len(small) == 3

    def test_node_text_joins_attribute_values(self, small):
        assert small.node("p1").text() == "Index Selection for OLAP"

    def test_node_text_with_metadata_includes_names(self, small):
        assert "title" in small.node("p1").text(include_metadata=True)

    def test_nodes_with_label(self, small):
        assert [n.node_id for n in small.nodes_with_label("Paper")] == ["p1", "p2"]

    def test_label_counts(self, small):
        assert small.label_counts() == {"Paper": 2, "Author": 1}

    def test_attributes_are_copied_on_add(self):
        graph = DataGraph()
        attrs = {"title": "x"}
        graph.add_node("n", "Paper", attrs)
        attrs["title"] = "mutated"
        assert graph.node("n").attributes["title"] == "x"


class TestEdges:
    def test_edge_endpoints_must_exist(self, small):
        with pytest.raises(UnknownNodeError, match="nope"):
            small.add_edge("p1", "nope")
        with pytest.raises(UnknownNodeError, match="nope"):
            small.add_edge("nope", "p1")
        assert small.num_edges == 2

    def test_edges_share_the_nodes_id_strings(self, small):
        source, target = "".join(["p", "2"]), "".join(["a", "1"])
        assert source is not small.node("p2").node_id
        edge = small.add_edge(source, target, "by")
        assert edge.source is small.node("p2").node_id
        assert edge.target is small.node("a1").node_id
        assert small.out_edges("p2") == [edge] and small.in_edges("a1")[-1] == edge

    def test_degrees(self, small):
        assert small.out_degree("p1") == 2
        assert small.in_degree("p2") == 1
        assert small.in_degree("p1") == 0

    def test_out_in_edges(self, small):
        out = small.out_edges("p1")
        assert {(e.target, e.role) for e in out} == {("p2", "cites"), ("a1", "by")}
        incoming = small.in_edges("a1")
        assert [(e.source, e.role) for e in incoming] == [("p1", "by")]

    def test_degree_unknown_node_raises(self, small):
        with pytest.raises(UnknownNodeError):
            small.out_degree("zz")
        with pytest.raises(UnknownNodeError):
            small.in_degree("zz")

    def test_parallel_edges_allowed(self, small):
        small.add_edge("p1", "p2", "cites")
        assert small.num_edges == 3

    def test_self_loop_allowed(self, small):
        small.add_edge("p1", "p1", "cites")
        assert small.out_degree("p1") == 3
        assert small.in_degree("p1") == 1

    def test_counts(self, small):
        assert small.num_nodes == 3
        assert small.num_edges == 2


class TestTopologyVersion:
    """The topology token: replaced by every node/edge mutation, left alone
    by a content rewrite, shared by a copy until either side replaces it."""

    @pytest.mark.parametrize(
        ("mutate", "bumps"),
        [
            (lambda g: g.add_node("p3", "Paper"), True),
            (lambda g: g.add_edge("p2", "a1", "by"), True),
            (lambda g: g.remove_edge("p1", "p2"), True),
            (lambda g: g.remove_node("p2"), True),
            (lambda g: g.update_attributes("p1", {"title": "rewritten"}), False),
        ],
        ids=["add_node", "add_edge", "remove_edge", "remove_node", "update_attributes"],
    )
    def test_each_mutator(self, small, mutate, bumps):
        token, version = small.topology, small.version
        mutate(small)
        assert small.version == version + 1
        assert (small.topology is not token) is bumps

    def test_failed_mutation_bumps_nothing(self, small):
        token, version = small.topology, small.version
        with pytest.raises(UnknownNodeError):
            small.add_edge("p1", "zz")
        with pytest.raises(UnknownNodeError):
            small.remove_node("zz")
        assert (small.topology, small.version) == (token, version)

    def test_copy_preserves_it_and_then_diverges(self, small):
        clone = small.copy()
        assert clone.topology is small.topology
        clone.update_attributes("p1", {"title": "rewritten"})
        assert clone.topology is small.topology
        clone.add_node("p3", "Paper")
        assert clone.topology is not small.topology
        sibling = small.copy()
        sibling.add_node("p3", "Paper")
        assert sibling.topology is not clone.topology


def adjacency(graph: DataGraph) -> tuple:
    return (
        graph.node_ids(),
        graph.edges(),
        {node_id: graph.out_edges(node_id) for node_id in graph.node_ids()},
        {node_id: graph.in_edges(node_id) for node_id in graph.node_ids()},
        graph.version,
    )


@st.composite
def graphs_with_removals(draw):
    """A small multigraph (parallel edges, self-loops) and 3 nodes to remove."""
    size = draw(st.integers(3, 7))
    graph = DataGraph()
    for position in range(size):
        graph.add_node(f"n{position}", "Paper")
    node = st.integers(0, size - 1)
    for source, target in draw(st.lists(st.tuples(node, node), max_size=20)):
        graph.add_edge(f"n{source}", f"n{target}", draw(st.sampled_from(["cites", None])))
    removed = draw(st.permutations(graph.node_ids()))[:3]
    return graph, removed


class TestRemoveNodeAgainstReference:
    """Neighbour-local removal leaves what the whole-graph rewrite left."""

    def assert_same_sequence(self, graph, removed):
        reference = graph.copy()
        for node_id in removed:
            assert graph.remove_node(node_id).node_id == node_id
            reference_remove_node(reference, node_id)
            assert adjacency(graph) == adjacency(reference)

    def test_figure1(self):
        self.assert_same_sequence(figure1_dataset().data_graph, ["v7", "v6", "v1"])

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_removals())
    def test_random_multigraphs(self, case):
        self.assert_same_sequence(*case)
