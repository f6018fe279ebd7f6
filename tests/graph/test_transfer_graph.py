"""Unit tests for the materialized authority transfer data graph (Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema, load_dataset
from repro.datasets.figure1 import figure1_dataset
from repro.errors import GraphError, UnknownNodeError
from repro.graph import (
    AuthorityTransferDataGraph,
    AuthorityTransferSchemaGraph,
    DataGraph,
    SchemaGraph,
)
from tests.graph.reference import reference_matrix, tricky_rates


@pytest.fixture
def figure1_atdg():
    dataset = figure1_dataset()
    return AuthorityTransferDataGraph(dataset.data_graph, dataset.transfer_schema)


class TestMaterialization:
    def test_two_transfer_edges_per_data_edge(self, figure1_atdg):
        assert figure1_atdg.num_edges == 2 * figure1_atdg.data_graph.num_edges

    def test_node_index_round_trip(self, figure1_atdg):
        for node_id in figure1_atdg.node_ids:
            assert figure1_atdg.node_id_of(figure1_atdg.index_of(node_id)) == node_id

    def test_unknown_node_raises(self, figure1_atdg):
        with pytest.raises(UnknownNodeError):
            figure1_atdg.index_of("nope")

    def test_label_of(self, figure1_atdg):
        assert figure1_atdg.label_of(figure1_atdg.index_of("v6")) == "Author"

    def test_outdegree_split_figure5(self, figure1_atdg):
        """Figure 5: v5 cites two papers, so each cites edge carries 0.7/2."""
        v5 = figure1_atdg.index_of("v5")
        cites_rates = [
            figure1_atdg.edge_rate[e]
            for e in figure1_atdg.out_edge_ids(v5)
            if figure1_atdg.edge_type_of(int(e)).role == "cites"
            and figure1_atdg.edge_type_of(int(e)).direction.value == "forward"
        ]
        assert cites_rates == pytest.approx([0.35, 0.35])

    def test_backward_rate_uses_target_outdegree(self, figure1_atdg):
        """v6 (R. Agrawal) has two papers, so each AP edge carries 0.2/2."""
        v6 = figure1_atdg.index_of("v6")
        ap_rates = [
            figure1_atdg.edge_rate[e]
            for e in figure1_atdg.out_edge_ids(v6)
        ]
        assert sorted(ap_rates) == pytest.approx([0.1, 0.1])

    def test_zero_rate_edge_types(self, figure1_atdg):
        """The cited (cites-backward) direction carries rate 0 in Figure 3."""
        backward_cites = [
            figure1_atdg.edge_rate[i]
            for i in range(figure1_atdg.num_edges)
            if figure1_atdg.edge_type_of(i).role == "cites"
            and figure1_atdg.edge_type_of(i).direction.value == "backward"
        ]
        assert backward_cites and all(r == 0.0 for r in backward_cites)


class TestMatrix:
    def test_matrix_orientation(self, figure1_atdg):
        """A[j, i] must be the total rate of edges i -> j."""
        matrix = figure1_atdg.matrix().toarray()
        v4 = figure1_atdg.index_of("v4")
        v6 = figure1_atdg.index_of("v6")
        # v4 -> v6 is the only by-edge of v4, so rate 0.2.
        assert matrix[v6, v4] == pytest.approx(0.2)

    def test_column_sums_bounded_by_schema(self, figure1_atdg):
        """Each node's outgoing rate sum is at most its label's schema sum."""
        matrix = figure1_atdg.matrix()
        column_sums = np.asarray(matrix.sum(axis=0)).ravel()
        assert (column_sums <= 1.0 + 1e-9).all()

    def test_matrix_cached_and_invalidated(self, figure1_atdg):
        first = figure1_atdg.matrix()
        assert figure1_atdg.matrix() is first
        figure1_atdg.set_transfer_rates(dblp_transfer_schema())
        assert figure1_atdg.matrix() is not first


class TestRateSwap:
    def test_set_transfer_rates_recomputes(self, figure1_atdg):
        new_rates = dblp_transfer_schema([0.1] * 8)
        figure1_atdg.set_transfer_rates(new_rates)
        v4 = figure1_atdg.index_of("v4")
        v6 = figure1_atdg.index_of("v6")
        assert figure1_atdg.matrix().toarray()[v6, v4] == pytest.approx(0.1)
        # restore for other tests using the fixture instance
        figure1_atdg.set_transfer_rates(dblp_transfer_schema())

    def test_swap_requires_same_edge_types(self, figure1_atdg):
        other_schema = SchemaGraph()
        other_schema.add_label("X")
        other_schema.add_edge("X", "X", "loops")
        with pytest.raises(GraphError):
            figure1_atdg.set_transfer_rates(AuthorityTransferSchemaGraph(other_schema))


class TestIncidence:
    def test_out_in_edge_ids_partition_edges(self, figure1_atdg):
        total_out = sum(
            len(figure1_atdg.out_edge_ids(i)) for i in range(figure1_atdg.num_nodes)
        )
        total_in = sum(
            len(figure1_atdg.in_edge_ids(i)) for i in range(figure1_atdg.num_nodes)
        )
        assert total_out == figure1_atdg.num_edges
        assert total_in == figure1_atdg.num_edges

    def test_incidence_consistency(self, figure1_atdg):
        for node in range(figure1_atdg.num_nodes):
            for edge_id in figure1_atdg.out_edge_ids(node):
                assert figure1_atdg.edge_source[edge_id] == node
            for edge_id in figure1_atdg.in_edge_ids(node):
                assert figure1_atdg.edge_target[edge_id] == node


class TestEdgeCases:
    def test_empty_graph(self):
        schema = SchemaGraph()
        schema.add_label("A")
        atdg = AuthorityTransferDataGraph(
            DataGraph(), AuthorityTransferSchemaGraph(schema)
        )
        assert atdg.num_nodes == 0
        assert atdg.num_edges == 0
        assert atdg.matrix().shape == (0, 0)

    def test_nodes_without_edges(self):
        schema = SchemaGraph()
        schema.add_label("A")
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "A")
        atdg = AuthorityTransferDataGraph(graph, AuthorityTransferSchemaGraph(schema))
        assert atdg.num_nodes == 2
        assert len(atdg.out_edge_ids(0)) == 0

    def test_validation_rejects_nonconforming(self):
        schema = SchemaGraph()
        schema.add_label("A")
        graph = DataGraph()
        graph.add_node("x", "B")
        with pytest.raises(Exception):
            AuthorityTransferDataGraph(graph, AuthorityTransferSchemaGraph(schema))


def _positive_rows(graph, incidence):
    """Per node: the positive-rate edge ids an incidence lists for it."""
    indptr, edge_ids = incidence
    return [edge_ids[indptr[i] : indptr[i + 1]].tolist() for i in range(graph.num_nodes)]


class TestPositiveIncidence:
    def test_lists_exactly_the_positive_rate_edges_in_edge_order(self, figure1_atdg):
        graph = figure1_atdg
        incoming, outgoing = graph.positive_incidence()
        for node in range(graph.num_nodes):
            assert _positive_rows(graph, incoming)[node] == [
                int(e) for e in graph.in_edge_ids(node) if graph.edge_rate[e] > 0.0
            ]
            assert _positive_rows(graph, outgoing)[node] == [
                int(e) for e in graph.out_edge_ids(node) if graph.edge_rate[e] > 0.0
            ]

    def test_cached_until_the_rates_change(self, figure1_atdg):
        first = figure1_atdg.positive_incidence()
        assert figure1_atdg.positive_incidence() is first
        figure1_atdg.set_transfer_rates(dblp_transfer_schema([0.1] * 8))
        rebuilt = figure1_atdg.positive_incidence()
        assert rebuilt is not first
        # The default rates zero the "cited" direction; 0.1 everywhere does not.
        assert len(rebuilt[0][1]) == figure1_atdg.num_edges > len(first[0][1])

    def test_view_never_shares_the_parents_incidence(self, figure1_atdg):
        parent = figure1_atdg.positive_incidence()
        view = figure1_atdg.with_rates(dblp_transfer_schema([0.1] * 8))
        assert view._positive_incidence is None  # starts cold, not inherited
        assert len(view.positive_incidence()[0][1]) == view.num_edges
        assert figure1_atdg.positive_incidence() is parent


class TestDerived:
    def test_built_once_per_key_and_shared_with_views(self, figure1_atdg):
        builds = []

        def build():
            builds.append("built")
            return object()

        first = figure1_atdg.derived("k", build)
        view = figure1_atdg.with_rates(dblp_transfer_schema([0.1] * 8))
        assert view.derived("k", build) is first
        assert figure1_atdg.derived("other", build) is not first
        assert len(builds) == 2

    def test_data_graph_mutation_is_a_miss(self, figure1_atdg):
        first = figure1_atdg.derived("k", object)
        figure1_atdg.data_graph.update_attributes("v6", {"name": "R. Agrawal"})
        assert figure1_atdg.derived("k", object) is not first

    def test_graph_with_a_warm_cache_still_pickles(self, figure1_atdg):
        import pickle

        figure1_atdg.derived("k", object)
        clone = pickle.loads(pickle.dumps(figure1_atdg))
        assert np.array_equal(clone.edge_rate, figure1_atdg.edge_rate)
        assert clone.derived("k", lambda: "rebuilt") == "rebuilt"


# -- the transition matrix against the coordinate-form construction ------------

#: Data edges every drawn graph holds.  Over ``tricky_rates`` the first three
#: put three parallel transfer edges of three *different* types on ``a0 -> b0``
#: (r1 forward, r2 forward, back backward) and three on ``b0 -> a0``, so the
#: order their rates are added in shows in the floats; the last two are a
#: mutual citation.
_ALWAYS = (
    ("a0", "b0", "r1"),
    ("a0", "b0", "r2"),
    ("b0", "a0", "back"),
    ("a0", "a1", "self"),
    ("a1", "a0", "self"),
)
_ROLES = {("a", "b"): ("r1", "r2"), ("a", "a"): ("self",), ("b", "a"): ("back",)}

#: Zero-rate edge types are drawn as often as positive ones.
_RATE = st.one_of(st.just(0.0), st.floats(0.01, 0.9, allow_nan=False))
_RATE_VECTORS = st.lists(_RATE, min_size=8, max_size=8)


@st.composite
def multigraphs(draw):
    """Small conforming multigraphs, dense enough that rows exceed the sixteen
    entries below which ``std::sort`` (behind scipy's ``sort_indices``) is an
    insertion sort and therefore stable."""
    nodes = ["a0", "a1", "b0"]
    nodes += [f"a{i}" for i in range(2, 2 + draw(st.integers(0, 2)))]
    nodes += [f"b{i}" for i in range(1, 1 + draw(st.integers(0, 2)))]
    isolated = [f"c{i}" for i in range(draw(st.integers(1, 2)))]
    extras = []
    for _ in range(draw(st.integers(0, 48))):
        source, target = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        roles = _ROLES.get((source[0], target[0]))
        if roles:
            extras.append((source, target, draw(st.sampled_from(roles))))
    graph = DataGraph()
    for node in draw(st.permutations(nodes + isolated)):
        graph.add_node(node, node[0].upper())
    for source, target, role in draw(st.permutations(list(_ALWAYS) + extras)):
        graph.add_edge(source, target, role)
    return graph


def assert_reference_matrix(graph) -> None:
    """``indptr``, ``indices``, ``data`` (and their dtypes) ``==`` the oracle."""
    matrix, expected = graph.matrix(), reference_matrix(graph)
    assert matrix.shape == expected.shape
    assert matrix.has_canonical_format
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(matrix, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tolist() == theirs.tolist(), name


class TestMatrixAgainstCoordinateForm:
    @settings(max_examples=80, deadline=None)
    @given(multigraphs(), _RATE_VECTORS, _RATE_VECTORS, _RATE_VECTORS)
    def test_every_way_to_a_matrix(self, data_graph, first, second, third):
        rates = tricky_rates()
        graph = AuthorityTransferDataGraph(data_graph, rates.with_vector(first))
        pattern = graph._csr_pattern
        assert len(pattern.parallel) >= 2  # a0 -> b0 is at least a triple edge
        assert_reference_matrix(graph)

        view = graph.with_rates(rates.with_vector(second))
        assert_reference_matrix(view)
        assert_reference_matrix(graph)  # untouched by the view

        copy = data_graph.copy()
        copy.update_attributes("a0", {"title": "rewritten"})
        rebound = graph.rebound(copy, rates.with_vector(third))
        assert rebound.data_graph is copy
        assert_reference_matrix(rebound)

        graph.set_transfer_rates(rates.with_vector(third))
        assert_reference_matrix(graph)
        assert graph.matrix().data.tolist() == rebound.matrix().data.tolist()

        # One pattern per topology, by identity, and its very memory under
        # every matrix built from it.
        for other in (view, rebound):
            assert other._csr_pattern is pattern
        for built in (graph, view, rebound):
            assert np.shares_memory(built.matrix().indices, pattern.indices)
            assert np.shares_memory(built.matrix().indptr, pattern.indptr)
        # ... and rates of its own: matrices under different rates never
        # alias each other's data (under equal rates a view may keep its
        # source's matrix outright).
        if second != third:
            for other in (graph, rebound):
                assert not np.shares_memory(view.matrix().data, other.matrix().data)

    @pytest.mark.parametrize("name", ["dblp_tiny", "bio_tiny"])
    def test_generated_datasets_under_learned_rates(self, name):
        dataset = load_dataset(name)
        graph = AuthorityTransferDataGraph(dataset.data_graph, dataset.transfer_schema)
        count = len(graph.edge_types)
        learned = dataset.transfer_schema.with_vector(
            [0.0 if i % 3 == 0 else 0.07 * (i + 1) for i in range(count)]
        )
        assert_reference_matrix(graph)
        assert_reference_matrix(graph.with_rates(learned))

    def test_pattern_is_read_only(self, figure1_atdg):
        pattern = figure1_atdg._csr_pattern
        arrays = [pattern.slot_edge, pattern.indices, pattern.indptr]
        arrays += [array for pair in pattern.parallel for array in pair]
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            figure1_atdg.matrix().indices[0] = 0

    def test_edgeless_graph(self):
        schema = SchemaGraph()
        schema.add_label("A")
        graph = DataGraph()
        graph.add_node("a", "A")
        graph.add_node("b", "A")
        atdg = AuthorityTransferDataGraph(graph, AuthorityTransferSchemaGraph(schema))
        assert_reference_matrix(atdg)
        assert atdg.matrix().nnz == 0


class TestReboundUnderUnchangedRates:
    """A content-only ingest refresh: same topology, same rates, new text."""

    def test_keeps_rates_matrix_and_incidence_outright(self, figure1_atdg):
        graph = figure1_atdg
        matrix, incidence = graph.matrix(), graph.positive_incidence()
        copy = graph.data_graph.copy()
        copy.update_attributes("v7", {"title": "rewritten"})
        same_rates = graph.transfer_schema.copy()  # equal, not identical
        view = graph.rebound(copy, same_rates)
        assert view.data_graph is copy
        assert view.transfer_schema is same_rates  # bound to what was asked
        assert view.edge_rate is graph.edge_rate
        assert view.matrix() is matrix
        assert view.positive_incidence() is incidence

    def test_a_later_rate_change_on_either_side_stays_private(self, figure1_atdg):
        graph = figure1_atdg
        before = graph.matrix().data.tolist()
        view = graph.rebound(graph.data_graph, graph.transfer_schema)
        view.set_transfer_rates(dblp_transfer_schema([0.1] * 8))
        assert view.matrix() is not graph.matrix()
        assert graph.matrix().data.tolist() == before
        assert_reference_matrix(view)
        assert_reference_matrix(graph)

    def test_cold_source_leaves_the_view_to_build_its_own(self, figure1_atdg):
        view = figure1_atdg.rebound(figure1_atdg.data_graph, figure1_atdg.transfer_schema)
        assert figure1_atdg._matrix is None and view._matrix is None
        assert_reference_matrix(view)
