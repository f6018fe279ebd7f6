"""Unit tests for the materialized authority transfer data graph (Eq. 1)."""

import contextlib
from unittest import mock

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
    transfer_graph,
)
from repro.ir.index import InvertedIndex
from repro.ranking import PrecomputedRanker, Tolerance, _native, rank, uniform_restarts
from repro.ranking.batch import batched_power_iteration
from tests.graph.reference import reference_matrix, tricky_rates
from tests.properties.test_explain_batch_properties import same_bits
from tests.ranking.reference import reference_power_iteration


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
        view = figure1_atdg.with_rates(dblp_transfer_schema([0.1] * 8))
        assert view.matrix() is not first
        assert figure1_atdg.matrix() is first


class TestRateSwap:
    def test_swap_requires_same_edge_types(self, figure1_atdg):
        other_schema = SchemaGraph()
        other_schema.add_label("X")
        other_schema.add_edge("X", "X", "loops")
        with pytest.raises(GraphError):
            figure1_atdg.with_rates(AuthorityTransferSchemaGraph(other_schema))


class TestReboundRefusesAnotherTopology:
    """Graphs over other nodes can count as many topology mutations; the
    topology token they do not share is what is compared."""

    def test_a_graph_rebuilt_under_other_ids(self, figure1_atdg):
        original = figure1_atdg.data_graph
        renamed = DataGraph()
        for node in original.nodes():
            renamed.add_node(node.node_id + "x", node.label, node.attributes)
        for edge in original.edges():
            renamed.add_edge(edge.source + "x", edge.target + "x", edge.role)
        assert (renamed.num_nodes, renamed.num_edges) == (
            original.num_nodes, original.num_edges
        )
        with pytest.raises(GraphError, match="different topology"):
            figure1_atdg.rebound(renamed, figure1_atdg.transfer_schema)

    def test_sibling_copies_that_appended_different_nodes(self, figure1_atdg):
        graph = figure1_atdg.rebound(
            figure1_atdg.data_graph.copy(), figure1_atdg.transfer_schema
        )
        ours, theirs = graph.data_graph, figure1_atdg.data_graph.copy()
        ours.add_node("ours", "Paper", {"title": "here"})
        theirs.add_node("theirs", "Paper", {"title": "elsewhere"})
        assert theirs.version == ours.version
        with pytest.raises(GraphError, match="different topology"):
            graph.rebound(theirs, graph.transfer_schema)

    def test_a_copy_holds_the_token_until_it_changes_topology(self, figure1_atdg):
        copy = figure1_atdg.data_graph.copy()
        copy.update_attributes("v7", {"title": "rewritten"})
        assert copy.topology is figure1_atdg.data_graph.topology
        assert figure1_atdg.rebound(copy, figure1_atdg.transfer_schema).data_graph is copy
        copy.add_edge("v7", "v4", "cites")
        assert copy.topology is not figure1_atdg.data_graph.topology


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


def _equal_rates(rates):
    """A schema equal to ``rates`` but not the same object."""
    equal = rates.with_vector(rates.as_vector())
    assert equal == rates and equal is not rates
    return equal


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
        view = figure1_atdg.with_rates(dblp_transfer_schema([0.1] * 8))
        rebuilt = view.positive_incidence()
        assert rebuilt is not first
        # The default rates zero the "cited" direction; 0.1 everywhere does not.
        assert len(rebuilt[0][1]) == view.num_edges > len(first[0][1])

    def test_view_never_shares_the_parents_incidence(self, figure1_atdg):
        parent = figure1_atdg.positive_incidence()
        view = figure1_atdg.with_rates(dblp_transfer_schema([0.1] * 8))
        assert view._per_rate._positive_incidence is None  # starts cold, not inherited
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
    """``indptr``, ``indices``, ``data`` (and their dtypes) ``==`` the oracle
    without its explicit zeros."""
    matrix, expected = graph.matrix(), reference_matrix(graph)
    expected.eliminate_zeros()
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
        full = transfer_graph.csr_pattern(graph.edge_source, graph._in_index, graph.num_nodes)
        assert len(full.parallel) >= 2  # a0 -> b0 is at least a triple edge
        assert_reference_matrix(graph)

        view = graph.with_rates(rates.with_vector(second))
        assert_reference_matrix(view)
        assert_reference_matrix(graph)  # untouched by the view

        copy = data_graph.copy()
        copy.update_attributes("a0", {"title": "rewritten"})
        rebound = graph.rebound(copy, rates.with_vector(third))
        assert rebound.data_graph is copy
        assert_reference_matrix(rebound)

        fresh = AuthorityTransferDataGraph(data_graph, rates.with_vector(third))
        assert_reference_matrix(fresh)
        assert fresh.matrix().data.tolist() == rebound.matrix().data.tolist()

        # One pattern per topology and zero-rate type set, by identity, and
        # its very memory under every matrix built from it.
        built = (graph, view, rebound)
        for one in built:
            for other in built:
                assert (one._per_rate.pattern() is other._per_rate.pattern()) == (
                    one._per_rate.zero_types == other._per_rate.zero_types
                )
            pattern = one._per_rate.pattern()
            if pattern.indices.size:  # all rates zero: nothing to share
                assert np.shares_memory(one.matrix().indices, pattern.indices)
            assert np.shares_memory(one.matrix().indptr, pattern.indptr)
        # ... and rates of its own: matrices under different rates never
        # alias each other's data (under equal rates a view may keep its
        # source's matrix outright).
        for other in (graph, rebound):
            if other.transfer_schema != view.transfer_schema:
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
        pattern = figure1_atdg._per_rate.pattern()
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


# -- zero-rate slots: left out, and no float moves -----------------------------

_WORDS = ("olap", "cube", "mining", "xml")


@st.composite
def zeroed_rates(draw):
    """Convergent rates over ``tricky_rates`` that zero one or more edge
    types, one of them a type of the triple edge ``a0 -> b0`` (every type
    from label A to label B is one); a positive rate may be subnormal, so
    that it underflows to 0 on an edge whose OutDeg is 2 or more."""
    rates = tricky_rates()
    a_to_b = [
        i for i, t in enumerate(rates.edge_types()) if (t.source, t.target) == ("A", "B")
    ]
    vector = draw(_RATE_VECTORS)
    subnormal = draw(st.sampled_from([None, 5e-324, 1e-323]))
    if subnormal is not None:
        vector[draw(st.integers(0, len(vector) - 1))] = subnormal
    vector[draw(st.sampled_from(a_to_b))] = 0.0
    # Theorem 1's premise: every label's outgoing rates sum to at most 1.
    return rates.with_vector(vector).scaled_to_convergent()


def _kernel_modes():
    """Rank through the compiled kernels (when this process has them), then
    with them forced off."""
    if _native.available():
        yield contextlib.nullcontext()
    yield mock.patch.object(_native, "_ensure", lambda: None)


def assert_same_run(mine, theirs) -> None:
    assert same_bits(mine.scores, theirs.scores)
    assert same_bits(mine.residuals, theirs.residuals)
    assert (mine.iterations, mine.converged) == (theirs.iterations, theirs.converged)


class TestZeroRateSlots:
    """The stored matrix leaves out every slot whose edges all carry rate 0;
    each ranking path over it equals the reference loop over the coordinate
    form, explicit zeros included, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        multigraphs(),
        zeroed_rates(),
        st.sampled_from([1e-4, 1e-9, 0.0]),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.data(),
    )
    def test_every_ranking_path_moves_no_bit(self, data_graph, rates, tolerance, seed, data):
        graph = AuthorityTransferDataGraph(data_graph, rates)
        assert graph._per_rate.zero_types
        matrix, sell = graph.matrix(), graph.sell_matrix()
        assert not (matrix.data == 0.0).any()
        padding = sell.layout.columns == graph.num_nodes
        assert ((sell.values == 0.0) == padding).all()
        full = reference_matrix(graph)  # with its explicit zeros

        init = None
        if seed is not None:
            init = np.random.default_rng(seed).random(graph.num_nodes)
            init[init < 0.3] = 0.0
        nodes = st.sampled_from(graph.node_ids)
        bases = [
            data.draw(st.lists(nodes, min_size=1, max_size=4, unique=True))
            for _ in range(33)
        ]

        texts = data.draw(
            st.lists(
                st.sets(st.sampled_from(_WORDS), min_size=1),
                min_size=graph.num_nodes,
                max_size=graph.num_nodes,
            )
        )
        index = InvertedIndex.from_documents(
            (node, " ".join(sorted(words))) for node, words in zip(graph.node_ids, texts)
        )

        def reference(restart, init=init):
            return reference_power_iteration(full, restart, 0.85, tolerance, 60, init)

        for mode in _kernel_modes():
            with mode:
                for k in (1, 2, 33):
                    restarts = uniform_restarts(graph, bases[:k])
                    ranked = rank(
                        graph, restarts, Tolerance(tolerance), max_iterations=60, init=init
                    )
                    if k == 1:  # the live path: SELL with the kernel, CSR without
                        (base,) = restarts.base_weights
                        assert_same_run(ranked[0], reference(graph.restart_vector(base)))
                        continue
                    # The blocked engine sums its residuals in another order
                    # than the serial loop: they match its own run over the
                    # coordinate form.
                    batch = batched_power_iteration(
                        full,
                        [(b.nodes, b.values_array) for b in restarts.base_weights],
                        0.85, tolerance, 60, init,
                    )
                    for j, result in enumerate(ranked):
                        theirs = reference(graph.restart_vector(restarts.base_weights[j]))
                        assert same_bits(result.scores, theirs.scores)
                        assert result.iterations == theirs.iterations
                        assert result.converged == theirs.converged
                        assert same_bits(result.residuals, batch.column(j).residuals)

                ranker = PrecomputedRanker(
                    graph, index, min_document_frequency=1, tolerance=tolerance,
                    max_iterations=60,
                )
                iterations = 0
                for keyword in ranker.keywords:
                    restart = uniform_restarts(graph, [index.documents_with_term(keyword)])
                    theirs = reference(graph.restart_vector(*restart.base_weights), None)
                    assert same_bits(ranker.vector(keyword), theirs.scores)
                    iterations += theirs.iterations
                assert ranker.keywords and ranker.build_iterations == iterations

    def test_an_infinite_init_is_where_the_operators_part(self, figure1_atdg):
        """``0.0 * inf`` is NaN: a stored zero turns an infinite score into a
        NaN in the row that reads it, a left-out one does not.  No iterate
        holds an inf while every label's outgoing rates sum to at most 1."""
        graph = figure1_atdg
        full = reference_matrix(graph).tocoo()
        stored = graph.matrix()
        zero = np.flatnonzero(full.data == 0.0)[0]
        row, column = full.row[zero], full.col[zero]
        assert column not in stored.indices[stored.indptr[row] : stored.indptr[row + 1]]
        init = np.ones(graph.num_nodes)
        init[column] = np.inf
        restarts = uniform_restarts(graph, [["v1"]])
        theirs = reference_power_iteration(
            full.tocsr(), graph.restart_vector(*restarts.base_weights),
            max_iterations=1, init=init,
        )
        assert np.isnan(theirs.scores[row])
        for mode in _kernel_modes():
            with mode:
                (mine,) = rank(graph, restarts, Tolerance(), max_iterations=1, init=init)
            assert not np.isnan(mine.scores[row])
            assert_same_run(
                mine,
                reference_power_iteration(
                    stored, graph.restart_vector(*restarts.base_weights),
                    max_iterations=1, init=init,
                ),
            )


def _learned(rates, scale):
    """``rates`` scaled by ``scale``: new rates, zero on the same types."""
    return rates.with_vector([scale * rate for rate in rates.as_vector()])


def _counting(monkeypatch, name):
    """Every value ``transfer_graph.<name>`` builds from now on, in order."""
    built = []
    build = getattr(transfer_graph, name)

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(transfer_graph, name, counting)
    return built


@pytest.fixture
def patterns(monkeypatch):
    return _counting(monkeypatch, "csr_pattern")


@pytest.fixture
def layouts(monkeypatch):
    return _counting(monkeypatch, "sell_layout")


class TestReboundUnderUnchangedRates:
    """A content-only ingest refresh: same topology, same rates, new text."""

    def test_keeps_rates_matrix_and_incidence_outright(self, figure1_atdg):
        graph = figure1_atdg
        matrix, incidence = graph.matrix(), graph.positive_incidence()
        copy = graph.data_graph.copy()
        copy.update_attributes("v7", {"title": "rewritten"})
        same_rates = _equal_rates(graph.transfer_schema)
        view = graph.rebound(copy, same_rates)
        assert view.data_graph is copy
        assert view.transfer_schema is same_rates  # bound to what was asked
        assert view.edge_rate is graph.edge_rate
        assert view.matrix() is matrix
        assert view.positive_incidence() is incidence

    def test_cold_source_leaves_the_view_to_build_its_own(
        self, figure1_atdg, patterns, layouts
    ):
        view = figure1_atdg.rebound(figure1_atdg.data_graph, figure1_atdg.transfer_schema)
        assert figure1_atdg._per_rate._matrix is None and view._per_rate._matrix is None
        assert_reference_matrix(view)
        # ... one pattern and one layout, which the source then finds built.
        assert figure1_atdg.sell_matrix() is view.sell_matrix()
        assert figure1_atdg.matrix() is view.matrix()
        assert len(patterns) == len(layouts) == 1


class TestSellLayout:
    """The interleaved copy live runs iterate: one pattern and one layout per
    topology and zero-rate type set, values per rate setting, built only
    when asked for."""

    def test_one_pattern_and_layout_per_zero_rate_type_set(
        self, figure1_atdg, patterns, layouts
    ):
        graph = figure1_atdg
        assert graph._per_rate.zero_types  # Figure 3 zeroes the "cited" direction
        view = graph.with_rates(_learned(graph.transfer_schema, 0.5))  # before the build
        layout = graph.sell_matrix().layout
        copy = graph.data_graph.copy()
        copy.update_attributes("v7", {"title": "rewritten"})
        rebound = graph.rebound(copy, _learned(graph.transfer_schema, 0.8))
        for other in (view, rebound):
            assert other._per_rate.zero_types == graph._per_rate.zero_types
            assert other.sell_matrix().layout is layout
        assert layouts == [layout]
        assert len(patterns) == 1
        # Making the zero type positive costs exactly one more of each, which
        # every view without zero rates then shares.
        positive = graph.with_rates(dblp_transfer_schema([0.1] * 8))
        assert positive._per_rate.zero_types == ()
        second = positive.sell_matrix().layout
        assert second is not layout
        assert graph.with_rates(dblp_transfer_schema([0.3] * 8)).sell_matrix().layout is second
        assert layouts == [layout, second]
        assert len(patterns) == 2
        assert positive.matrix().nnz > graph.matrix().nnz

    def test_a_matrix_alone_builds_no_layout(self, figure1_atdg, patterns, layouts):
        figure1_atdg.matrix()
        assert len(patterns) == 1 and layouts == []

    def test_layout_holds_every_entry_once_in_row_order(self, figure1_atdg):
        matrix, sell = figure1_atdg.matrix(), figure1_atdg.sell_matrix()
        layout, n = sell.layout, matrix.shape[0]
        padding = layout.columns == n
        assert (layout.slots[padding] == matrix.nnz).all()
        assert (sell.values[padding] == 0.0).all()
        assert sorted(layout.slots[~padding].tolist()) == list(range(matrix.nnz))
        lanes = transfer_graph.SELL_LANES
        for rank, row in enumerate(layout.rows):
            group, lane = divmod(rank, lanes)
            start, end = layout.offsets[group], layout.offsets[group + 1]
            slots = layout.slots[start + lane : end : lanes]
            csr = np.arange(matrix.indptr[row], matrix.indptr[row + 1])
            assert slots.tolist() == csr.tolist() + [matrix.nnz] * (len(slots) - len(csr))
            assert sell.values[start + lane : end : lanes][: len(csr)].tolist() == (
                matrix.data[csr].tolist()
            )

    def test_new_rates_drop_the_values_and_keep_the_layout(self, figure1_atdg):
        graph = figure1_atdg
        before = graph.sell_matrix()
        assert graph.sell_matrix() is before
        after = graph.with_rates(_learned(graph.transfer_schema, 0.5)).sell_matrix()
        assert after is not before and after.layout is before.layout
        assert after.values.tolist() != before.values.tolist()
        assert graph.sell_matrix() is before

    def test_rebound_under_equal_rates_keeps_the_values(self, figure1_atdg):
        graph = figure1_atdg
        sell = graph.sell_matrix()
        copy = graph.data_graph.copy()
        copy.update_attributes("v7", {"title": "rewritten"})
        assert graph.rebound(copy, _equal_rates(graph.transfer_schema)).sell_matrix() is sell
