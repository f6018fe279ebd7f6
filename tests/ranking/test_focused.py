"""Unit tests for query-focused subgraph execution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.errors import EmptyBaseSetError
from repro.graph import AuthorityTransferDataGraph
from repro.query import KeywordQuery, QueryVector
from repro.query.engine import select_top
from repro.ranking import Tolerance, TopKStable, objectrank2, rank, weighted_restarts
from repro.ranking.focused import RowOperator, focused_neighborhood

from tests.properties.strategies import dblp_graphs, rate_vectors
from tests.ranking.reference import focused_objectrank2, reference_induced_objectrank


class TestNeighborhood:
    def test_horizon_zero_is_seeds(self, figure1_graph):
        seeds = [figure1_graph.index_of("v1")]
        assert list(focused_neighborhood(figure1_graph, seeds, 0)) == seeds

    def test_expansion_is_monotone(self, figure1_graph):
        seeds = [figure1_graph.index_of("v1")]
        previous: set[int] = set()
        for horizon in range(4):
            nodes = set(focused_neighborhood(figure1_graph, seeds, horizon))
            assert previous <= nodes
            previous = nodes

    def test_covers_whole_component_at_large_horizon(self, figure1_graph):
        seeds = [figure1_graph.index_of("v1")]
        nodes = focused_neighborhood(figure1_graph, seeds, 10)
        # everything is connected through positive-rate edges except none
        assert len(nodes) == figure1_graph.num_nodes

    def test_expand_cap_includes_but_does_not_expand_hubs(self, figure1_graph):
        seeds = [figure1_graph.index_of("v1")]
        uncapped = set(focused_neighborhood(figure1_graph, seeds, 10))
        capped = set(
            focused_neighborhood(figure1_graph, seeds, 10, expand_cap=1)
        )
        # Capped expansion is a subset; a cap at the maximum degree is a
        # no-op because every frontier node may still expand.
        assert capped <= uncapped
        max_degree = int(figure1_graph.node_degrees().max())
        assert set(
            focused_neighborhood(figure1_graph, seeds, 10, expand_cap=max_degree)
        ) == uncapped
        # Even the tightest cap keeps the seeds themselves.
        assert set(seeds) <= capped
        # A cap at the seed's own degree lets hop 1 run in full: hub
        # neighbors are *included*, the cap only stops expanding through them.
        seed_degree = int(figure1_graph.node_degrees()[seeds[0]])
        hop1 = set(focused_neighborhood(figure1_graph, seeds, 1))
        assert hop1 <= set(
            focused_neighborhood(figure1_graph, seeds, 10, expand_cap=seed_degree)
        )

    def test_node_budget_deepens_until_budget_or_max_horizon(self, figure1_graph):
        seeds = [figure1_graph.index_of("v1")]
        # A budget the graph never reaches: deepening runs to max_horizon.
        deep = focused_neighborhood(
            figure1_graph, seeds, 1, node_budget=10_000, max_horizon=10
        )
        assert list(deep) == list(focused_neighborhood(figure1_graph, seeds, 10))
        # A budget already met by the seeds: only the guaranteed hops run.
        shallow = focused_neighborhood(
            figure1_graph, seeds, 1, node_budget=1, max_horizon=10
        )
        assert list(shallow) == list(focused_neighborhood(figure1_graph, seeds, 1))

    def test_node_budget_without_max_horizon_is_fixed_horizon(self, figure1_graph):
        seeds = [figure1_graph.index_of("v1")]
        fixed = focused_neighborhood(figure1_graph, seeds, 2)
        assert list(
            focused_neighborhood(figure1_graph, seeds, 2, node_budget=10_000)
        ) == list(fixed)
        assert list(
            focused_neighborhood(figure1_graph, seeds, 2, max_horizon=10)
        ) == list(fixed)


class TestFocusedObjectRank2:
    def test_large_horizon_matches_exact(self, figure1_graph, figure1_scorer):
        vector = KeywordQuery(["olap"]).vector()
        exact = objectrank2(figure1_graph, figure1_scorer, vector, tolerance=1e-10)
        focused = focused_objectrank2(
            figure1_graph, figure1_scorer, vector, horizon=10, tolerance=1e-10
        )
        assert focused.ranked.scores == pytest.approx(exact.scores, abs=1e-8)
        assert focused.coverage == 1.0

    def test_small_horizon_zeroes_outside(self, figure1_graph, figure1_scorer):
        vector = KeywordQuery(["multidimensional"]).vector()  # base = v5 only
        focused = focused_objectrank2(
            figure1_graph, figure1_scorer, vector, horizon=1
        )
        inside = set(
            focused_neighborhood(
                figure1_graph, [figure1_graph.index_of("v5")], 1
            )
        )
        for index in range(figure1_graph.num_nodes):
            if index not in inside:
                assert focused.ranked.scores[index] == 0.0

    def test_top_result_stable_at_moderate_horizon(
        self, figure1_graph, figure1_scorer
    ):
        vector = KeywordQuery(["olap"]).vector()
        exact = objectrank2(figure1_graph, figure1_scorer, vector, tolerance=1e-10)
        focused = focused_objectrank2(
            figure1_graph, figure1_scorer, vector, horizon=2, tolerance=1e-10
        )
        assert focused.ranked.top_k(1)[0][0] == exact.top_k(1)[0][0]

    def test_subgraph_accounting(self, figure1_graph, figure1_scorer):
        focused = focused_objectrank2(
            figure1_graph, figure1_scorer, KeywordQuery(["olap"]).vector(), horizon=1
        )
        assert 0 < focused.subgraph_nodes <= figure1_graph.num_nodes
        assert focused.subgraph_edges > 0
        assert 0 < focused.coverage <= 1.0

    def test_empty_base_set_raises(self, figure1_graph, figure1_scorer):
        with pytest.raises(EmptyBaseSetError):
            focused_objectrank2(
                figure1_graph, figure1_scorer, QueryVector({"zzz": 1.0})
            )

    def test_negative_horizon_rejected(self, figure1_graph, figure1_scorer):
        with pytest.raises(ValueError):
            focused_objectrank2(
                figure1_graph, figure1_scorer, KeywordQuery(["olap"]).vector(),
                horizon=-1,
            )

    def test_quality_on_synthetic_dblp(self, dblp_tiny, dblp_tiny_engine):
        """Focused execution approximates the exact top-10 well at L=3."""
        vector = KeywordQuery(["olap"]).vector()
        engine = dblp_tiny_engine
        exact = objectrank2(engine.graph, engine.scorer, vector)
        focused = focused_objectrank2(engine.graph, engine.scorer, vector, horizon=3)
        exact_top = {nid for nid, _ in exact.top_k(10)}
        focused_top = {nid for nid, _ in focused.ranked.top_k(10)}
        assert len(exact_top & focused_top) >= 7

    def test_result_exposes_its_neighbourhood_for_the_page(
        self, dblp_tiny, dblp_tiny_engine
    ):
        """Scores are exactly 0.0 outside ``neighborhood``, so a caller cuts
        the page inside it and gets the full-vector page."""
        engine = dblp_tiny_engine
        focused = focused_objectrank2(
            engine.graph, engine.scorer, KeywordQuery(["olap"]).vector(), horizon=1
        )
        outside = np.ones(engine.graph.num_nodes, dtype=bool)
        outside[focused.neighborhood] = False
        assert focused.subgraph_nodes == focused.neighborhood.size
        assert not focused.ranked.scores[outside].any()
        for k in (1, 10, focused.subgraph_nodes + 5):
            assert select_top(
                dblp_tiny.data_graph, focused.ranked, k, None,
                support=focused.neighborhood,
            ) == focused.ranked.top_k(k)


# -- the row operator == the induced submatrix it stands in for ---------------------


@st.composite
def multigraph_run(draw):
    """A transfer multigraph, a node subset and a restart over it.

    On top of :func:`dblp_graphs` (duplicate citations, authors nobody wrote
    with) every graph gets a mutual citation — parallel transfer edges of
    *different* types between one ordered pair — a doubled one, and an
    isolated node; the rate vector may zero whole edge types; and the year
    node, adjacent to every paper, is a hub above the drawn ``expand_cap``.
    """
    data_graph = draw(dblp_graphs(min_papers=3))
    data_graph.add_edge("paper:0", "paper:1", "cites")
    data_graph.add_edge("paper:0", "paper:1", "cites")
    data_graph.add_edge("paper:1", "paper:0", "cites")
    data_graph.add_node("author:nobody", "Author", {"name": "nobody"})
    rates = dblp_transfer_schema(vector=draw(rate_vectors())).scaled_to_convergent()
    graph = AuthorityTransferDataGraph(data_graph, rates)
    every = np.arange(graph.num_nodes)
    shape = draw(st.sampled_from(("whole", "one", "subset", "hop", "capped")))
    if shape == "whole":
        nodes = every
    elif shape == "one":
        nodes = every[draw(st.integers(0, graph.num_nodes - 1))][None]
    elif shape == "subset":
        nodes = every[draw(st.lists(st.booleans(), min_size=every.size, max_size=every.size))]
        if nodes.size == 0:
            nodes = every[:1]
    else:
        seed = draw(st.integers(0, graph.num_nodes - 1))
        nodes = focused_neighborhood(
            graph, [seed], draw(st.integers(0, 3)),
            expand_cap=2 if shape == "capped" else None,
        )
    seeds = draw(
        st.lists(st.sampled_from(nodes.tolist()), min_size=1, max_size=4, unique=True)
    )
    weights = [draw(st.floats(0.01, 1.0, allow_nan=False)) for _ in seeds]
    base = {graph.node_ids[i]: w / sum(weights) for i, w in zip(seeds, weights)}
    return graph, nodes, base


@given(multigraph_run(), st.sampled_from((None, 1, 3, 10)))
@settings(max_examples=120, deadline=None)
def test_row_operator_run_equals_reference_induced_matrix_run(case, early_k):
    graph, nodes, base = case
    stop = Tolerance() if early_k is None else TopKStable(early_k)
    restarts = weighted_restarts(graph, [graph.base_set(base)])
    (ranked,) = rank(graph, restarts, stop, support=nodes)
    edge_count = RowOperator(graph.matrix(), nodes).edge_count()
    outcome, reference_edge_count = reference_induced_objectrank(
        graph, nodes, base, early_k=early_k
    )
    assert np.array_equal(ranked.scores[nodes], outcome.scores)
    assert np.count_nonzero(ranked.scores) == np.count_nonzero(outcome.scores)
    assert ranked.iterations == outcome.iterations
    assert ranked.converged == outcome.converged
    assert ranked.residuals == outcome.residuals
    assert edge_count == reference_edge_count


def test_row_operator_is_scipys_own_row_slice(dblp_tiny_engine):
    """The private ``_sparsetools`` kernels against the public API they sit
    under: ``matrix[nodes]`` is the gather, ``@`` the mat-vec."""
    graph = dblp_tiny_engine.graph
    nodes = focused_neighborhood(graph, [0, 7], 2)
    operator = RowOperator(graph.matrix(), nodes)
    rows = graph.matrix()[nodes]
    assert np.array_equal(operator.indptr, rows.indptr)
    assert np.array_equal(operator.indices, rows.indices)
    assert np.array_equal(operator.data, rows.data)
    vector = np.random.default_rng(3).random(nodes.size)
    full = np.zeros(graph.num_nodes)
    full[nodes] = vector
    assert np.array_equal(operator @ vector, rows @ full)
