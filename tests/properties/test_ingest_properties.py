"""Property-based tests for incremental ingest refresh correctness.

The load-bearing invariant of ``repro.ingest``: an incremental refresh in
``"exact"`` mode is *bit-identical* to a from-scratch full precompute over
the same mutated graph, while re-converging strictly fewer columns than the
vocabulary on localized (content-only) mutations.  Also covers the
warm-start carry's soundness: warm and cold refreshes run to the attractor
reach the same fixpoints to machine precision.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.graph import AuthorityTransferDataGraph
from repro.ingest import IngestEngine
from repro.ingest.refresh import refreshed_keyword_vectors
from repro.ranking.pagerank import DEFAULT_DAMPING, DEFAULT_TOLERANCE
from repro.ranking.precompute import PrecomputedRanker

from .strategies import _WORDS, dblp_graphs, rate_vectors

# Both the warm and the cold run stop inside the convergence ball, whose
# radius is amplified by the geometric tail: ||x_k - x*|| <= tol / (1 - d).
_WARM_ATOL = 4 * DEFAULT_TOLERANCE / (1 - DEFAULT_DAMPING)


@st.composite
def graphs_with_mutations(draw, topology: bool):
    """A random DBLP graph plus a random mutation batch to apply to it."""
    graph = draw(dblp_graphs(min_papers=3, max_papers=6))
    papers = [n.node_id for n in graph.nodes() if n.label == "Paper"]
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        paper = draw(st.sampled_from(papers))
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4))
        mutations.append(("update", paper, " ".join(words)))
    if topology:
        kind = draw(st.sampled_from(["add_node", "add_edge", "remove_node"]))
        if kind == "add_node":
            words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
            mutations.append(("add_node", "paper:new", " ".join(words)))
        elif kind == "add_edge":
            source = draw(st.sampled_from(papers))
            target = draw(st.sampled_from([p for p in papers if p != source]))
            mutations.append(("add_edge", source, target))
        else:
            mutations.append(("remove_node", draw(st.sampled_from(papers)), None))
    return graph, mutations


def _apply(ingest: IngestEngine, mutations) -> None:
    for kind, a, b in mutations:
        if kind == "update":
            ingest.update_node(a, {"title": b})
        elif kind == "add_node":
            ingest.add_node(a, "Paper", {"title": b})
            ingest.add_edge("year:0", a, "contains")
            ingest.add_edge(a, "author:0", "by")
        elif kind == "add_edge":
            ingest.add_edge(a, b, "cites")
        elif kind == "remove_node":
            ingest.remove_node(a)


def _assert_matches_full_rebuild(result) -> None:
    """The incremental ranker must be indistinguishable from a cold one."""
    full = PrecomputedRanker(
        result.graph, result.index, min_document_frequency=1
    )
    assert result.ranker.keywords == full.keywords
    for keyword in full.keywords:
        assert np.array_equal(
            result.ranker.vector(keyword), full.vector(keyword)
        ), f"column {keyword!r} differs from the full rebuild"


class TestExactRefreshBitIdentity:
    @given(graphs_with_mutations(topology=False))
    @settings(max_examples=15, deadline=None)
    def test_content_mutations_bit_identical_and_localized(self, case):
        graph, mutations = case
        rates = dblp_transfer_schema()
        ingest = IngestEngine(graph, rates, min_document_frequency=1)
        first = ingest.refresh()
        _apply(ingest, mutations)
        second = ingest.refresh(previous=first.ranker)
        assert not second.full_rebuild
        # Localized: strictly fewer columns re-converged than the vocabulary.
        assert len(second.recomputed) < len(second.ranker.keywords)
        _assert_matches_full_rebuild(second)

    @given(graphs_with_mutations(topology=True))
    @settings(max_examples=10, deadline=None)
    def test_topology_mutations_still_bit_identical(self, case):
        graph, mutations = case
        rates = dblp_transfer_schema()
        ingest = IngestEngine(graph, rates, min_document_frequency=1)
        first = ingest.refresh()
        _apply(ingest, mutations)
        second = ingest.refresh(previous=first.ranker)
        assert second.carried == ()
        _assert_matches_full_rebuild(second)

    @given(graphs_with_mutations(topology=False))
    @settings(max_examples=10, deadline=None)
    def test_chained_refreshes_stay_bit_identical(self, case):
        graph, mutations = case
        rates = dblp_transfer_schema()
        ingest = IngestEngine(graph, rates, min_document_frequency=1)
        result = ingest.refresh()
        for mutation in mutations:
            _apply(ingest, [mutation])
            result = ingest.refresh(previous=result.ranker)
            _assert_matches_full_rebuild(result)


class TestWarmRefreshConvergence:
    @given(graphs_with_mutations(topology=True))
    @settings(max_examples=10, deadline=None)
    def test_warm_mode_tolerance_equal_to_full_rebuild(self, case):
        graph, mutations = case
        rates = dblp_transfer_schema()
        ingest = IngestEngine(graph, rates, min_document_frequency=1)
        first = ingest.refresh()
        _apply(ingest, mutations)
        second = ingest.refresh(previous=first.ranker, mode="warm")
        full = PrecomputedRanker(
            second.graph, second.index, min_document_frequency=1
        )
        assert second.ranker.keywords == full.keywords
        for keyword in full.keywords:
            assert np.allclose(
                second.ranker.vector(keyword), full.vector(keyword),
                atol=_WARM_ATOL,
            )


class TestLiveWarmStartFixpoint:
    @given(
        dblp_graphs(min_papers=3, max_papers=6),
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_warm_and_cold_fixpoints_agree_to_machine_precision(self, graph, words):
        # Run to the attractor (tolerance 0): the fixpoint is a property of
        # the matrix and restart vector alone, so the renormalized carried
        # seed must land on the same attractor as the cold start.  Exact
        # bitwise equality is not attainable — at the attractor the float
        # iteration settles into an ulp-level limit cycle (f flips the last
        # bit back and forth), and warm and cold runs may stop on adjacent
        # floats of that cycle — so the assertion is agreement to a few ulps,
        # far below any tolerance-driven deviation warm-starting could cause.
        def engine(mutated: bool) -> IngestEngine:
            engine = IngestEngine(
                graph,
                dblp_transfer_schema(),
                tolerance=0.0,
                max_iterations=2000,
                min_document_frequency=1,
            )
            if mutated:
                engine.add_node("paper:new", "Paper", {"title": " ".join(words)})
                engine.add_edge("year:0", "paper:new", "contains")
                engine.add_edge("paper:new", "author:0", "by")
            return engine

        first = engine(mutated=False).refresh()
        cold = engine(mutated=True).refresh(previous=first.ranker, mode="exact")
        warm = engine(mutated=True).refresh(previous=first.ranker, mode="warm")
        assert warm.ranker.keywords == cold.ranker.keywords
        carried = set(first.ranker.keywords) & set(warm.ranker.keywords)
        assert carried, "the mutation must leave columns to warm-start"
        for keyword in cold.ranker.keywords:
            np.testing.assert_allclose(
                cold.ranker.vector(keyword),
                warm.ranker.vector(keyword),
                rtol=1e-13,
                atol=0.0,
            )


# -- topology carried across a sequence of refreshes on one engine ------------

_TOPOLOGY_ARRAYS = ("edge_source", "edge_target", "edge_type_index", "_edge_out_degree")


def _assert_matches_fresh_graph(result, rates) -> AuthorityTransferDataGraph:
    """The snapshot's graph, carried or built, equals a from-scratch build."""
    fresh = AuthorityTransferDataGraph(result.data_graph, rates)
    graph = result.graph
    assert graph.data_graph is result.data_graph
    assert graph.transfer_schema is rates
    assert graph.node_ids == fresh.node_ids
    for name in (*_TOPOLOGY_ARRAYS, "edge_rate"):
        built, expected = getattr(graph, name), getattr(fresh, name)
        assert built.dtype == expected.dtype and np.array_equal(built, expected), name
    for built, expected in zip(
        graph._out_index + graph._in_index, fresh._out_index + fresh._in_index
    ):
        assert np.array_equal(built, expected)
    return fresh


def _draw_batch(draw, graph, serial: int, topology: bool) -> list[tuple]:
    """Mutations valid against the working graph ``graph`` mirrors."""
    papers = [n.node_id for n in graph.nodes() if n.label == "Paper"]
    words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
    batch = [
        ("update", draw(st.sampled_from(papers)), draw(words))
        for _ in range(draw(st.integers(0 if topology else 1, 2)))
    ]
    if topology:
        kinds = ["add_node", "add_edge"] + (["remove_node"] if len(papers) > 3 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "add_node":
            batch.append(("add_node", f"paper:new{serial}", draw(words)))
        elif kind == "add_edge":
            source = draw(st.sampled_from(papers))
            target = draw(st.sampled_from([p for p in papers if p != source]))
            batch.append(("add_edge", source, target))
        else:
            batch.append(("remove_node", draw(st.sampled_from(papers)), None))
    return batch


class TestTopologyCarriedAcrossRefreshes:
    @given(dblp_graphs(min_papers=3, max_papers=6), st.data())
    @settings(max_examples=15, deadline=None)
    def test_refresh_sequence_equals_from_scratch_builds(self, graph, data):
        base = dblp_transfer_schema()
        ingest = IngestEngine(graph, base, min_document_frequency=1)
        result = ingest.refresh()
        _assert_matches_fresh_graph(result, base)
        for serial in range(data.draw(st.integers(2, 6), label="batches")):
            topology = data.draw(st.booleans(), label="topology batch")
            _apply(ingest, _draw_batch(data.draw, result.data_graph, serial, topology))
            rates = base
            if data.draw(st.booleans(), label="new rates"):
                rates = base.with_vector(data.draw(rate_vectors()))
            previous = result
            result = ingest.refresh(previous=previous.ranker, rates=rates)
            _assert_matches_fresh_graph(result, rates)
            _assert_matches_full_rebuild(result)
            # A content-only batch shares the previous snapshot's topology
            # arrays; a topology batch shares none of them.
            for name in _TOPOLOGY_ARRAYS:
                carried = getattr(result.graph, name) is getattr(previous.graph, name)
                assert carried is not topology, name

    @given(graphs_with_mutations(topology=True))
    @settings(max_examples=10, deadline=None)
    def test_failed_refresh_then_topology_batch_does_not_carry(self, case):
        graph, mutations = case
        rates = dblp_transfer_schema()
        ingest = IngestEngine(graph, rates, min_document_frequency=1)
        first = ingest.refresh()
        ingest.update_node("paper:0", {"title": "olap cube"})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.ingest.engine.refreshed_keyword_vectors", _raise_build_error
            )
            with pytest.raises(RuntimeError, match="injected"):
                ingest.refresh(previous=first.ranker)
        _apply(ingest, mutations)
        second = ingest.refresh(previous=first.ranker)
        assert second.graph.edge_source is not first.graph.edge_source
        _assert_matches_fresh_graph(second, rates)
        _assert_matches_full_rebuild(second)

    @given(graphs_with_mutations(topology=True), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_refreshes_interleaved_with_a_topology_mutation_do_not_carry(
        self, case, content_after
    ):
        graph, mutations = case
        rates = dblp_transfer_schema()
        ingest = IngestEngine(graph, rates, min_document_frequency=1)
        first = ingest.refresh()
        pending = [mutations]
        inner = []

        def build_while_mutated(*args, **kwargs):
            # The outer refresh has frozen its snapshot; before its columns
            # converge, a topology batch lands and a whole refresh runs.
            if pending:
                _apply(ingest, pending.pop())
                inner.append(ingest.refresh(previous=first.ranker))
            return refreshed_keyword_vectors(*args, **kwargs)

        ingest.update_node("paper:0", {"title": "olap cube"})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.ingest.engine.refreshed_keyword_vectors", build_while_mutated
            )
            outer = ingest.refresh(previous=first.ranker)
        # The outer snapshot predates the topology batch and finished last.
        assert outer.graph.edge_source is first.graph.edge_source
        _assert_matches_fresh_graph(outer, rates)
        _assert_matches_fresh_graph(inner[0], rates)
        if content_after and ingest._data_graph.has_node("paper:1"):
            ingest.update_node("paper:1", {"title": "xml stream"})
        latest = ingest.refresh()
        assert latest.graph.edge_source is not outer.graph.edge_source
        _assert_matches_fresh_graph(latest, rates)
        _assert_matches_full_rebuild(latest)


def _raise_build_error(*args, **kwargs):
    raise RuntimeError("injected column-build failure")
