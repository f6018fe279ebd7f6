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
from repro.ingest import IngestEngine
from repro.ranking.pagerank import DEFAULT_DAMPING, DEFAULT_TOLERANCE
from repro.ranking.precompute import PrecomputedRanker

from .strategies import _WORDS, dblp_graphs

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
