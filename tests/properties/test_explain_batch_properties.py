"""Property tests: batched explanations are bit-identical to serial.

Every draw exercises the full pipeline — subgraph extraction and the
flow-adjustment fixpoint — and asserts exact (not approximate) equality
between ``repro.explain.batch`` and the serial ``build_explaining_subgraph``
+ ``adjust_flows`` path.  The default strategy uses ``epsilon=0.0``, so the
transfer graphs contain zero-rate (backward) edges; degenerate draws cover
empty base sets and targets with no positive-rate path from the base set.

The second half pins the shapes a CSR row can get wrong — parallel edges
inside one row, a zero-rate edge type, the target inside the base set, an
unreachable target, an unbounded radius, a cut-off before convergence and
a batch that freezes and compacts.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.explain import (
    adjust_flows,
    batch,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
)
from repro.graph import AuthorityTransferDataGraph, DataGraph
from repro.ranking import _native

from tests.properties.strategies import dblp_graphs, dblp_transfer_graphs
from tests.ranking.reference import objectrank

_RADII = st.one_of(st.none(), st.integers(1, 4))


def _targets(atdg, seed):
    """A mixed-type target list: papers, an author, and the conference.

    The conference node often has no positive-rate path from the base set
    under ``epsilon=0.0`` — the unreachable-target degenerate case.
    """
    node_ids = list(atdg.node_ids)
    papers = [n for n in node_ids if n.startswith("paper:")]
    rotated = papers[seed % len(papers) :] + papers[: seed % len(papers)]
    return rotated[:5] + ["author:0", "conf:0"]


def same_bits(left, right) -> bool:
    """Whether two float sequences hold the same bit patterns.

    What "bit-identical" means: stricter than ``==`` on ±0.0, and identical
    NaNs match — an Eq. 10 fixpoint that overflows to ``nan`` the same way
    on both paths agrees.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    return left.shape == right.shape and np.array_equal(
        left.view(np.uint64), right.view(np.uint64)
    )


def assert_bit_identical(serial, batched):
    sg, bg = serial.subgraph, batched.subgraph
    assert sg.target == bg.target
    assert sg.nodes == bg.nodes
    assert np.array_equal(sg.edge_ids, bg.edge_ids)
    assert sg.base_nodes == bg.base_nodes
    assert sg.depth_to_target == bg.depth_to_target
    # What the extractor fills equals what the serial subgraph derives.
    assert np.array_equal(sg.depth_array, bg.depth_array)
    assert np.array_equal(sg.edge_src_local, bg.edge_src_local)
    assert np.array_equal(sg.edge_dst_local, bg.edge_dst_local)
    assert sg.target_local == bg.target_local
    for derived, filled in zip(sg.flow_operator, bg.flow_operator):
        assert np.array_equal(derived, filled)
    assert same_bits(serial.original_flows, batched.original_flows)
    assert same_bits(serial.flows, batched.flows)
    assert list(serial.reduction) == list(batched.reduction)
    assert same_bits(list(serial.reduction.values()), list(batched.reduction.values()))
    assert serial.iterations == batched.iterations
    assert serial.converged == batched.converged
    assert same_bits(serial.residuals, batched.residuals)


def _assert_pipeline_identical(
    atdg, base, targets, radius, tolerance=1e-10, max_iterations=1000
):
    """Batched build + adjust ``==`` the serial pipeline for every target."""
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    scores = objectrank(atdg, papers, damping=0.85, tolerance=1e-10).scores
    subgraphs = batched_build_explaining_subgraphs(atdg, base, targets, radius)
    explanations = batched_adjust_flows(
        subgraphs, scores, 0.85, tolerance, max_iterations
    )
    for target, batched in zip(targets, explanations):
        serial = adjust_flows(
            build_explaining_subgraph(atdg, base, target, radius),
            scores,
            0.85,
            tolerance,
            max_iterations,
        )
        assert_bit_identical(serial, batched)
    return explanations


@given(dblp_transfer_graphs(), _RADII, st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_batched_equals_serial(atdg, radius, seed):
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    _assert_pipeline_identical(atdg, papers, _targets(atdg, seed), radius)


@given(dblp_transfer_graphs(), _RADII, st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_batched_equals_serial_empty_base(atdg, radius, seed):
    """Empty base set: every subgraph degenerates to the lone target."""
    explanations = _assert_pipeline_identical(atdg, [], _targets(atdg, seed), radius)
    assert all(batched.subgraph.is_empty for batched in explanations)


# -- the shapes a CSR row can get wrong --------------------------------------

#: Every edge type carries authority, "cited" included, so citations flow
#: both ways and mutual citations put repeated column ids inside one row.
_ALL_POSITIVE = [0.5, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3, 0.1]
#: [PP, PPb, PA, AP, CY, YC, YP, PY] with both citation directions silenced.
_NO_CITATIONS = [0.0, 0.0, 0.2, 0.2, 0.3, 0.3, 0.3, 0.1]


def _mutual_citations() -> AuthorityTransferDataGraph:
    """Three papers citing each other, twice each way between 0 and 1."""
    graph = DataGraph()
    graph.add_node("conf:0", "Conference", {"name": "icde"})
    graph.add_node("year:0", "Year", {"name": "icde", "year": "1997"})
    graph.add_edge("conf:0", "year:0", "has")
    graph.add_node("author:0", "Author", {"name": "author0"})
    for p in range(3):
        graph.add_node(f"paper:{p}", "Paper", {"title": "olap cube"})
        graph.add_edge("year:0", f"paper:{p}", "contains")
        graph.add_edge(f"paper:{p}", "author:0", "by")
    for source, target in [(0, 1), (1, 0), (0, 1), (1, 0), (1, 2), (2, 0)]:
        graph.add_edge(f"paper:{source}", f"paper:{target}", "cites")
    return AuthorityTransferDataGraph(graph, dblp_transfer_schema(_ALL_POSITIVE))


def test_parallel_edges_stay_apart_inside_a_row():
    atdg = _mutual_citations()
    papers = ["paper:0", "paper:1", "paper:2"]
    explanations = _assert_pipeline_identical(atdg, papers, list(atdg.node_ids), None)
    indptr, indices, _rates = explanations[atdg.index_of("paper:0")].subgraph.flow_operator
    rows = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    assert any(len(row) != len(set(row)) for row in rows)


@given(
    dblp_graphs(),
    st.sampled_from([_ALL_POSITIVE, _NO_CITATIONS]),
    _RADII,
    st.integers(0, 100),
    st.sampled_from([(1e-10, 1000), (0.0, 3), (1e-3, 1000)]),
)
@settings(max_examples=40, deadline=None)
def test_batched_equals_serial_across_rates_and_cutoffs(
    graph, vector, radius, seed, stopping
):
    """Cyclic all-positive rates (parallel columns, many iterations), a
    silenced edge type, ``radius=None``, targets inside the base set and
    unreachable ones, and a ``max_iterations`` cut-off before convergence."""
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema(vector))
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    tolerance, max_iterations = stopping
    explanations = _assert_pipeline_identical(
        atdg,
        papers[: 1 + seed % len(papers)],
        _targets(atdg, seed),
        radius,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    if max_iterations == 3:
        for explanation in explanations:
            assert explanation.subgraph.is_empty or (
                explanation.iterations == 3 and not explanation.converged
            )


def test_freeze_and_compaction_both_run(dblp_tiny_engine):
    """The numpy fixpoint (the compiled one forced off): targets that converge
    at different iterations, the early ones freeze, the operator is rebuilt
    without them, and every trace still matches."""
    result = dblp_tiny_engine.search("xml query", top_k=12)
    graph = dblp_tiny_engine.graph
    base = list(result.ranked.base_weights)
    targets = [node_id for node_id, _ in result.top]
    subgraphs = batched_build_explaining_subgraphs(graph, base, targets, 3)
    with (
        mock.patch.object(_native, "_ensure", lambda: None),
        mock.patch.object(batch, "_pack", wraps=batch._pack) as pack,
    ):
        explanations = batched_adjust_flows(subgraphs, result.ranked.scores)
    assert pack.call_count > 1  # compaction rebuilt the operator
    assert len({e.iterations for e in explanations}) > 1  # some froze early
    for target, batched in zip(targets, explanations):
        serial = adjust_flows(
            build_explaining_subgraph(graph, base, target, 3), result.ranked.scores
        )
        assert_bit_identical(serial, batched)
