"""Property tests: batched explanations are bit-identical to serial.

Every draw exercises the full pipeline — subgraph extraction and the
flow-adjustment fixpoint — and asserts exact (not approximate) equality
between ``repro.explain.batch`` and the serial ``build_explaining_subgraph``
+ ``adjust_flows`` path.  The default strategy uses ``epsilon=0.0``, so the
transfer graphs contain zero-rate (backward) edges; degenerate draws cover
empty base sets and targets with no positive-rate path from the base set.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain import (
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
)
from repro.ranking import objectrank

from tests.properties.strategies import dblp_transfer_graphs

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


def assert_bit_identical(serial, batched):
    sg, bg = serial.subgraph, batched.subgraph
    assert sg.target == bg.target
    assert sg.nodes == bg.nodes
    assert np.array_equal(sg.edge_ids, bg.edge_ids)
    assert sg.base_nodes == bg.base_nodes
    assert sg.depth_to_target == bg.depth_to_target
    assert np.array_equal(serial.original_flows, batched.original_flows)
    assert np.array_equal(serial.flows, batched.flows)
    assert serial.reduction == batched.reduction
    assert serial.iterations == batched.iterations
    assert serial.converged == batched.converged
    assert serial.residuals == batched.residuals


@given(dblp_transfer_graphs(), _RADII, st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_batched_equals_serial(atdg, radius, seed):
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    result = objectrank(atdg, papers, damping=0.85, tolerance=1e-10)
    targets = _targets(atdg, seed)
    subgraphs = batched_build_explaining_subgraphs(atdg, papers, targets, radius)
    explanations = batched_adjust_flows(subgraphs, result.scores, 0.85, 1e-10)
    for target, batched in zip(targets, explanations):
        serial = adjust_flows(
            build_explaining_subgraph(atdg, papers, target, radius),
            result.scores,
            0.85,
            1e-10,
        )
        assert_bit_identical(serial, batched)


@given(dblp_transfer_graphs(), _RADII, st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_batched_equals_serial_empty_base(atdg, radius, seed):
    """Empty base set: every subgraph degenerates to the lone target."""
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    result = objectrank(atdg, papers, damping=0.85, tolerance=1e-10)
    targets = _targets(atdg, seed)
    subgraphs = batched_build_explaining_subgraphs(atdg, [], targets, radius)
    explanations = batched_adjust_flows(subgraphs, result.scores, 0.85, 1e-10)
    for target, batched in zip(targets, explanations):
        serial = adjust_flows(
            build_explaining_subgraph(atdg, [], target, radius),
            result.scores,
            0.85,
            1e-10,
        )
        assert_bit_identical(serial, batched)
        assert batched.subgraph.is_empty
