"""The compiled explain kernels against the serial Figure 8 pipeline.

Extraction and the Equation 10 fixpoint run through
:mod:`repro.ranking._native` when the process has it.  Marks read back in
index order and each target iterated to its own convergence must not move a
node, an edge or a float: every subgraph field, the flows, the reduction
factors, the residual trace, the iteration count and ``converged`` are
``==`` the serial ``build_explaining_subgraph`` + ``adjust_flows``, with the
kernels and with them forced off.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.explain import (
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
)
from repro.explain import batch
from repro.graph import AuthorityTransferDataGraph
from repro.ranking import _native

from tests.properties.strategies import dblp_graphs, rate_vectors
from tests.properties.test_explain_batch_properties import assert_bit_identical


@st.composite
def explain_cases(draw):
    """A random explanation batch over a random DBLP multigraph.

    Random rates silence whole edge types; repeated citations are parallel
    edges; an author without papers is a dangling node and often an
    unreachable target.  The base set is a random multiset, a single node,
    or empty; targets may sit inside it; the radius may be unbounded; a
    ``within`` mask may leave out the target or the base.  The stopping rule
    makes some targets converge early, some late and some hit the cut-off.
    """
    graph = AuthorityTransferDataGraph(
        draw(dblp_graphs(max_papers=12)), dblp_transfer_schema(draw(rate_vectors()))
    )
    node_ids = list(graph.node_ids)
    pick = st.sampled_from(node_ids)
    base = draw(
        st.one_of(
            st.lists(pick, max_size=10),
            pick.map(lambda node: [node]),
        )
    )
    targets = draw(st.lists(pick, min_size=1, max_size=6))
    if base and draw(st.booleans()):
        targets.append(base[0])
    within = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(node_ids), max_size=len(node_ids)))
        within = np.flatnonzero(keep).astype(np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    scores = np.random.default_rng(seed).random(graph.num_nodes)
    return dict(
        graph=graph,
        base=base,
        targets=targets,
        radius=draw(st.one_of(st.none(), st.integers(1, 4))),
        within=within,
        scores=scores,
        stopping=draw(st.sampled_from([(1e-10, 1000), (1e-3, 1000), (0.0, 5)])),
    )


@pytest.fixture(params=["kernel", "numpy"])
def path(request):
    """Explain through the compiled kernels, or with them forced off."""
    if request.param == "numpy":
        with mock.patch.object(_native, "_ensure", lambda: None):
            yield request.param
    elif not _native.available():
        pytest.skip("no compiled kernel in this process")
    else:
        yield request.param


def explain_batch(case):
    subgraphs = batched_build_explaining_subgraphs(
        case["graph"], case["base"], case["targets"], case["radius"],
        within=case["within"],
    )
    tolerance, max_iterations = case["stopping"]
    return batched_adjust_flows(
        subgraphs, case["scores"], 0.85, tolerance, max_iterations
    )


def explain_serially(case, target):
    tolerance, max_iterations = case["stopping"]
    return adjust_flows(
        build_explaining_subgraph(
            case["graph"], case["base"], target, case["radius"], within=case["within"]
        ),
        case["scores"],
        0.85,
        tolerance,
        max_iterations,
    )


def returns_of(name):
    """Patch ``_native.<name>`` with a pass-through that records its returns."""
    found = []
    real = getattr(_native, name)

    def spy(*args):
        found.append(real(*args))
        return found[-1]

    return mock.patch.object(_native, name, spy), found


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=explain_cases())
def test_explanations_equal_the_serial_pipeline(path, case):
    bind_patch, bound = returns_of("bind_subgraph_kernel")
    fix_patch, fixed = returns_of("flow_fixpoints")
    with bind_patch, fix_patch:
        explanations = explain_batch(case)
    ran = path == "kernel"
    iterated = any(not e.subgraph.is_empty for e in explanations)
    assert [found is not None for found in bound] == [ran]
    assert [found is not None for found in fixed] == [ran and iterated]
    for target, explanation in zip(case["targets"], explanations, strict=True):
        assert_bit_identical(explain_serially(case, target), explanation)


def test_targets_stop_at_their_own_iteration(path, dblp_tiny_engine):
    """A batch whose targets converge at different iterations: each keeps
    its own trace and count, through either fixpoint."""
    result = dblp_tiny_engine.search("xml query", top_k=12)
    case = dict(
        graph=dblp_tiny_engine.graph,
        base=list(result.ranked.base_weights),
        targets=[node_id for node_id, _ in result.top],
        radius=3,
        within=None,
        scores=result.ranked.scores,
        stopping=(1e-4, 1000),
    )
    with mock.patch.object(batch, "_pack", wraps=batch._pack) as pack:
        explanations = explain_batch(case)
    assert len({e.iterations for e in explanations}) > 1
    assert (pack.call_count > 1) == (path == "numpy")  # compaction ran
    for target, explanation in zip(case["targets"], explanations):
        assert_bit_identical(explain_serially(case, target), explanation)
