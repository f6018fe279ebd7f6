"""The compiled explain kernels against the serial Figure 8 pipeline.

Extraction and the Equation 10 fixpoint run through
:mod:`repro.ranking._native` when the process has it.  Marks read back in
index order and each target iterated to its own convergence must not move a
node, an edge or a float: every subgraph field, the flows, the reduction
factors, the residual trace, the iteration count and ``converged`` are
bit-identical to the serial ``build_explaining_subgraph`` + ``adjust_flows``
(a fixpoint that overflows to ``nan`` included), with the kernels and with
them forced off.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.explain import (
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
)
from repro.explain import batch
from repro.graph import AuthorityTransferDataGraph, DataGraph
from repro.ranking import _native

from tests.properties.strategies import dblp_graphs, rate_vectors
from tests.properties.test_explain_batch_properties import assert_bit_identical


@st.composite
def explain_cases(draw):
    """A random explanation batch over a random DBLP multigraph.

    Random rates silence whole edge types; repeated citations are parallel
    edges; an author without papers is a dangling node and often an
    unreachable target.  The base set is a random multiset, a single node,
    or empty; targets may sit inside it; the radius may be unbounded.  The
    stopping rule
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
    seed = draw(st.integers(0, 2**32 - 1))
    scores = np.random.default_rng(seed).random(graph.num_nodes)
    return dict(
        graph=graph,
        base=base,
        targets=targets,
        radius=draw(st.one_of(st.none(), st.integers(1, 4))),
        scores=scores,
        stopping=draw(st.sampled_from([(1e-10, 1000), (1e-3, 1000), (0.0, 5)])),
    )


def overflowing_case():
    """Five nodes whose Eq. 10 fixpoint overflows to ``nan``.

    Every rate is 1, so each paper passes on 4 times what reaches it (a
    label's outgoing rates sum above 1, outside Theorem 1's premise) and the
    reduction factors grow until they overflow; the residuals turn ``nan``
    after it.  Both paths must report that run bit for bit, ``converged``
    false included.  (At rate 0.25, where no label's rates sum above 1, the
    same graph converges in 59 iterations.)
    """
    data = DataGraph()
    data.add_node("conf:0", "Conference", {"name": "icde"})
    data.add_node("year:0", "Year", {"name": "icde", "year": "1997"})
    data.add_edge("conf:0", "year:0", "has")
    data.add_node("author:0", "Author", {"name": "author0"})
    for paper in ("paper:0", "paper:1"):
        data.add_node(paper, "Paper", {"title": "olap"})
        data.add_edge("year:0", paper, "contains")
        data.add_edge(paper, "author:0", "by")
    data.add_edge("paper:0", "paper:1", "cites")
    data.add_edge("paper:1", "paper:0", "cites")
    graph = AuthorityTransferDataGraph(data, dblp_transfer_schema([1.0] * 8))
    return dict(
        graph=graph,
        base=["conf:0"],
        targets=["conf:0"],
        radius=None,
        scores=np.random.default_rng(0).random(graph.num_nodes),
        stopping=(1e-10, 1000),
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
        case["graph"], case["base"], case["targets"], case["radius"]
    )
    tolerance, max_iterations = case["stopping"]
    return batched_adjust_flows(
        subgraphs, case["scores"], 0.85, tolerance, max_iterations
    )


def explain_serially(case, target):
    tolerance, max_iterations = case["stopping"]
    return adjust_flows(
        build_explaining_subgraph(case["graph"], case["base"], target, case["radius"]),
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
@example(case=overflowing_case())
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
        scores=result.ranked.scores,
        stopping=(1e-4, 1000),
    )
    with mock.patch.object(batch, "_pack", wraps=batch._pack) as pack:
        explanations = explain_batch(case)
    assert len({e.iterations for e in explanations}) > 1
    assert (pack.call_count > 1) == (path == "numpy")  # compaction ran
    for target, explanation in zip(case["targets"], explanations):
        assert_bit_identical(explain_serially(case, target), explanation)
