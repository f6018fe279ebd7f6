"""The paper's normalisers on degenerate input, and restart mass under repeats.

Eq. 2-4's base-set weights, Eq. 12's expansion scale, Eq. 13's four rate
steps, the store's blend, ``a_q`` and the convergent rescaling each divide by
a sum or a maximum of what they are given.  Given empty, all-zero or
subnormal input, each one raises a typed :class:`~repro.errors.ReproError`
or returns only finite values: never ``nan`` or ``inf``.  The pins fix what
each one answers at that edge today.

A restart builder keeps the mass of every listed occurrence: a node listed
twice (a base-set object two keywords matched) carries twice the
weight, not the last write's, with the compiled kernels and without them.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.datasets.figure1 import figure1_dataset
from repro.errors import EmptyBaseSetError, ParameterError, ReproError
from repro.graph import AuthorityTransferDataGraph
from repro.ir import InvertedIndex
from repro.query import QueryVector
from repro.ranking import (
    Tolerance,
    rank,
    uniform_restarts,
    weighted_restarts,
)
from repro.ranking.objectrank2 import normalized_base_weights
from repro.ranking.precompute import PrecomputedRanker
from repro.reformulate import ContentReformulator, StructureReformulator

from tests.properties.strategies import dblp_transfer_graphs
from tests.properties.test_explain_batch_properties import same_bits
from tests.properties.test_fixpoint_cap_properties import step  # the kernel/numpy fixture
from tests.reformulate.reference import FlowsByType

SUBNORMAL = st.floats(5e-324, sys.float_info.min, exclude_max=True)
#: Two of these already overflow a sum.
HUGE = st.floats(1e307, sys.float_info.max)
#: Scores, weights and rates: zeros, subnormals, ordinary and huge magnitudes.
VALUES = st.lists(
    st.one_of(st.just(0.0), SUBNORMAL, st.floats(1e-3, 1e3), HUGE), max_size=8
)
SCHEMA = dblp_transfer_schema()
TYPES = SCHEMA.edge_types()
FIGURE1 = figure1_dataset()
KEYWORDS = ("olap", "data", "agrawal", "gupta", "icde", "1997", "h", "j")
PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _Flows(flows):
    """An explanation as Eq. 13 reads it: adjusted flow per edge type."""
    return FlowsByType(flows, TYPES)


class _RawTerms(ContentReformulator):
    """Eq. 12 over given raw term weights in place of Eq. 11's."""

    def aggregated_terms(self, raw):
        names = list(raw)
        weights = np.fromiter(raw.values(), dtype=np.float64, count=len(raw))
        return weights, np.arange(len(names)), names


def _query(values):
    return QueryVector(dict(zip(KEYWORDS, values)))


def _rates(values):
    return SCHEMA.with_vector((values + [0.0] * len(TYPES))[: len(TYPES)])


def _blend(ranker, a, b):
    result = ranker.rank(_query(a))
    return [*result.scores, *result.base_weights.values()]


#: Normaliser -> its answer's floats for two drawn value lists.
NORMALISERS = {
    "normalized_base_weights": lambda ranker, a, b: normalized_base_weights(
        np.asarray(a, dtype=float)
    ),
    "average_weight": lambda ranker, a, b: [_query(a).average_weight()],
    "content_scale": lambda ranker, a, b: _RawTerms()
    .reformulate(_query(a), {f"x{i}": w for i, w in enumerate(b)})
    .weights.values(),
    "structure_steps": lambda ranker, a, b: StructureReformulator()
    .reformulate(_rates(a), [_Flows(dict(zip(TYPES, b)))])
    .as_vector(),
    "precomputed_blend": _blend,
    "scaled_to_convergent": lambda ranker, a, b: _rates(a).scaled_to_convergent().as_vector(),
}


@pytest.fixture(scope="module")
def ranker(figure1_graph, figure1_index):
    return PrecomputedRanker(figure1_graph, figure1_index, min_document_frequency=1)


@pytest.mark.parametrize("normaliser", NORMALISERS)
@given(a=VALUES, b=VALUES)
@PROPERTY
def test_a_normaliser_answers_finite_values_or_a_typed_error(ranker, normaliser, a, b):
    try:
        answer = [float(value) for value in NORMALISERS[normaliser](ranker, a, b)]
    except ReproError:
        return
    assert all(map(math.isfinite, answer)), answer


def test_each_normaliser_keeps_its_answer_at_the_degenerate_edge(ranker):
    assert normalized_base_weights(np.zeros(0)).size == 0
    with pytest.raises(ParameterError):
        normalized_base_weights(np.array([1e308, 1e308]))
    assert QueryVector().average_weight() == 0.0
    assert _query([0.0, 0.0]).average_weight() == 0.0
    assert _query([1e308, 1e308]).average_weight() == 1e308  # the sum overflows
    assert _RawTerms().expansion_terms(_query([1.0]), {"x": 0.0}) == []
    # 1.0 / 5e-324 overflows the scale; (5e-324 / 5e-324) * 1.0 does not.
    assert _RawTerms().expansion_terms(_query([1.0]), {"x": 5e-324}) == [("x", 1.0)]
    assert _RawTerms().reformulate(_query([1.0]), {"x": 5e-324}).weights == {
        "olap": 1.0, "x": 0.5,
    }
    assert StructureReformulator().reformulate(SCHEMA, []) is SCHEMA
    zero_flows = [_Flows(dict.fromkeys(TYPES, 0.0))]
    assert StructureReformulator().reformulate(SCHEMA, zero_flows) is SCHEMA
    assert _rates([]).scaled_to_convergent() == _rates([])
    for query in (QueryVector(), _query([0.0, 0.0])):
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(query)
    with pytest.raises(ParameterError):
        ranker.rank(_query([1e308, 1e308]))


# -- restart mass: a repeated node or keyword keeps every occurrence's share ----


@given(
    graph=dblp_transfer_graphs(),
    picks=st.lists(st.integers(0, 63), min_size=1, max_size=8),
    keywords=st.lists(st.integers(0, 63), max_size=3),
)
@example(  # the original regression: v1 listed twice keeps 2/3, not 1/2
    graph=AuthorityTransferDataGraph(FIGURE1.data_graph, FIGURE1.transfer_schema),
    picks=[0, 0, 3],
    keywords=[],
)
@PROPERTY
def test_a_repeated_node_keeps_every_occurrences_restart_mass(step, graph, picks, keywords):
    """Listed beside the picked nodes, each drawn keyword's base set: a
    node two keywords match, or one keyword drawn twice, is listed twice."""
    ids = [graph.node_ids[pick % graph.num_nodes] for pick in picks]
    index = InvertedIndex.from_graph(graph.data_graph)
    vocabulary = index.vocabulary(1)
    for keyword in keywords:
        ids += index.documents_with_term(vocabulary[keyword % len(vocabulary)])
    shares = {node: count / len(ids) for node, count in Counter(ids).items()}
    restarts = uniform_restarts(graph, [ids])
    assert same_bits(graph.restart_vector(*restarts.base_weights), graph.restart_vector(shares))
    assert list(restarts.base_weights[0].items()) == list(shares.items())
    (listed,) = rank(graph, restarts, Tolerance(1e-12))
    merged_restarts = weighted_restarts(graph, [graph.base_set(shares)])
    (merged,) = rank(graph, merged_restarts, Tolerance(1e-12))
    assert same_bits(listed.scores, merged.scores)
    assert (listed.iterations, listed.converged) == (merged.iterations, merged.converged)
