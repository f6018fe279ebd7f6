"""The one-vector rates == the dict rates they replaced, bit for bit.

:class:`~repro.graph.authority.AuthorityTransferSchemaGraph` holds its rates
as one float64 vector in canonical edge-type order, and Equation 13's four
steps are array expressions over it.  Each property draws a random schema
(1-4 labels, parallel and self-loop edges), rates (zero, subnormal,
ordinary, over-full and huge) and an epsilon floor (0, small, and large
enough that ``k * epsilon > 1``), and checks the array code against
:class:`tests.reformulate.reference.DictTransferSchema` and
:func:`~tests.reformulate.reference.reference_structure_step`: the same
floats by bit pattern, or the same error.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graph import AuthorityTransferSchemaGraph, SchemaGraph
from repro.reformulate import AGGREGATORS, StructureReformulator

from tests.properties.test_explain_batch_properties import same_bits
from tests.reformulate.reference import (
    DictTransferSchema,
    FlowsByType,
    aggregate_maps,
    reference_structure_step,
)

NAN, INF = float("nan"), float("inf")
SUBNORMAL = st.floats(5e-324, sys.float_info.min, exclude_max=True)
RATES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    SUBNORMAL,
    st.floats(0.0, 1.0),
    st.floats(1.0, 4.0),  # one rate alone over-fills its label
    st.floats(1e307, sys.float_info.max),  # two overflow a label's sum
)
#: 0.4 over three outgoing types, 0.75 over two and 1.5 over one leave no
#: room above the floor (``k * epsilon > 1``).
EPSILONS = st.sampled_from([0.0, 1e-300, 1e-6, 1e-3, 0.05, 0.4, 0.75, 1.5])
#: ``None`` leaves the type out of an explanation.
FACTORS = st.one_of(
    st.none(),
    st.just(0.0),
    SUBNORMAL,
    st.floats(0.0, 10.0),
    st.just(INF),
)
PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def schemas(draw) -> SchemaGraph:
    """1-4 labels and 0-10 edges: self-loops, and parallel edges between
    one pair of labels under different roles (a label with eight or more
    outgoing types tells a left fold from numpy's unrolled ``sum``)."""
    schema = SchemaGraph()
    labels = [f"L{i}" for i in range(draw(st.integers(1, 4)))]
    for label in labels:
        schema.add_label(label)
    for _ in range(draw(st.integers(0, 10))):
        schema.add_edge(
            draw(st.sampled_from(labels)),
            draw(st.sampled_from(labels)),
            draw(st.sampled_from(["r0", "r1", "r2", "r3", "r4", "r5"])),
        )
    return schema


@st.composite
def rate_pairs(draw):
    """The same random rates as the array graph and as the dict graph."""
    schema = draw(schemas())
    epsilon = draw(EPSILONS)
    graph = AuthorityTransferSchemaGraph(schema, epsilon=epsilon)
    size = len(graph.key)
    rates = dict(zip(graph.edge_types(), draw(st.lists(RATES, min_size=size, max_size=size))))
    return (
        AuthorityTransferSchemaGraph(schema, rates, epsilon=epsilon),
        DictTransferSchema(schema, rates, epsilon=epsilon),
    )


def _outcome(call):
    """``(the vector, None)``, or ``(None, the ReproError type raised)``."""
    try:
        return call().as_vector(), None
    except ReproError as error:
        return None, type(error)


def _agree(got, expected) -> None:
    (got_vector, got_error), (expected_vector, expected_error) = got, expected
    assert got_error is expected_error
    if got_error is None:
        assert same_bits(got_vector, expected_vector)


@given(rate_pairs(), st.sampled_from([1e-9, 0.0, 0.5]))
@PROPERTY
def test_the_rates_and_label_sums_equal_the_dict_loops(pair, tolerance):
    graph, reference = pair
    assert same_bits(graph.vector, reference.as_vector())
    assert graph.key == tuple(reference.as_vector())
    labels = graph.schema.labels
    expected = [reference.outgoing_rate_sum(label) for label in labels]
    assert same_bits(graph.label_sums(), expected)
    assert same_bits([graph.outgoing_rate_sum(label) for label in labels], expected)
    assert graph.is_convergent(tolerance) == reference.is_convergent(tolerance)


@given(rate_pairs())
@PROPERTY
def test_scaled_to_convergent_equals_the_per_label_loop(pair):
    graph, reference = pair
    _agree(_outcome(graph.scaled_to_convergent), _outcome(reference.scaled_to_convergent))


@given(
    rate_pairs(),
    st.data(),
    st.floats(0.0, 1.0),
    st.sampled_from(sorted(AGGREGATORS)),
    st.integers(1, 3),
)
@PROPERTY
def test_equation_13_equals_the_dict_loop(pair, data, cf, aggregation, count):
    """Steps 1-4 over the vector == over the dict, from 1-3 explanations
    with absent, zero, subnormal, ordinary and infinite per-type flows."""
    graph, reference = pair
    types = graph.edge_types()
    explanations = []
    for _ in range(count):
        flows = data.draw(st.lists(FACTORS, min_size=len(types), max_size=len(types)))
        factors = {t: f for t, f in zip(types, flows) if f is not None}
        explanations.append(FlowsByType(factors, types))
    reformulator = StructureReformulator(cf, aggregation)
    factors = aggregate_maps([e.factors for e in explanations], aggregation)
    _agree(
        _outcome(lambda: reformulator.reformulate(graph, explanations)),
        _outcome(lambda: reference_structure_step(reformulator, reference, factors)),
    )


@given(rate_pairs(), st.data())
@PROPERTY
def test_a_bad_rate_is_refused_with_the_dict_message(pair, data):
    """The range check and the floor are one array pass: a negative, NaN or
    infinite rate raises the dict loop's ``RateError``, message included."""
    graph, reference = pair
    size = len(graph.key)
    vector = data.draw(
        st.lists(
            st.one_of(RATES, st.floats(max_value=-1e-300), st.sampled_from([NAN, INF])),
            min_size=size,
            max_size=size,
        )
    )
    outcomes = []
    for source in (graph, reference):
        try:
            outcomes.append(source.with_vector(vector).as_vector())
        except ReproError as error:
            outcomes.append((type(error), str(error)))
    got, expected = outcomes
    assert type(got) is type(expected)
    if isinstance(got, tuple):
        assert got == expected
    else:
        assert same_bits(got, expected)


@given(rate_pairs(), st.data())
@PROPERTY
def test_the_key_is_equal_exactly_when_the_graphs_are(pair, data):
    graph, _ = pair
    changed = [
        data.draw(st.sampled_from([rate, -0.0 if rate == 0.0 else rate, 0.5]))
        for rate in graph.key
    ]
    other = graph.with_vector(changed)
    as_dict = dict(zip(graph.edge_types(), graph.key))
    assert (graph == other) == (graph.key == other.key)
    assert (graph == other) == (as_dict == dict(zip(other.edge_types(), other.key)))
