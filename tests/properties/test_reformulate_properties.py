"""Property-based tests for reformulation invariants (Section 5)."""

import dataclasses

from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.datasets import biological_transfer_schema, dblp_transfer_schema
from repro.explain import (
    adjust_flows,
    batched_adjust_flows,
    batched_build_explaining_subgraphs,
    build_explaining_subgraph,
)
from repro.graph import AuthorityTransferDataGraph
from repro.ir.index import InvertedIndex
from repro.ir.tokenize import DEFAULT_STOPWORDS, Analyzer
from repro.query import QueryVector
from repro.reformulate import (
    AGGREGATORS,
    ContentReformulator,
    Reformulator,
    StructureReformulator,
)

from tests.properties.strategies import dblp_transfer_graphs, rate_vectors
from tests.properties.test_explain_batch_properties import same_bits
from tests.ranking.reference import objectrank
from tests.reformulate.reference import (
    FlowsByType,
    reference_flow_by_edge_type,
    reference_reformulate,
    reference_scaled_to_convergent,
    reference_structure_reformulate,
    reference_term_weights,
)


def _explanation(atdg, target_index):
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    result = objectrank(atdg, papers, damping=0.85, tolerance=1e-12)
    target = papers[target_index % len(papers)]
    subgraph = build_explaining_subgraph(atdg, papers, target, radius=None)
    return adjust_flows(subgraph, result.scores, 0.85, tolerance=1e-12)


#: Rate floors: every schema below has at most four outgoing types per
#: label, so ``k * epsilon <= 1`` and a convergent schema always exists.
EPSILONS = st.sampled_from([0.0, 1e-6, 1e-5, 1e-3, 0.05])


@st.composite
def floored_schemas(draw):
    """A DBLP or biological transfer schema under an epsilon floor, with
    random rates in [0, 2] (outgoing sums well above 1 included)."""
    build = draw(st.sampled_from([dblp_transfer_schema, biological_transfer_schema]))
    schema = build(epsilon=draw(EPSILONS))
    size = len(schema.edge_types())
    return schema.with_vector(
        draw(st.lists(st.floats(0.0, 2.0), min_size=size, max_size=size))
    )


def _floored(schema) -> bool:
    return all(rate >= schema.epsilon for rate in schema.as_vector())


@given(floored_schemas())
@settings(max_examples=200, deadline=None)
def test_scaled_to_convergent_result_always_convergent(schema):
    """Dividing by the sum and re-flooring at epsilon left sums above 1."""
    after = schema.scaled_to_convergent()
    assert after.is_convergent()
    assert _floored(after)
    for edge_type in schema.edge_types():
        if schema.outgoing_rate_sum(edge_type.source) <= 1.0:
            assert after.rate(edge_type) == schema.rate(edge_type)
    if schema.epsilon == 0.0:
        expected = reference_scaled_to_convergent(schema)
        assert after.as_vector() == expected.as_vector()


@given(floored_schemas(), st.data(), st.floats(0.05, 1.0))
@settings(max_examples=200, deadline=None)
def test_structure_result_always_convergent(schema, data, cf):
    """Equation 13 from a convergent schema under any epsilon floor and any
    flow factors stays convergent (step 4 of the normalisation)."""
    before = schema.scaled_to_convergent()
    assume(before.is_convergent())
    edge_types = before.edge_types()
    flows = data.draw(
        st.lists(st.floats(0.0, 10.0), min_size=len(edge_types), max_size=len(edge_types))
    )
    explanation = FlowsByType(dict(zip(edge_types, flows)), edge_types)
    reformulator = StructureReformulator(cf)
    after = reformulator.reformulate(before, [explanation])
    assert after.is_convergent()
    assert _floored(after)
    if before.epsilon == 0.0:
        expected = reference_structure_reformulate(
            reformulator, before, explanation.factors
        )
        assert after.as_vector() == expected.as_vector()


@given(dblp_transfer_graphs(), st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_structure_preserves_zero_rates(atdg, target_index):
    """A zero-rate edge type (DBLP's 'cited') can never gain rate: Equation
    13 multiplies the previous rate."""
    explanation = _explanation(atdg, target_index)
    before = dblp_transfer_schema()
    after = StructureReformulator(0.7).reformulate(before, [explanation])
    for edge_type in before.edge_types():
        if before.rate(edge_type) == 0.0:
            assert after.rate(edge_type) == 0.0


@given(dblp_transfer_graphs(), st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_max_flow_type_gets_max_relative_boost(atdg, target_index):
    explanation = _explanation(atdg, target_index)
    factors = reference_flow_by_edge_type(explanation)
    if not factors or max(factors.values()) <= 0:
        return
    before = dblp_transfer_schema()
    after = StructureReformulator(0.5).reformulate(before, [explanation])
    ratios = {
        t: after.rate(t) / before.rate(t)
        for t in before.edge_types()
        if before.rate(t) > 0
    }
    best_type = max(
        (t for t in factors if before.rate(t) > 0),
        key=lambda t: factors[t],
        default=None,
    )
    if best_type is not None:
        assert ratios[best_type] >= max(ratios.values()) - 1e-9


@given(dblp_transfer_graphs(), st.integers(0, 50), st.floats(0.05, 1.0))
@settings(max_examples=20, deadline=None)
def test_content_weights_non_negative_and_no_stopwords(atdg, target_index, decay):
    explanation = _explanation(atdg, target_index)
    reformulator = ContentReformulator(decay=decay, expansion_factor=0.5)
    weights = reformulator.term_weights(explanation)
    assert all(w >= 0 for w in weights.values())
    assert all(t not in DEFAULT_STOPWORDS for t in weights)


@given(dblp_transfer_graphs(), st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_content_reformulation_never_drops_query_terms(atdg, target_index):
    explanation = _explanation(atdg, target_index)
    reformulator = ContentReformulator()
    vector = QueryVector({"olap": 1.0, "xml": 2.0})
    new_vector = reformulator.reformulate(vector, [explanation])
    for term in vector.terms:
        assert new_vector.weight(term) >= vector.weight(term)


@given(rate_vectors())
@settings(max_examples=40, deadline=None)
def test_rate_vector_round_trip(vector):
    from repro.datasets import dblp_edge_order

    schema = dblp_transfer_schema()
    order = dblp_edge_order(schema.schema)
    rebuilt = schema.with_vector(vector, order)
    assert rebuilt.as_vector(order) == [float(v) for v in vector]


# -- array-native Equations 11 / 15 == the reference loops ---------------------
#
# Exact equality, not a tolerance: the vectorised reductions add the same
# floats in the same order as the loops in tests/reformulate/reference.py.

#: Titles that repeat a term inside one node and carry single letters,
#: digits and stopwords next to real terms.
_NOISY_WORDS = (
    "olap", "olap olap", "cube", "xml", "mining cube mining", "r", "x",
    "the", "of", "a", "the olap of r", "42", "b2b", "stream",
)

#: Analyzers an index may be built with: Equation 11's terms are the same
#: under each.
_ANALYZERS = st.sampled_from(
    [
        Analyzer(min_token_length=2),  # the expansion rule's own length
        Analyzer(),  # single letters are indexed
        Analyzer(keep_stopwords=True),  # stopwords are indexed
    ]
)


def _batched_explanations(atdg, seed_value, count):
    """``count`` explanations over mixed targets: papers, an author and the
    conference (no positive-rate path reaches it: target-only subgraph)."""
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    result = objectrank(atdg, papers, damping=0.85, tolerance=1e-12)
    pool = papers + ["author:0", "conf:0"]
    targets = [pool[(seed_value + 3 * i) % len(pool)] for i in range(count)]
    subgraphs = batched_build_explaining_subgraphs(atdg, papers, targets, None)
    return batched_adjust_flows(subgraphs, result.scores, 0.85, 1e-12)


def _same_items(got: dict, expected: dict) -> None:
    """Equal keys, bit-equal floats, same insertion order."""
    assert list(got.items()) == list(expected.items())


def _same_type_flows(explanation) -> None:
    """``type_flows`` over every edge type == the per-edge loop's dict:
    present exactly where the loop has the type, bit-equal totals there,
    0.0 elsewhere."""
    totals, present = explanation.type_flows()
    expected = reference_flow_by_edge_type(explanation)
    edge_types = explanation.graph.edge_types
    assert [t for i, t in enumerate(edge_types) if present[i]] == sorted(
        expected, key=edge_types.index
    )
    assert same_bits(totals, [expected.get(t, 0.0) for t in edge_types])


@seed(14)
@given(
    dblp_transfer_graphs(words=_NOISY_WORDS),
    st.integers(0, 100),
    st.floats(0.05, 1.0),
    _ANALYZERS,
)
@settings(max_examples=40, deadline=None)
def test_term_weights_equal_reference_loop(atdg, seed_value, decay, analyzer):
    """Whichever analyzer indexed the corpus, the weights read off its index
    equal the loop that tokenises node text with the expansion analyzer."""
    data_graph = atdg.data_graph
    indexed = AuthorityTransferDataGraph(
        data_graph, atdg.transfer_schema, InvertedIndex.from_graph(data_graph, analyzer)
    )
    reformulator = ContentReformulator(decay=decay)
    for explanation in _batched_explanations(indexed, seed_value, 3):
        _same_items(
            reformulator.term_weights(explanation),
            reference_term_weights(reformulator, explanation),
        )


@seed(14)
@given(dblp_transfer_graphs(words=_NOISY_WORDS), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_flow_by_edge_type_equals_reference_loop(atdg, seed_value):
    for explanation in _batched_explanations(atdg, seed_value, 3):
        _same_type_flows(explanation)


@seed(14)
@given(dblp_transfer_graphs(words=_NOISY_WORDS), st.integers(0, 100), st.data())
@settings(max_examples=40, deadline=None)
def test_zero_flow_nodes_contribute_no_terms(atdg, seed_value, data):
    """Edges with their flow zeroed leave some nodes without outflow: their
    terms must be absent (not present with weight 0.0), as in the loop."""
    (explanation,) = _batched_explanations(atdg, seed_value, 1)
    keep = data.draw(
        st.lists(
            st.booleans(),
            min_size=len(explanation.flows),
            max_size=len(explanation.flows),
        )
    )
    zeroed = dataclasses.replace(explanation, flows=explanation.flows * keep)
    reformulator = ContentReformulator()
    _same_items(
        reformulator.term_weights(zeroed),
        reference_term_weights(reformulator, zeroed),
    )
    _same_type_flows(zeroed)


@seed(14)
@given(
    dblp_transfer_graphs(words=_NOISY_WORDS),
    st.integers(0, 100),
    st.integers(1, 3),
    st.sampled_from(sorted(AGGREGATORS)),
)
@settings(max_examples=60, deadline=None)
def test_reformulate_equals_reference_loops(atdg, seed_value, count, aggregation):
    """The whole step — Eq. 14/15 aggregation, top-Z, Eq. 12 and Eq. 13 —
    from 1-3 feedback objects under every aggregator."""
    explanations = _batched_explanations(atdg, seed_value, count)
    reformulator = Reformulator.with_factors(0.5, 0.5, decay=0.5, num_terms=5)
    reformulator.content.aggregation = aggregation
    reformulator.structure.aggregation = aggregation
    vector = QueryVector({"olap": 1.0, "xml": 2.0})
    schema = dblp_transfer_schema()
    got = reformulator.reformulate(vector, schema, explanations)
    expected = reference_reformulate(reformulator, vector, schema, explanations)
    assert got == expected
    _same_items(got.query_vector.weights, expected.query_vector.weights)
    assert got.transfer_schema.as_vector() == expected.transfer_schema.as_vector()


@seed(14)
@given(dblp_transfer_graphs(words=_NOISY_WORDS), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_target_inflow_equals_the_global_mask(atdg, seed_value):
    """``target_inflow`` masks the subgraph-local endpoints: the same flows
    in the same order as ``incoming_flow(target)``'s mask over the global
    edge targets, so the same bits — for batched explanations (target-only
    subgraphs included) and a serial one."""
    explanations = _batched_explanations(atdg, seed_value, 3)
    for explanation in [*explanations, _explanation(atdg, seed_value)]:
        target = explanation.subgraph.target
        assert same_bits([explanation.target_inflow()], [explanation.incoming_flow(target)])
