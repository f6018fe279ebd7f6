"""Property tests: the paper's loop stays in arrays and moves no bit.

Equations 2-4's base set goes from index ordinals to node indices, weights
and the restart column without a document id; Equations 11/14's expansion
terms are one aggregation over the node-term vocabulary and a partial top-Z.
Each must equal the loops they replaced — ``tests/ir/reference.py``'s base
set and restart vector, ``tests/reformulate/reference.py``'s dict
aggregation and ``heapq.nsmallest`` — float for float by bit pattern, with
the compiled kernels and with them forced off (the ``step`` fixture).

The edges pinned here: a term in more than half the documents (BM25 clamps
its idf to 0 and the floor lifts its documents), repeated and zero-weight
query terms, an empty base set, an index document with no graph node, a
live search after an ingest ``add_node``, tied expansion weights, every
aggregator over 1-3 explanations, and Equation 10 overflowing under rates
whose outgoing sums exceed 1.  On overflow the term weights can be ``inf``
but never NaN (a NaN outflow contributes nothing, as in the loop), so the
top-Z agrees with the reference; a NaN per-type total (Equation 15) raises
:class:`~repro.errors.ParameterError`, where the dict loop's answer would
depend on the order of its keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.errors import EmptyBaseSetError, ParameterError, ReproError, UnknownNodeError
from repro.explain import batched_adjust_flows, batched_build_explaining_subgraphs
from repro.graph import AuthorityTransferDataGraph, DataGraph
from repro.ingest import IngestEngine
from repro.ir import BM25Scorer, InvertedIndex
from repro.query import KeywordQuery, QueryVector
from repro.ranking import objectrank2, weighted_base_set, weighted_restarts
from repro.reformulate import AGGREGATORS, ContentReformulator, Reformulator, top_weights

from tests.ir.reference import reference_restart_vector, reference_weighted_base_set
from tests.properties.strategies import dblp_graphs
from tests.properties.test_explain_batch_properties import same_bits
from tests.properties.test_fixpoint_cap_properties import step  # the kernel/numpy fixture
from tests.ranking.reference import objectrank, reference_power_iteration
from tests.reformulate.reference import (
    aggregate_maps,
    reference_expansion_terms,
    reference_reformulate,
    reference_term_weights,
    reference_top_terms,
)

#: ``corpus`` is in almost every title: with more papers than other nodes
#: its df exceeds n/2, its BM25 idf clamps to 0 and the floor lifts it.
_TITLES = ("corpus olap", "corpus", "corpus xml cube", "corpus mining", "olap cube")
_QUERY_WORDS = ("corpus", "olap", "cube", "xml", "mining", "icde", "zzzabsent")
PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _items_same(got, expected) -> bool:
    """Same keys in the same order, the same float bit patterns."""
    return list(got) == list(expected) and same_bits(
        list(got.values()), list(expected.values())
    )


@st.composite
def queries(draw):
    """A query vector: keyword text with repeats, or explicit weights with
    zeros, over words the corpus has, lacks, or has almost everywhere."""
    words = draw(st.lists(st.sampled_from(_QUERY_WORDS), min_size=1, max_size=5))
    if draw(st.booleans()):
        return KeywordQuery(words).vector()  # a repeated keyword weighs more
    weights = st.sampled_from((0.0, 0.0, 1.0, 2.5))
    return QueryVector({word: draw(weights) for word in words})


def assert_base_set_and_restart(graph, scorer, vector) -> None:
    """Array base set, restart column and ObjectRank2 == the loops."""
    try:
        expected = reference_weighted_base_set(scorer, vector)
    except EmptyBaseSetError:
        with pytest.raises(EmptyBaseSetError):
            weighted_base_set(scorer, vector, graph)
        with pytest.raises(EmptyBaseSetError):
            objectrank2(graph, scorer, vector)
        return
    assert _items_same(weighted_base_set(scorer, vector), expected)
    base = weighted_base_set(scorer, vector, graph)
    assert _items_same(base, expected)
    restart = reference_restart_vector(graph, expected)
    (weighted,) = weighted_restarts(graph, [base]).base_weights
    assert same_bits(graph.restart_vector(weighted), restart)
    ranked = objectrank2(graph, scorer, vector)
    reference = reference_power_iteration(graph.matrix(), restart)
    assert same_bits(ranked.scores, reference.scores)
    assert ranked.iterations == reference.iterations
    assert _items_same(ranked.base_weights, expected)


@given(graph=dblp_graphs(min_papers=4, words=_TITLES), vector=queries())
@PROPERTY
def test_the_array_base_set_equals_the_loops(step, graph, vector):
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    index = InvertedIndex.from_graph(graph)
    assert_base_set_and_restart(atdg, BM25Scorer(index), vector)


def test_a_term_in_most_documents_is_lifted_by_the_floor():
    """The df > n/2 edge, reached for certain: idf 0, every weight the floor."""
    graph = DataGraph()
    graph.add_node("conf:0", "Conference", {"name": "icde"})
    graph.add_node("year:0", "Year", {"name": "icde", "year": "1997"})
    graph.add_edge("conf:0", "year:0", "has")
    graph.add_node("author:0", "Author", {"name": "author0"})
    for p, title in enumerate(("corpus", "corpus olap", "corpus", "corpus xml")):
        graph.add_node(f"paper:{p}", "Paper", {"title": title})
        graph.add_edge("year:0", f"paper:{p}", "contains")
        graph.add_edge(f"paper:{p}", "author:0", "by")
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    scorer = BM25Scorer(InvertedIndex.from_graph(graph))
    assert scorer.idf("corpus") == 0.0
    vector = QueryVector({"corpus": 1.0, "olap": 0.0})
    assert_base_set_and_restart(atdg, scorer, vector)
    weights = weighted_base_set(scorer, vector, atdg).values_array
    assert weights.size == 4 and np.unique(weights).size == 1


@given(graph=dblp_graphs(min_papers=2, words=_TITLES), vector=queries())
@PROPERTY
def test_a_document_with_no_node_is_refused_where_the_base_set_reaches_it(
    graph, vector
):
    """An index document the graph lacks raises ``UnknownNodeError`` naming
    it when the base set is laid out on the graph, as the id loop does."""
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    index = InvertedIndex.from_graph(graph)
    index.add_document("paper:ghost", "corpus olap cube xml mining icde")
    scorer = BM25Scorer(index)
    try:
        expected = reference_weighted_base_set(scorer, vector)
    except EmptyBaseSetError:
        with pytest.raises(EmptyBaseSetError):
            weighted_base_set(scorer, vector, atdg)
        return
    assert _items_same(weighted_base_set(scorer, vector), expected)
    if "paper:ghost" not in expected:
        assert _items_same(weighted_base_set(scorer, vector, atdg), expected)
        return
    with pytest.raises(UnknownNodeError) as loop:
        reference_restart_vector(atdg, expected)
    with pytest.raises(UnknownNodeError) as arrays:
        weighted_base_set(scorer, vector, atdg)
    assert arrays.value.node_id == loop.value.node_id == "paper:ghost"
    with pytest.raises(UnknownNodeError):
        objectrank2(atdg, scorer, vector)


@given(
    graph=dblp_graphs(min_papers=3, max_papers=6, words=_TITLES),
    title=st.lists(st.sampled_from(_QUERY_WORDS[:5]), min_size=1, max_size=3),
    vector=queries(),
)
@PROPERTY
def test_a_live_search_after_an_ingest_add_node_equals_a_fresh_build(
    step, graph, title, vector
):
    """The ordinal -> node table follows the index and the graph through a
    refresh: the refreshed snapshot answers as one built from scratch."""
    ingest = IngestEngine(graph, dblp_transfer_schema(), min_document_frequency=1)
    ingest.refresh(precompute=False)
    ingest.add_node("paper:new", "Paper", {"title": " ".join(title)})
    ingest.add_edge("year:0", "paper:new", "contains")
    ingest.add_edge("paper:new", "author:0", "by")
    refreshed = ingest.refresh(precompute=False)
    assert_base_set_and_restart(
        refreshed.graph, BM25Scorer(refreshed.index), vector
    )
    fresh_graph = refreshed.graph.data_graph.copy()
    fresh = AuthorityTransferDataGraph(fresh_graph, dblp_transfer_schema())
    fresh_scorer = BM25Scorer(InvertedIndex.from_graph(fresh_graph))
    try:
        cold = objectrank2(fresh, fresh_scorer, vector)
    except EmptyBaseSetError:
        with pytest.raises(EmptyBaseSetError):
            objectrank2(refreshed.graph, BM25Scorer(refreshed.index), vector)
        return
    live = objectrank2(refreshed.graph, BM25Scorer(refreshed.index), vector)
    assert _items_same(live.base_weights, cold.base_weights)
    assert same_bits(live.scores, cold.scores)


# -- Equations 11 and 14: the array top-Z == heapq.nsmallest over the dicts ------

#: Titles whose words repeat across nodes: a node's terms share its one
#: contribution, so tied weights are the rule, and the tie-break is by term.
_TIED = ("olap cube", "cube olap xml", "xml", "mining stream", "olap", "rank join")


def _explanations(atdg, seed_value, count, rates=None):
    papers = [n for n in atdg.node_ids if n.startswith("paper:")]
    scores = objectrank(atdg, papers, damping=0.85, tolerance=1e-12).scores
    view = atdg if rates is None else atdg.with_rates(rates)
    pool = papers + ["author:0", "conf:0"]
    targets = [pool[(seed_value + 3 * i) % len(pool)] for i in range(count)]
    subgraphs = batched_build_explaining_subgraphs(view, papers, targets, None)
    with np.errstate(over="ignore", invalid="ignore"):
        return batched_adjust_flows(subgraphs, scores, 0.85, 1e-12)


def assert_top_z(explanations, how, z) -> None:
    reformulator = ContentReformulator(num_terms=z, aggregation=how)
    raw = aggregate_maps(
        [reference_term_weights(reformulator, e) for e in explanations], how
    )
    expected = reference_top_terms(raw, z)
    got = top_weights(*reformulator.aggregated_terms(explanations), z)
    assert [term for term, _ in got] == [term for term, _ in expected]
    assert same_bits([w for _, w in got], [w for _, w in expected])
    vector = QueryVector({"olap": 1.0, "xml": 2.0})
    terms = reformulator.expansion_terms(vector, explanations)
    reference = reference_expansion_terms(reformulator, vector, explanations)
    assert [term for term, _ in terms] == [term for term, _ in reference]
    assert same_bits([w for _, w in terms], [w for _, w in reference])


@given(
    graph=dblp_graphs(min_papers=3, words=_TIED),
    seed_value=st.integers(0, 100),
    count=st.integers(1, 3),
    how=st.sampled_from(sorted(AGGREGATORS)),
    z=st.integers(1, 8),
)
@PROPERTY
def test_the_array_top_z_equals_nsmallest_over_the_dicts(
    step, graph, seed_value, count, how, z
):
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    assert_top_z(_explanations(atdg, seed_value, count), how, z)


#: Every rate 1.0: each label's outgoing rates sum to 2 or more, and the
#: Equation 10 fixpoint grows until it overflows.
_HOT = dblp_transfer_schema().with_vector([1.0] * 8)


@given(
    graph=dblp_graphs(min_papers=3, words=_TIED),
    seed_value=st.integers(0, 100),
    count=st.integers(1, 3),
    how=st.sampled_from(sorted(AGGREGATORS)),
    z=st.integers(1, 8),
)
@PROPERTY
def test_an_overflowing_fixpoint_agrees_or_raises_a_typed_error(
    step, graph, seed_value, count, how, z
):
    """Eq. 10 over rates summing above 1: term weights reach ``inf`` and the
    top-Z still agrees with the loops; the whole step either equals the
    reference or, when a per-type flow total is NaN, raises
    ``ParameterError``."""
    atdg = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    explanations = _explanations(atdg, seed_value, count, _HOT)
    assert_top_z(explanations, how, z)
    reformulator = Reformulator.with_factors(0.5, 0.5, num_terms=z)
    reformulator.content.aggregation = reformulator.structure.aggregation = how
    vector = QueryVector({"olap": 1.0, "xml": 2.0})
    got, got_error = _outcome(lambda: reformulator.reformulate(vector, _HOT, explanations))
    expected, expected_error = _outcome(
        lambda: reference_reformulate(reformulator, vector, _HOT, explanations)
    )
    nan_type_total = any(np.isnan(e.type_flows()[0]).any() for e in explanations)
    if got_error is ParameterError and nan_type_total:
        return  # the dict loop's Eq. 13 would depend on its keys' order
    assert got_error is expected_error
    assert got == expected


def _outcome(call):
    """``(answer, None)``, or ``(None, the ReproError type it raised)``."""
    try:
        return call(), None
    except ReproError as error:
        return None, type(error)
