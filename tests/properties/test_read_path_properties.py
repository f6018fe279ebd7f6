"""Property tests: the array-native read path equals the loops it replaced.

Everything around the power iteration on the live path — the Eq. 2-4 base
set, stage-1 top-N, the restart vector, top-k selection and the label filter
— is array code whose contract is *bit identity* with the per-document /
per-node loops kept in ``tests/ir/reference.py``: same floats, same dict key
order, same tie order.  ``==`` throughout, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyBaseSetError
from repro.ir import (
    BM25Scorer,
    InvertedIndex,
    TfIdfScorer,
    UniformScorer,
)
from repro.query import QueryVector
from repro.query.engine import select_top
from repro.ranking import RankedResult, weighted_base_set
from repro.retrieval import restricted_base_set, top_n_candidates

from tests.ir.reference import (
    reference_first_hit_order,
    reference_restart_vector,
    reference_select_top,
    reference_top_k,
    reference_top_n,
    reference_weighted_base_set,
)
from tests.properties.strategies import dblp_transfer_graphs

SCORERS = (BM25Scorer, TfIdfScorer, UniformScorer)

#: ``corpus`` lands in most documents, so its clamped BM25 idf is exactly 0 and
#: every document it alone admits takes the minimum-positive floor.
_WORDS = (
    "olap", "cube", "xml", "mining", "query", "index", "stream", "rank",
    "graph", "join", "search", "web",
)
_COMMON = "corpus"
_ABSENT = "zzzabsent"

_texts = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=6).flatmap(
    lambda words: st.booleans().map(
        lambda common: " ".join(words + [_COMMON] * (2 if common else 0))
    )
)
_weights = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(0.01, 5.0, allow_nan=False)
)


@st.composite
def corpora(draw):
    """Documents ``d0..dn`` over a small vocabulary, most holding ``corpus``."""
    texts = draw(st.lists(_texts, min_size=1, max_size=12))
    return [(f"d{i}", text + f" {_COMMON}" * (i % 4 != 0)) for i, text in enumerate(texts)]


@st.composite
def query_vectors(draw):
    terms = draw(
        st.lists(
            st.sampled_from(_WORDS + (_COMMON, _ABSENT)),
            min_size=1, max_size=5, unique=True,
        )
    )
    return QueryVector({term: draw(_weights) for term in terms})


@st.composite
def long_query_vectors(draw):
    """1-12 weighted terms: one dominant term beside light tails included."""
    terms = draw(
        st.lists(
            st.sampled_from(_WORDS + (_COMMON, _ABSENT)),
            min_size=1, max_size=12, unique=True,
        )
    )
    return QueryVector({term: draw(_weights) for term in terms})


def assert_same_base_set(scorer, vector):
    """Array base set == reference loop: key order and floats, or both raise."""
    try:
        expected = reference_weighted_base_set(scorer, vector)
    except EmptyBaseSetError:
        with pytest.raises(EmptyBaseSetError):
            weighted_base_set(scorer, vector)
        return
    assert list(weighted_base_set(scorer, vector).items()) == list(expected.items())


@given(corpora(), query_vectors())
@settings(max_examples=150, deadline=None)
def test_base_set_equals_the_document_at_a_time_loop(documents, vector):
    index = InvertedIndex.from_documents(documents)
    for scorer_cls in SCORERS:
        assert_same_base_set(scorer_cls(index), vector)


@given(corpora(), long_query_vectors(), st.integers(1, 15))
@settings(max_examples=100, deadline=None)
def test_top_n_equals_the_document_at_a_time_loop(documents, vector, n):
    """Stage-1 candidates == the oracle: ids, score floats, tie order and
    first-hit order, for budgets below, at and above ``|S(Q)|``."""
    index = InvertedIndex.from_documents(documents)
    for scorer_cls in SCORERS:
        scorer = scorer_cls(index)
        try:
            ranked = reference_top_n(scorer, vector, len(documents))
        except EmptyBaseSetError:
            with pytest.raises(EmptyBaseSetError):
                top_n_candidates(scorer, vector, n)
            continue
        size = len(ranked)  # |S(Q)|
        for budget in sorted({n, max(1, size - n), size, size + n}):
            top = top_n_candidates(scorer, vector, budget)
            assert [(c.doc_id, c.score) for c in top] == ranked[:budget]
            assert top.first_hit_order == reference_first_hit_order(
                scorer, vector, top.doc_ids
            )
            assert (top.evaluated, top.pruned) == (size, 0)
        # Candidates covering S(Q): the restricted base set IS the base set.
        everything = top_n_candidates(scorer, vector, size)
        assert list(restricted_base_set(everything).items()) == list(
            reference_weighted_base_set(scorer, vector).items()
        )


def test_all_zero_scores_take_the_unit_floor():
    """Only the idf-0 term matches: every weight is the uniform share."""
    index = InvertedIndex.from_documents(
        [("a", "corpus olap"), ("b", "corpus"), ("c", "corpus corpus")]
    )
    scorer = BM25Scorer(index)
    assert scorer.idf(_COMMON) == 0.0
    vector = QueryVector({_COMMON: 1.0})
    assert_same_base_set(scorer, vector)
    assert weighted_base_set(scorer, vector) == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}


def test_absent_and_zero_weight_terms_raise_empty_base_set():
    index = InvertedIndex.from_documents([("a", "olap cube")])
    for scorer_cls in SCORERS:
        for weights in ({_ABSENT: 1.0}, {"olap": 0.0}, {"olap": 0.0, _ABSENT: 2.0}):
            with pytest.raises(EmptyBaseSetError):
                weighted_base_set(scorer_cls(index), QueryVector(weights))


# -- the columns follow the index through ingest's path and persistence ---------

_mutations = st.lists(
    st.tuples(st.sampled_from(("add", "readd", "remove")), st.integers(0, 20), _texts),
    min_size=1, max_size=6,
)


@given(corpora(), _mutations, query_vectors())
@settings(max_examples=100, deadline=None)
def test_base_set_after_mutating_a_copy(documents, mutations, vector):
    """Ingest's path: warm the columns, ``copy()``, mutate, query both."""
    index = InvertedIndex.from_documents(documents)
    for scorer_cls in SCORERS:
        assert_same_base_set(scorer_cls(index), vector)  # columns now built
    working = index.copy()
    for position, (kind, which, text) in enumerate(mutations):
        doc_id = documents[which % len(documents)][0]
        if kind == "add":
            working.add_document(f"new{position}", text + f" {_COMMON}")
        elif kind == "readd":  # moves the document to the end of every order
            working.add_document(doc_id, text)
        else:
            working.remove_document(doc_id)
        for scorer_cls in SCORERS:  # a query between mutations rebuilds them
            assert_same_base_set(scorer_cls(working), vector)
    for scorer_cls in SCORERS:  # the published index never noticed
        assert_same_base_set(scorer_cls(index), vector)


# -- top-k, restart vector, label filter ------------------------------------------

_tied_scores = st.lists(
    st.sampled_from((0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0),
    min_size=0, max_size=40,
)


@given(_tied_scores, st.integers(0, 8), st.integers(-1, 50))
@settings(max_examples=200, deadline=None)
def test_top_k_equals_the_stable_argsort(head, zero_tail, k):
    scores = np.array(head + [0.0] * zero_tail, dtype=np.float64)
    node_ids = [f"n{i}" for i in range(scores.size)]
    ranked = RankedResult(node_ids, scores, iterations=0, converged=True)
    assert ranked.top_k(k) == reference_top_k(node_ids, scores, k)


@given(dblp_transfer_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_restart_vector_equals_the_dict_loop(atdg, data):
    node_ids = data.draw(
        st.lists(st.sampled_from(atdg.node_ids), min_size=0, max_size=8, unique=True)
    )
    base = {node_id: data.draw(st.floats(0.0, 1.0)) for node_id in node_ids}
    assert np.array_equal(
        atdg.restart_vector(base), reference_restart_vector(atdg, base)
    )


@given(
    dblp_transfer_graphs(),
    st.lists(st.sampled_from((0.0, 0.1, 0.1, 0.7)), min_size=40, max_size=40),
    st.lists(
        st.sampled_from(("Paper", "Author", "Year", "Conference", "Nope")),
        min_size=1, max_size=3, unique=True,
    ),
    st.integers(1, 12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_label_filter_equals_the_ranking_walk(atdg, values, labels, k, foreign):
    node_ids = list(atdg.node_ids)
    if foreign:  # a newer store generation names a node this graph predates
        node_ids.insert(1, "paper:from-the-future")
    scores = np.array(values[: len(node_ids)] + [0.0] * (len(node_ids) - 40))
    ranked = RankedResult(node_ids, scores, iterations=0, converged=True)
    labels = tuple(labels)
    for _ in range(2):  # second call answers from the cached label codes
        assert select_top(atdg.data_graph, ranked, k, labels) == reference_select_top(
            atdg.data_graph, ranked, k, labels
        )
