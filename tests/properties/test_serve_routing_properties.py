"""Properties: ``mode=auto`` has one precomputed policy, full coverage, and
no feedback moves a later search off it.

A ``/search`` in ``auto`` mode is answered from the per-keyword vectors —
``precomputed`` in process, ``store`` off a mapped generation — exactly when
the query has a positive-weight term and every positive-weight term has a
column.  Any other query runs live, and its page is the engine's own
ObjectRank2 page bit for bit.  Queries mix ``dblp_tiny`` terms with a
column (df >= 2, the default ``min_df``), df = 1 terms without one, a term
the corpus lacks, and zero weights.

The rates a ``/feedback/reformulate`` request learns rank only its own
re-run: searches interleaved with feedback are answered from the same path,
with the same rows, as by a service that never saw any feedback.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyBaseSetError
from repro.query import QueryVector
from repro.ranking.precompute import PrecomputedRanker
from repro.serve import QueryService, ServeConfig
from repro.store import build_and_publish
from tests.properties.test_explain_batch_properties import same_bits

TOP_K = 10
PROVIDERS = ("precomputed", "store")


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, dblp_tiny_engine):
    """A store directory with ``dblp_tiny``'s vectors published."""
    engine = dblp_tiny_engine
    root = tmp_path_factory.mktemp("stores")
    build_and_publish(
        root / "dblp_tiny", PrecomputedRanker(engine.graph, engine.index), "dblp_tiny"
    )
    return root


def _service(label: str, dataset, root) -> QueryService:
    """A service whose covered queries are answered from ``label``."""
    config = ServeConfig(store_dir=str(root)) if label == "store" else ServeConfig()
    return QueryService(config, datasets={"dblp_tiny": dataset})


@pytest.fixture(scope="module")
def services(store_root, dblp_tiny):
    """``served_from`` label -> a service answering from that provider."""
    return {label: _service(label, dblp_tiny, store_root) for label in PROVIDERS}


@pytest.fixture(scope="module")
def feedback_pairs(store_root, dblp_tiny):
    """``served_from`` label -> (a service that takes feedback, one that
    sees the same searches and no feedback)."""
    return {
        label: (_service(label, dblp_tiny, store_root), _service(label, dblp_tiny, store_root))
        for label in PROVIDERS
    }


@pytest.fixture(scope="module")
def vocabulary(dblp_tiny_engine):
    """``(terms with a column, df = 1 terms without one)``."""
    index = dblp_tiny_engine.index
    covered = index.vocabulary(2)
    rare = sorted(set(index.vocabulary(1)) - set(covered))
    assert covered and rare
    return covered, rare


def queries(covered: list[str], rare: list[str]):
    terms = st.one_of(
        st.sampled_from(covered), st.sampled_from(rare), st.just("zzzabsent")
    )
    weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 5.0))
    return st.dictionaries(terms, weights, min_size=1, max_size=4)


def _page(response: dict) -> tuple[list[str], list[float]]:
    rows = response["results"]
    return [row["id"] for row in rows], [row["score"] for row in rows]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_auto_blends_exactly_the_covered_queries(
    services, vocabulary, dblp_tiny_engine, data
):
    covered, rare = vocabulary
    vector = QueryVector(data.draw(queries(covered, rare)))
    positive = [term for term in vector.terms if vector.weight(term) > 0]
    blendable = bool(positive) and set(positive) <= set(covered)
    for label, service in services.items():
        service.cache.invalidate()  # a repeat draw must reach the router
        response = service.search("dblp_tiny", vector, top_k=TOP_K)
        ids, scores = _page(response)
        if blendable:
            assert response["served_from"] == label
            ranker = service.runtime("dblp_tiny").precomputed_ranker()
            expected = ranker.rank(vector).top_k(TOP_K)
        else:
            assert response["served_from"] == "live"
            try:
                expected = dblp_tiny_engine.search(vector, top_k=TOP_K).top
            except EmptyBaseSetError:
                expected = []
        assert ids == [node_id for node_id, _ in expected]
        assert same_bits(scores, [score for _, score in expected])


def interleavings(covered: list[str]):
    """Searches of covered queries (one or two terms, a page size) and
    feedback on a covered query marking one of its top three hits."""
    query = st.lists(st.sampled_from(covered), min_size=1, max_size=2, unique=True)
    search = st.tuples(st.just("search"), query, st.sampled_from([5, TOP_K]))
    feedback = st.tuples(st.just("feedback"), query, st.integers(0, 2))
    return st.lists(st.one_of(search, feedback), min_size=2, max_size=6)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_feedback_leaves_every_later_search_as_it_was(
    feedback_pairs, vocabulary, dblp_tiny_engine, data
):
    covered, _ = vocabulary
    for op, terms, extra in data.draw(interleavings(covered)):
        vector = QueryVector(dict.fromkeys(terms, 1.0))
        for label, (fed, fresh) in feedback_pairs.items():
            if op == "feedback":
                top = dblp_tiny_engine.search(vector, top_k=3).top
                fed.feedback_reformulate("dblp_tiny", vector, [top[extra % len(top)][0]])
                continue
            got = fed.search("dblp_tiny", vector, top_k=extra)
            expected = fresh.search("dblp_tiny", vector, top_k=extra)
            assert got["served_from"] == expected["served_from"]
            assert got["served_from"] in (label, "cache")
            ids, scores = _page(got)
            assert ids == _page(expected)[0]
            assert same_bits(scores, _page(expected)[1])
