"""Property: ``mode=auto`` has one precomputed policy, full coverage.

A ``/search`` in ``auto`` mode is answered from the per-keyword vectors —
``precomputed`` in process, ``store`` off a mapped generation — exactly when
the query has a positive-weight term and every positive-weight term has a
column.  Any other query runs live, and its page is the engine's own
ObjectRank2 page bit for bit.  Queries mix ``dblp_tiny`` terms with a
column (df >= 2, the default ``min_df``), df = 1 terms without one, a term
the corpus lacks, and zero weights.
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


@pytest.fixture(scope="module")
def services(tmp_path_factory, dblp_tiny, dblp_tiny_engine):
    """``served_from`` label -> a service answering from that provider."""
    engine = dblp_tiny_engine
    root = tmp_path_factory.mktemp("stores")
    build_and_publish(
        root / "dblp_tiny", PrecomputedRanker(engine.graph, engine.index), "dblp_tiny"
    )
    return {
        "precomputed": QueryService(datasets={"dblp_tiny": dblp_tiny}),
        "store": QueryService(
            ServeConfig(store_dir=str(root)), datasets={"dblp_tiny": dblp_tiny}
        ),
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
