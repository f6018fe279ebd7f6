"""Unit tests for the columnar postings and the term-at-a-time accumulator."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import EmptyBaseSetError
from repro.ir import BM25Scorer, InvertedIndex, UniformScorer
from repro.ir.accumulate import score_postings
from repro.ir.index import PostingColumns
from repro.query import QueryVector
from repro.ranking import weighted_base_set

DOCUMENTS = [
    ("d1", "olap cube cube"),
    ("d2", "olap xml"),
    ("d3", "xml xml mining"),
    ("d4", "stream"),
]


@pytest.fixture
def index():
    return InvertedIndex.from_documents(DOCUMENTS)


class TestPostingColumns:
    def test_document_table_follows_index_order(self, index):
        columns = index.columns()
        assert columns.doc_ids.tolist() == ["d1", "d2", "d3", "d4"]
        assert columns.doc_lengths.tolist() == [float(len(t)) for _, t in DOCUMENTS]

    def test_term_column_is_ordinals_and_tf_in_postings_order(self, index):
        ordinals, tf = index.columns().term("xml")
        assert ordinals.tolist() == [1, 2]
        assert tf.tolist() == [1.0, 2.0]
        assert index.columns().term("zzz") is None

    def test_view_is_kept_until_a_mutation(self, index):
        before = index.columns()
        assert index.columns() is before
        assert before.term("olap") is before.term("olap")
        index.add_document("d5", "olap")
        after = index.columns()
        assert after is not before
        assert after.term("olap")[0].tolist() == [0, 1, 4]
        index.remove_document("d1")
        assert index.columns().term("olap")[0].tolist() == [0, 3]  # ordinals shift

    def test_readded_document_moves_to_the_end(self, index):
        index.columns()
        index.add_document("d1", "xml")
        columns = index.columns()
        assert columns.doc_ids.tolist() == ["d2", "d3", "d4", "d1"]
        assert columns.term("xml")[0].tolist() == [0, 1, 3]

    def test_copy_starts_cold_and_leaves_the_original_warm(self, index):
        warm = index.columns()
        clone = index.copy()
        assert clone.columns() is not warm
        clone.remove_document("d2")
        assert index.columns() is warm
        assert warm.term("xml")[0].tolist() == [1, 2]

    def test_nothing_is_built_before_first_use(self, index, monkeypatch):
        built = []
        original = PostingColumns.__init__
        monkeypatch.setattr(
            PostingColumns, "__init__",
            lambda self, *args: (built.append(1), original(self, *args))[1],
        )
        fresh = InvertedIndex.from_documents(DOCUMENTS)
        fresh.copy()
        assert built == []
        fresh.columns()
        assert built == [1]


def run_threads(target, count):
    """Start ``count`` threads on ``target`` and require that all finish."""
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrentFirstUse:
    def test_two_threads_build_a_column_once_and_see_it_whole(self, index, monkeypatch):
        builds = []
        original = PostingColumns._build

        def slow_build(self, postings):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # hold the latch while the other thread arrives
            return original(self, postings)

        monkeypatch.setattr(PostingColumns, "_build", slow_build)
        barrier = threading.Barrier(2)
        seen = []

        def request():
            barrier.wait(timeout=30)
            seen.append(index.columns().term("xml"))

        run_threads(request, 2)
        assert len(builds) == 1
        assert seen[0] is seen[1]
        ordinals, tf = seen[0]
        assert ordinals.tolist() == [1, 2] and tf.tolist() == [1.0, 2.0]

    def test_cold_index_under_more_threads_than_cores(self):
        """Every racing request gets the base set a lone request gets."""
        documents = [
            (f"d{i}", " ".join(f"w{(i * step) % 7}" for step in (1, 2, 3)))
            for i in range(60)
        ]
        vector = QueryVector({"w1": 1.0, "w4": 0.5, "w6": 2.0})
        expected = list(
            weighted_base_set(
                BM25Scorer(InvertedIndex.from_documents(documents)), vector
            ).items()
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                scorer = BM25Scorer(InvertedIndex.from_documents(documents))
                barrier = threading.Barrier(8)
                views, results = [], []

                def request():
                    barrier.wait(timeout=30)
                    views.append(scorer.index.columns())
                    results.append(list(weighted_base_set(scorer, vector).items()))

                run_threads(request, 8)
                assert all(view is views[0] for view in views)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


class WeightOnlyScorer:
    """A :class:`Scorer` with no ``contributions``: scalar ``weight`` only."""

    def __init__(self, index):
        self.index = index
        self.weight_calls = 0

    def weight(self, doc_id, term):
        self.weight_calls += 1
        return float(self.index.term_frequency(term, doc_id)) / (1 + len(doc_id))

    def score(self, doc_id, query_weights):
        total = 0.0
        for term, weight in query_weights.items():
            total += self.weight(doc_id, term) * weight
        return total


class TestScorePostings:
    def test_scorer_without_contributions_goes_through_scalar_weight(self, index):
        scorer = WeightOnlyScorer(index)
        weights = {"xml": 2.0, "olap": 0.5, "cube": 0.0}
        scored = score_postings(scorer, weights)
        postings_scored = scorer.weight_calls
        assert postings_scored == 4  # xml: d2 d3, olap: d1 d2 — once per posting
        assert scored.doc_ids.tolist() == ["d2", "d3", "d1"]
        assert scored.scores.tolist() == [
            scorer.score(doc_id, weights) for doc_id in ("d2", "d3", "d1")
        ]
        # ...and so does the base set built on it.
        base = weighted_base_set(scorer, QueryVector(weights))
        total = sum(scored.scores.tolist())
        assert list(base.items()) == [
            (doc_id, score / total)
            for doc_id, score in zip(scored.doc_ids.tolist(), scored.scores.tolist())
        ]

    def test_first_hit_order_and_skipped_terms(self, index):
        scored = score_postings(
            BM25Scorer(index), {"mining": 1.0, "zzz": 3.0, "cube": 0.0, "olap": 1.0}
        )
        assert scored.doc_ids.tolist() == ["d3", "d1", "d2"]

    def test_uniform_scorer_merges_by_maximum(self, index):
        scored = score_postings(UniformScorer(index), {"olap": 1.0, "xml": 5.0})
        assert scored.doc_ids.tolist() == ["d1", "d2", "d3"]
        assert scored.scores.tolist() == [1.0, 1.0, 1.0]  # d2 matches both terms

    def test_no_matching_document_raises_with_the_positive_terms(self, index):
        with pytest.raises(EmptyBaseSetError) as caught:
            score_postings(BM25Scorer(index), {"zzz": 1.0, "olap": 0.0, "yyy": 2.0})
        assert caught.value.keywords == ("zzz", "yyy")

    def test_accumulator_does_not_alias_between_calls(self, index):
        scorer = BM25Scorer(index)
        first = score_postings(scorer, {"olap": 1.0}).scores.copy()
        score_postings(scorer, {"olap": 3.0, "xml": 1.0})
        assert np.array_equal(score_postings(scorer, {"olap": 1.0}).scores, first)
