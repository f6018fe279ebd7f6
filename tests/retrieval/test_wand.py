"""Unit tests for stage-1 candidate generation (:func:`top_n_candidates`).

The load-bearing invariant: the page of N candidates is the exhaustive
document-at-a-time ranking (``tests/ir/reference.py``) cut at N — same ids,
same score floats, same document-id tiebreak.  Everything downstream
(restricted base sets, degenerate bit-identity with focused ObjectRank2)
leans on it.  The hypothesis form, with first-hit order and 1-12 weighted
terms, is in ``tests/properties/test_read_path_properties.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import EmptyBaseSetError
from repro.ir import BM25Scorer, InvertedIndex, TfIdfScorer, UniformScorer
from repro.query import QueryVector, SearchEngine
from repro.retrieval import positive_query_weights, top_n_candidates

from tests.ir.reference import reference_top_n


@pytest.fixture(scope="module")
def tiny_scorer(dblp_tiny):
    return SearchEngine(dblp_tiny.data_graph, dblp_tiny.transfer_schema).scorer


TINY_QUERIES = (
    {"improved": 1.0},
    {"improved": 1.0, "study": 1.0},
    {"dynamic": 0.7, "evaluation": 0.3},
    {"practical": 1.0, "effective": 2.0, "study": 0.5},
)


class TestPrunedEqualsExhaustive:
    """The top-N page (the list pruned to N) == the exhaustive ranking's head."""

    @pytest.mark.parametrize("weights", TINY_QUERIES)
    @pytest.mark.parametrize("n", [1, 3, 10, 50, 10_000])
    def test_same_ids_and_score_floats(self, tiny_scorer, weights, n):
        vector = QueryVector(dict(weights))
        top = top_n_candidates(tiny_scorer, vector, n)
        # bit-identical floats, not approx
        assert [(c.doc_id, c.score) for c in top] == reference_top_n(
            tiny_scorer, vector, n
        )

    @pytest.mark.parametrize("scorer_cls", [BM25Scorer, TfIdfScorer, UniformScorer])
    def test_every_scorer_protocol_member(self, figure1_index, scorer_cls):
        scorer = scorer_cls(figure1_index)
        vector = QueryVector({"olap": 1.0, "xml": 0.5})
        top = top_n_candidates(scorer, vector, 5)
        assert [(c.doc_id, c.score) for c in top] == reference_top_n(
            scorer, vector, 5
        )

    def test_document_id_tiebreak(self):
        index = InvertedIndex.from_documents(
            [("d3", "olap cube"), ("d1", "olap cube"), ("d2", "olap cube")]
        )
        scorer, vector = BM25Scorer(index), QueryVector({"olap": 1.0})
        # Equal scores everywhere: ascending doc id decides.
        assert top_n_candidates(scorer, vector, 2).doc_ids == ["d1", "d2"]
        # ... and a base set over them lists them in S(Q) first-hit order.
        assert top_n_candidates(scorer, vector, 3).first_hit_order == [2, 0, 1]

    def test_every_document_of_the_base_set_is_scored(self, tiny_scorer):
        vector = QueryVector({"improved": 5.0, "study": 0.05})
        top = top_n_candidates(tiny_scorer, vector, 1)
        base = tiny_scorer.index.documents_with_any(["improved", "study"])
        assert len(top) == 1
        assert top.evaluated == len(base) > 1
        assert top.pruned == 0


class TestEdgesAndErrors:
    def test_no_matching_document_raises(self, tiny_scorer):
        with pytest.raises(EmptyBaseSetError):
            top_n_candidates(tiny_scorer, QueryVector({"zzzmissing": 1.0}), 5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_n_rejected(self, tiny_scorer, n):
        with pytest.raises(ValueError):
            top_n_candidates(tiny_scorer, QueryVector({"improved": 1.0}), n)

    def test_zero_weight_terms_ignored(self, tiny_scorer):
        with_noise = QueryVector({"improved": 1.0, "study": 0.0})
        clean = QueryVector({"improved": 1.0})
        noisy = top_n_candidates(tiny_scorer, with_noise, 5)
        assert noisy.doc_ids == top_n_candidates(tiny_scorer, clean, 5).doc_ids

    def test_positive_query_weights_filters(self):
        vector = QueryVector({"a": 1.0, "b": 0.0})
        assert positive_query_weights(vector) == {"a": 1.0}

    def test_candidate_set_container_protocol(self, tiny_scorer):
        candidates = top_n_candidates(tiny_scorer, QueryVector({"improved": 1.0}), 4)
        assert len(candidates) == len(candidates.doc_ids) == 4
        assert [c.doc_id for c in candidates] == candidates.doc_ids
