"""Unit tests for ObjectRank [BHP04] and the Equation 16 multi-keyword variant."""

import math

import pytest

from repro.errors import EmptyBaseSetError
from repro.ranking import (
    Tolerance,
    global_restarts,
    multi_keyword_objectrank,
    rank,
    uniform_restarts,
)
from repro.ranking.objectrank import keyword_objectranks, normalizing_exponent

from tests.ranking.reference import objectrank


class TestBaseSet:
    def test_base_set_contains_keyword_nodes(self, figure1_index):
        assert set(figure1_index.documents_with_any(("olap",))) == {"v1", "v4"}

    def test_base_set_union_over_keywords(self, figure1_index):
        nodes = set(figure1_index.documents_with_any(("olap", "multidimensional")))
        assert nodes == {"v1", "v4", "v5"}


class TestObjectRank:
    def test_uniform_base_weights(self, figure1_graph):
        result = objectrank(figure1_graph, ["v1", "v4"], tolerance=1e-10)
        assert result.base_weights == {"v1": 0.5, "v4": 0.5}

    def test_empty_base_set_raises(self, figure1_graph):
        with pytest.raises(EmptyBaseSetError):
            uniform_restarts(figure1_graph, [[]])

    def test_data_cube_wins_olap(self, figure1_graph, figure1_index):
        result = keyword_objectranks(
            figure1_graph, figure1_index, ["olap"], tolerance=1e-10
        )["olap"]
        assert result.top_k(1)[0][0] == "v7"

    def test_unknown_keyword_raises(self, figure1_graph, figure1_index):
        """A keyword nothing contains has an empty base set: no restart."""
        assert keyword_objectranks(figure1_graph, figure1_index, ["zzz"]) == {}
        with pytest.raises(EmptyBaseSetError):
            uniform_restarts(figure1_graph, [figure1_index.documents_with_term("zzz")])

    def test_top_k_sorted_descending(self, figure1_graph):
        result = objectrank(figure1_graph, ["v1"], tolerance=1e-10)
        scores = [s for _, s in result.top_k(7)]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_caps_at_n(self, figure1_graph):
        result = objectrank(figure1_graph, ["v1"], tolerance=1e-10)
        assert len(result.top_k(100)) == figure1_graph.num_nodes
        assert result.top_k(0) == []

    def test_ranking_is_permutation(self, figure1_graph):
        result = objectrank(figure1_graph, ["v1"], tolerance=1e-10)
        assert sorted(result.ranking()) == sorted(figure1_graph.node_ids)

    def test_score_of(self, figure1_graph):
        result = objectrank(figure1_graph, ["v1"], tolerance=1e-10)
        top_id, top_score = result.top_k(1)[0]
        assert result.score_of(top_id) == pytest.approx(top_score)


class TestGlobalObjectRank:
    def test_runs_and_converges(self, figure1_graph):
        (result,) = rank(figure1_graph, global_restarts(figure1_graph), Tolerance(1e-10))
        assert result.converged
        assert (result.scores > 0).all()

    def test_cited_paper_has_high_global_rank(self, figure1_graph):
        (result,) = rank(figure1_graph, global_restarts(figure1_graph), Tolerance(1e-10))
        ranking = result.ranking()
        assert ranking.index("v7") < ranking.index("v5")


class TestNormalizingExponent:
    def test_formula(self):
        assert normalizing_exponent(100) == pytest.approx(1 / math.log(100))

    def test_clamped_for_small_sets(self):
        assert normalizing_exponent(1) == 1.0
        assert normalizing_exponent(2) == 1.0

    def test_decreases_with_popularity(self):
        assert normalizing_exponent(1000) < normalizing_exponent(10)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            normalizing_exponent(0)


class TestMultiKeyword:
    def test_combines_keywords(self, figure1_graph, figure1_index):
        result = multi_keyword_objectrank(
            figure1_graph, figure1_index, ("olap", "multidimensional"), tolerance=1e-10
        )
        assert result.converged
        assert len(result.base_weights) == 3

    def test_unmatched_keywords_skipped(self, figure1_graph, figure1_index):
        result = multi_keyword_objectrank(
            figure1_graph, figure1_index, ("olap", "zzz"), tolerance=1e-10
        )
        assert set(result.base_weights) == {"v1", "v4"}

    def test_all_unmatched_raises(self, figure1_graph, figure1_index):
        with pytest.raises(EmptyBaseSetError):
            multi_keyword_objectrank(figure1_graph, figure1_index, ("zz", "yy"))

    def test_duplicate_keywords_counted_once(self, figure1_graph, figure1_index):
        once = multi_keyword_objectrank(
            figure1_graph, figure1_index, ("olap",), tolerance=1e-10
        )
        twice = multi_keyword_objectrank(
            figure1_graph, figure1_index, ("olap", "olap"), tolerance=1e-10
        )
        assert twice.scores == pytest.approx(once.scores)

    def test_scores_normalized(self, figure1_graph, figure1_index):
        result = multi_keyword_objectrank(
            figure1_graph, figure1_index, ("olap", "databases"), tolerance=1e-10
        )
        assert result.scores.sum() == pytest.approx(1.0)
