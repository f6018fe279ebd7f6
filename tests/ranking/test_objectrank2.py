"""Unit tests for ObjectRank2 (Section 3, Equation 4)."""

import pytest

from repro.errors import EmptyBaseSetError, ParameterError
from repro.ir import UniformScorer
from repro.query import KeywordQuery, QueryVector
from repro.ranking import objectrank2, weighted_base_set

from tests.ranking.reference import objectrank


class TestWeightedBaseSet:
    def test_weights_sum_to_one(self, figure1_scorer):
        base = weighted_base_set(figure1_scorer, KeywordQuery(["olap"]).vector())
        assert sum(base.values()) == pytest.approx(1.0)
        assert set(base) == {"v1", "v4"}

    def test_ir_score_drives_weighting(self, figure1_scorer):
        """v4's title mentions both 'OLAP' and 'cubes': for the query
        [olap, cubes] it must receive more jump probability than v1."""
        base = weighted_base_set(
            figure1_scorer, KeywordQuery(["olap", "cubes"]).vector()
        )
        assert base["v4"] > base["v1"]

    def test_an_overflowing_total_is_refused(self, figure1_scorer):
        """Two finite weights near the float limit overflow the base-set
        total: every jump probability would be NaN and the ranking would
        run to its iteration cap without converging."""
        vector = QueryVector({"olap": 1e308, "cubes": 1e308})
        with pytest.raises(ParameterError, match="too large"):
            weighted_base_set(figure1_scorer, vector)

    def test_zero_weight_terms_ignored(self, figure1_scorer):
        vector = QueryVector({"olap": 1.0, "multidimensional": 0.0})
        base = weighted_base_set(figure1_scorer, vector)
        assert set(base) == {"v1", "v4"}

    def test_empty_base_set_raises(self, figure1_scorer):
        with pytest.raises(EmptyBaseSetError):
            weighted_base_set(figure1_scorer, QueryVector({"zzz": 1.0}))

    def test_degenerate_scores_fall_back_to_floor(self, figure1_index):
        """A keyword in *every* Paper gets idf 0; such nodes still enter the
        base set with a positive floor weight rather than vanishing."""
        from repro.ir import BM25Scorer

        scorer = BM25Scorer(figure1_index)
        # "1997" appears in v1, v3, v4, v5 (4 of 7 docs) -> idf clamps to 0.
        base = weighted_base_set(scorer, QueryVector({"1997": 1.0}))
        assert len(base) == 4
        assert all(w > 0 for w in base.values())
        assert sum(base.values()) == pytest.approx(1.0)


class TestObjectRank2:
    def test_matches_figure6_convergence(self, olap_result):
        """The paper reports convergence 'after 5 iterations' at a loose
        threshold; at 1e-8 we just require convergence and sane scores."""
        assert olap_result.converged
        assert (olap_result.scores >= 0).all()

    def test_figure6_score_ordering(self, olap_result):
        """Figure 6 scores: r = [.076, .002, .009, .076, .017, .025, .083]
        give the ordering v7 > {v1, v4} > v6 > v3 > v2/v5."""
        ranking = olap_result.ranking()
        assert ranking[0] == "v7"
        assert set(ranking[1:3]) == {"v1", "v4"}

    def test_reduces_to_objectrank_with_uniform_scorer(
        self, figure1_graph, figure1_index
    ):
        """With a 0/1 scorer the weighted base set is uniform, so ObjectRank2
        equals ObjectRank exactly."""
        result2 = objectrank2(
            figure1_graph,
            UniformScorer(figure1_index),
            KeywordQuery(["olap"]).vector(),
            tolerance=1e-12,
        )
        result1 = objectrank(figure1_graph, ["v1", "v4"], tolerance=1e-12)
        assert result2.scores == pytest.approx(result1.scores, abs=1e-9)

    def test_query_weights_shift_ranking(self, figure1_graph, figure1_scorer):
        """Upweighting 'multidimensional' pulls v5's neighborhood up."""
        plain = objectrank2(
            figure1_graph,
            figure1_scorer,
            QueryVector({"olap": 1.0, "multidimensional": 0.01}),
            tolerance=1e-10,
        )
        boosted = objectrank2(
            figure1_graph,
            figure1_scorer,
            QueryVector({"olap": 1.0, "multidimensional": 100.0}),
            tolerance=1e-10,
        )
        v5 = figure1_graph.index_of("v5")
        assert boosted.scores[v5] > plain.scores[v5]

    def test_warm_start_same_fixpoint(self, figure1_graph, figure1_scorer, olap_result):
        warm = objectrank2(
            figure1_graph,
            figure1_scorer,
            KeywordQuery(["olap"]).vector(),
            tolerance=1e-8,
            init=olap_result.scores,
        )
        assert warm.scores == pytest.approx(olap_result.scores, abs=1e-6)
        assert warm.iterations <= olap_result.iterations
