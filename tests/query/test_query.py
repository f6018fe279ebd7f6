"""Unit tests for keyword queries and query vectors (Section 3)."""

import pytest

from repro.errors import ParameterError
from repro.query import KeywordQuery, QueryVector


class TestKeywordQuery:
    def test_keywords_normalized(self):
        query = KeywordQuery(["OLAP", "Query-Optimization"])
        assert query.keywords == ("olap", "query", "optimization")

    def test_parse_free_text(self):
        assert KeywordQuery.parse("ranked search").keywords == ("ranked", "search")

    def test_order_preserved(self):
        # Q is a tuple, not a set (footnote 1 of the paper).
        assert KeywordQuery(["b", "a"]).keywords == ("b", "a")

    def test_initial_vector_all_ones(self):
        vector = KeywordQuery(["olap", "cube"]).vector()
        assert vector.weights == {"olap": 1.0, "cube": 1.0}

    def test_equality_and_hash(self):
        assert KeywordQuery(["olap"]) == KeywordQuery(["OLAP"])
        assert hash(KeywordQuery(["olap"])) == hash(KeywordQuery(["OLAP"]))
        assert KeywordQuery(["olap"]) != KeywordQuery(["xml"])

    def test_len_and_iter(self):
        query = KeywordQuery(["a1", "b2"])
        assert len(query) == 2
        assert list(query) == ["a1", "b2"]


class TestQueryVector:
    def test_set_and_get(self):
        vector = QueryVector()
        vector.set_weight("olap", 2.0)
        assert vector.weight("olap") == 2.0
        assert vector.weight("other") == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QueryVector({"olap": -1.0})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        """NaN passes ``weight < 0``; JSON bodies can carry NaN and Infinity."""
        with pytest.raises(ParameterError, match="finite"):
            QueryVector({"olap": weight})
        with pytest.raises(ParameterError):
            QueryVector({"olap": 1.0}).add_weight("olap", weight)

    def test_add_weight_inserts_and_accumulates(self):
        vector = QueryVector({"olap": 1.0})
        vector.add_weight("olap", 0.5)
        vector.add_weight("cube", 0.25)
        assert vector.weight("olap") == 1.5
        assert vector.weight("cube") == 0.25

    def test_term_order_is_insertion_order(self):
        vector = QueryVector({"olap": 1.0})
        vector.add_weight("cube", 0.5)
        vector.add_weight("range", 0.5)
        assert vector.terms == ["olap", "cube", "range"]

    def test_average_weight(self):
        vector = QueryVector({"a": 1.0, "b": 3.0})
        assert vector.average_weight() == 2.0
        assert QueryVector().average_weight() == 0.0

    def test_copy_is_independent(self):
        vector = QueryVector({"olap": 1.0})
        clone = vector.copy()
        clone.set_weight("olap", 9.0)
        assert vector.weight("olap") == 1.0

    def test_weights_returns_copy(self):
        vector = QueryVector({"olap": 1.0})
        weights = vector.weights
        weights["olap"] = 99.0
        assert vector.weight("olap") == 1.0

    def test_contains_len_iter(self):
        vector = QueryVector({"a": 1.0, "b": 2.0})
        assert "a" in vector and "c" not in vector
        assert len(vector) == 2
        assert list(vector) == ["a", "b"]

    def test_equality(self):
        assert QueryVector({"a": 1.0}) == QueryVector({"a": 1.0})
        assert QueryVector({"a": 1.0}) != QueryVector({"a": 2.0})
