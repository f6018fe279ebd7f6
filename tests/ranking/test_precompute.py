"""Unit tests for precomputed per-keyword rankings (the [BHP04] mode)."""

import pytest

from repro.datasets import dblp_transfer_schema
from repro.errors import EmptyBaseSetError, PrecomputedCoverageError
from repro.query import QueryVector
from repro.ranking import PrecomputedRanker, keyword_objectrank


@pytest.fixture
def ranker(figure1_graph, figure1_index):
    return PrecomputedRanker(
        figure1_graph, figure1_index, min_document_frequency=1, tolerance=1e-10
    )


class TestPrecomputation:
    def test_vocabulary_covered(self, ranker, figure1_index):
        assert set(ranker.keywords) == set(figure1_index.vocabulary())

    def test_min_document_frequency_filter(self, figure1_graph, figure1_index):
        filtered = PrecomputedRanker(
            figure1_graph, figure1_index, min_document_frequency=2
        )
        for keyword in filtered.keywords:
            assert figure1_index.document_frequency(keyword) >= 2

    def test_explicit_keyword_list(self, figure1_graph, figure1_index):
        ranker = PrecomputedRanker(figure1_graph, figure1_index, keywords=["olap"])
        assert ranker.keywords == ["olap"]
        assert not ranker.has_keyword("xml-ish-unknown")

    def test_unmatched_keywords_skipped(self, figure1_graph, figure1_index):
        ranker = PrecomputedRanker(
            figure1_graph, figure1_index, keywords=["olap", "notaword"]
        )
        assert ranker.keywords == ["olap"]


class TestQueryAnswering:
    def test_single_keyword_matches_exact_objectrank(
        self, ranker, figure1_graph, figure1_index
    ):
        """One cached keyword = the exact per-keyword ObjectRank vector."""
        cached = ranker.rank(QueryVector({"olap": 1.0}))
        exact = keyword_objectrank(
            figure1_graph, figure1_index, "olap", tolerance=1e-10
        )
        assert cached.scores == pytest.approx(exact.scores, abs=1e-8)
        assert cached.iterations == 0  # no query-time power iteration

    def test_data_cube_still_wins(self, ranker):
        result = ranker.rank(QueryVector({"olap": 1.0}))
        assert result.top_k(1)[0][0] == "v7"

    def test_blending_weights_respect_query_vector(self, ranker, figure1_graph):
        plain = ranker.rank(QueryVector({"olap": 1.0, "multidimensional": 1.0}))
        boosted = ranker.rank(QueryVector({"olap": 1.0, "multidimensional": 50.0}))
        v5 = figure1_graph.index_of("v5")
        assert boosted.scores[v5] > plain.scores[v5]

    def test_unknown_query_raises(self, ranker):
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(QueryVector({"notaword": 1.0}))

    def test_zero_weight_terms_ignored(self, ranker):
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(QueryVector({"olap": 0.0}))


class TestCoverage:
    """Regression: uncached terms must not be silently dropped (e.g. the
    expansion terms a content-based reformulation adds)."""

    def test_partial_coverage_raises_by_default(self, figure1_graph, figure1_index):
        ranker = PrecomputedRanker(figure1_graph, figure1_index, keywords=["olap"])
        with pytest.raises(PrecomputedCoverageError) as excinfo:
            ranker.rank(QueryVector({"olap": 1.0, "multidimensional": 1.0}))
        assert excinfo.value.keywords == ("multidimensional",)
        assert excinfo.value.coverage == pytest.approx(0.5)

    def test_partial_coverage_error_is_empty_base_set_error(
        self, figure1_graph, figure1_index
    ):
        """Serving layers catching EmptyBaseSetError fall back to live."""
        ranker = PrecomputedRanker(figure1_graph, figure1_index, keywords=["olap"])
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(QueryVector({"olap": 1.0, "multidimensional": 1.0}))

    def test_threshold_admits_partial_coverage(self, figure1_graph, figure1_index):
        ranker = PrecomputedRanker(
            figure1_graph, figure1_index, keywords=["olap"], min_coverage=0.5
        )
        result = ranker.rank(QueryVector({"olap": 2.0, "multidimensional": 1.0}))
        assert result.coverage == pytest.approx(2 / 3)

    def test_full_coverage_reports_one(self, ranker):
        result = ranker.rank(QueryVector({"olap": 1.0}))
        assert result.coverage == 1.0

    def test_coverage_helper(self, figure1_graph, figure1_index):
        ranker = PrecomputedRanker(figure1_graph, figure1_index, keywords=["olap"])
        assert ranker.coverage(QueryVector({"olap": 1.0})) == 1.0
        assert ranker.coverage(
            QueryVector({"olap": 1.0, "multidimensional": 3.0})
        ) == pytest.approx(0.25)
        assert ranker.coverage(QueryVector({"olap": 0.0})) == 0.0

    def test_invalid_threshold_rejected(self, figure1_graph, figure1_index):
        with pytest.raises(ValueError):
            PrecomputedRanker(
                figure1_graph, figure1_index, keywords=["olap"], min_coverage=1.5
            )

    def test_fully_uncached_query_still_empty_base_set(self, ranker):
        """A query with no cached term at all keeps the original error."""
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(QueryVector({"notaword": 1.0}))


class TestDegenerateZeroWeight:
    """Regression for the RL005 fix: the total-weight guard in ``rank`` is
    ``<= 0.0`` (not ``== 0.0``), so every degenerate path raises
    :class:`EmptyBaseSetError` instead of reaching the ``blended /=
    total_weight`` division below it."""

    def test_all_zero_weights_raise_not_divide(self, ranker):
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(QueryVector({"olap": 0.0, "multidimensional": 0.0}))

    def test_negative_weights_rejected_at_construction(self):
        """Negative weights never reach rank(): QueryVector refuses them, so
        the guard's only degenerate inputs are exact zeros."""
        with pytest.raises(ValueError):
            QueryVector({"olap": -1.0})

    def test_zero_weight_cached_and_uncached_mix_raises(self, ranker):
        with pytest.raises(EmptyBaseSetError):
            ranker.rank(QueryVector({"olap": 0.0, "notaword": 0.0}))

    def test_tiny_positive_weight_still_answers(self, ranker):
        """The guard must not swallow genuinely tiny-but-positive weights:
        blending normalizes, so a scaled-down query ranks identically."""
        tiny = ranker.rank(QueryVector({"olap": 1e-300}))
        full = ranker.rank(QueryVector({"olap": 1.0}))
        assert tiny.top_k(3) == pytest.approx(full.top_k(3))

    def test_zero_weight_terms_do_not_poison_positive_ones(self, ranker):
        mixed = ranker.rank(QueryVector({"olap": 1.0, "multidimensional": 0.0}))
        pure = ranker.rank(QueryVector({"olap": 1.0}))
        assert mixed.scores == pytest.approx(pure.scores)
        assert mixed.coverage == 1.0  # zero-weight terms are not "considered"


class TestStaleness:
    def test_fresh_cache_not_stale(self, ranker):
        assert not ranker.is_stale()

    def test_rate_change_detected(self, ranker):
        learned = dblp_transfer_schema([0.5, 0.0, 0.3, 0.1, 0.2, 0.2, 0.2, 0.1])
        assert ranker.is_stale(learned)

    def test_equal_rates_not_stale(self, ranker):
        assert not ranker.is_stale(dblp_transfer_schema())

    def test_graph_mutation_detected(self):
        # Regression: is_stale() once fingerprinted only the transfer rates,
        # so a ranker built before a graph mutation kept serving scores for
        # a topology that no longer existed.
        from repro.datasets.figure1 import figure1_dataset
        from repro.graph import AuthorityTransferDataGraph
        from repro.ir import InvertedIndex

        dataset = figure1_dataset()
        graph = AuthorityTransferDataGraph(
            dataset.data_graph, dataset.transfer_schema
        )
        ranker = PrecomputedRanker(
            graph, InvertedIndex.from_graph(dataset.data_graph),
            min_document_frequency=1,
        )
        assert not ranker.is_stale()
        dataset.data_graph.add_node(
            "p_new", "Paper", {"title": "A fresh OLAP paper"}
        )
        assert ranker.is_stale()
        assert ranker.is_stale(dblp_transfer_schema())

    def test_explicit_graph_version_comparison(self):
        from repro.datasets.figure1 import figure1_dataset
        from repro.graph import AuthorityTransferDataGraph
        from repro.ir import InvertedIndex

        dataset = figure1_dataset()
        graph = AuthorityTransferDataGraph(
            dataset.data_graph, dataset.transfer_schema
        )
        ranker = PrecomputedRanker(
            graph, InvertedIndex.from_graph(dataset.data_graph),
            min_document_frequency=1,
        )
        assert not ranker.is_stale(graph_version=ranker.graph_version)
        assert ranker.is_stale(graph_version=ranker.graph_version + 1)
