"""The one ranker over both providers: mapped store vs in-memory vectors.

``PrecomputedRanker`` owns ``coverage`` / ``is_stale`` / ``rank``; the
providers (``KeywordVectors`` in memory, ``ScoreStore`` over an mmap'd slab)
only hand out vectors, idf weights and fingerprints.  Every test runs the
same query through a ranker over each provider and demands identical
answers — bit-identical scores, equal ``base_weights`` and ``coverage``,
the same errors, the same staleness verdicts.
"""

from __future__ import annotations

import pytest

from repro.errors import EmptyBaseSetError, PrecomputedCoverageError
from repro.query import KeywordQuery
from repro.ranking.precompute import PrecomputedRanker
from repro.store import ScoreStore, write_score_store


@pytest.fixture(scope="module")
def ranker(figure1_graph, figure1_index):
    """The build, served from memory."""
    return PrecomputedRanker(
        figure1_graph, figure1_index, min_document_frequency=1
    )


@pytest.fixture(scope="module")
def mmap_ranker(tmp_path_factory, ranker):
    """The same build exported to a slab and served from the mapping."""
    path = tmp_path_factory.mktemp("store") / "store.gen-1.slab"
    write_score_store(path, ranker, dataset="fig1", generation=1)
    return PrecomputedRanker.over(ScoreStore(path))


@pytest.fixture(scope="module")
def both(ranker, mmap_ranker):
    return {"memory": ranker, "store": mmap_ranker}


def _vector(*terms: str):
    return KeywordQuery(list(terms)).vector()


class TestBitIdentity:
    def test_both_providers_serve_the_same_class(self, both):
        assert {type(r) for r in both.values()} == {PrecomputedRanker}

    @pytest.mark.parametrize(
        "terms",
        [("OLAP",), ("cube",), ("OLAP", "data"), ("index", "queries", "OLAP")],
    )
    def test_rank_is_bit_identical(self, ranker, mmap_ranker, terms):
        expected = ranker.rank(_vector(*terms))
        actual = mmap_ranker.rank(_vector(*terms))
        assert actual.node_ids == expected.node_ids
        assert actual.scores.tobytes() == expected.scores.tobytes()
        assert actual.base_weights == expected.base_weights
        assert actual.coverage == expected.coverage
        assert actual.iterations == 0 and actual.converged

    def test_top_k_order_matches(self, ranker, mmap_ranker):
        expected = ranker.rank(_vector("OLAP")).top_k(5)
        actual = mmap_ranker.rank(_vector("OLAP")).top_k(5)
        assert actual == expected

    def test_keywords_and_metadata_mirror_the_store(self, ranker, mmap_ranker):
        assert mmap_ranker.keywords == ranker.keywords
        assert mmap_ranker.node_ids == ranker.node_ids
        assert mmap_ranker.graph_version == ranker.graph_version
        assert mmap_ranker.source.generation == 1
        assert mmap_ranker.build_iterations == ranker.build_iterations
        for keyword in ranker.keywords:
            assert mmap_ranker.has_keyword(keyword)
            assert (
                mmap_ranker.vector(keyword).tobytes()
                == ranker.vector(keyword).tobytes()
            )


class TestRouting:
    def test_staleness_matches_in_memory_discriminator(self, both, figure1):
        same = figure1.transfer_schema
        edge_type = same.edge_types()[0]
        changed = same.with_vector([same.rate(edge_type) / 2 + 0.05], [edge_type])
        for name, candidate in both.items():
            assert not candidate.is_stale(same), name
            assert candidate.is_stale(changed), name
            version = candidate.graph_version
            assert not candidate.is_stale(same, graph_version=version), name
            assert candidate.is_stale(same, graph_version=version + 1), name

    def test_store_staleness_needs_explicit_rates(self, ranker, mmap_ranker):
        # In memory the live graph supplies both defaults; a mapped store
        # has no graph to ask, so the caller must say what it serves under.
        assert not ranker.is_stale()
        with pytest.raises(ValueError, match="serving rates"):
            mmap_ranker.is_stale()

    def test_unknown_terms_raise_empty_base_set(self, both):
        for name, candidate in both.items():
            with pytest.raises(EmptyBaseSetError):
                candidate.rank(_vector("zzznotaterm"))
            assert candidate.coverage(_vector("zzznotaterm")) == 0.0, name

    def test_partial_coverage_raises_under_full_threshold(self, both):
        vector = _vector("OLAP", "zzznotaterm")
        errors = {}
        for name, candidate in both.items():
            with pytest.raises(PrecomputedCoverageError) as caught:
                candidate.rank(vector)
            errors[name] = str(caught.value)
        assert errors["store"] == errors["memory"]

    def test_partial_coverage_admitted_under_loose_threshold(self, both):
        vector = _vector("OLAP", "zzznotaterm")
        loose = {
            name: PrecomputedRanker.over(candidate.source, min_coverage=0.4)
            for name, candidate in both.items()
        }
        expected = loose["memory"].rank(vector)
        actual = loose["store"].rank(vector)
        assert actual.scores.tobytes() == expected.scores.tobytes()
        assert actual.base_weights == expected.base_weights
        assert actual.coverage == expected.coverage < 1.0

    def test_coverage_fraction_matches(self, ranker, mmap_ranker):
        for terms in (("OLAP", "data"), ("OLAP", "zzznotaterm")):
            vector = _vector(*terms)
            assert mmap_ranker.coverage(vector) == ranker.coverage(vector)

    def test_min_coverage_is_validated_for_every_provider(self, both):
        for candidate in both.values():
            with pytest.raises(ValueError, match="min_coverage"):
                PrecomputedRanker.over(candidate.source, min_coverage=1.5)
