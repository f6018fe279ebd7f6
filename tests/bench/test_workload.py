"""Unit tests for the query workload generator."""

import pytest

from benchmarks.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def generator(request):
    dblp_tiny = request.getfixturevalue("dblp_tiny")
    return WorkloadGenerator(dblp_tiny, seed=5)


class TestPools:
    def test_selective_terms_have_small_df(self, generator):
        pool = generator.selective_terms()
        assert pool
        popular = generator.popular_terms()
        max_selective = max(generator.index.document_frequency(t) for t in pool)
        max_popular = max(generator.index.document_frequency(t) for t in popular)
        assert max_selective <= max_popular

    def test_topical_terms_match_topics(self, generator, dblp_tiny):
        topics = generator.topical_terms()
        known = set(dblp_tiny.extras["paper_topics"].values())
        assert set(topics) <= known
        assert topics  # at least one topic term appears in the index


class TestSampling:
    def test_sample_count_and_kind(self, generator):
        queries = generator.sample("selective", 5)
        assert len(queries) == 5
        assert all(q.kind == "selective" for q in queries)
        assert all(1 <= len(q.keywords) <= 2 for q in queries)

    def test_all_queries_answerable(self, generator):
        """Every sampled query must match at least one document."""
        for kind in ("topical", "selective", "popular"):
            for query in generator.sample(kind, 5):
                matched = generator.index.documents_with_any(query.keywords)
                assert matched, f"{kind} query {query.text!r} matches nothing"

    def test_unknown_kind_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.sample("weird", 1)

    def test_mixed_covers_kinds(self, generator):
        workload = generator.mixed(9)
        assert len(workload) == 9
        assert {q.kind for q in workload} == {"topical", "selective", "popular"}

    def test_deterministic_per_seed(self, dblp_tiny):
        first = WorkloadGenerator(dblp_tiny, seed=3).mixed(6)
        second = WorkloadGenerator(dblp_tiny, seed=3).mixed(6)
        assert [q.text for q in first] == [q.text for q in second]
