"""Unit tests for the synthetic DBLP generator."""

import math

import pytest

from repro.datasets import DblpConfig, generate_dblp
from repro.errors import DatasetError
from repro.graph import check_conformance


@pytest.fixture(scope="module")
def dataset():
    return generate_dblp(DblpConfig(num_papers=200, num_authors=60, seed=3))


class TestGeneration:
    def test_conforms_to_schema(self, dataset):
        check_conformance(dataset.data_graph, dataset.schema)

    def test_label_population(self, dataset):
        counts = dataset.data_graph.label_counts()
        assert counts["Paper"] == 200
        # Only authors with at least one paper are materialized.
        assert 0 < counts["Author"] <= 60
        assert counts["Conference"] == 12
        assert counts["Year"] == 12 * 18  # conferences x years

    def test_every_author_has_a_paper(self, dataset):
        graph = dataset.data_graph
        for author in graph.nodes_with_label("Author"):
            assert graph.in_degree(author.node_id) > 0

    def test_every_paper_has_year_and_author(self, dataset):
        graph = dataset.data_graph
        for paper in graph.nodes_with_label("Paper"):
            roles = [e.role for e in graph.in_edges(paper.node_id)]
            assert "contains" in roles
            assert any(e.role == "by" for e in graph.out_edges(paper.node_id))

    def test_citations_point_to_older_papers(self, dataset):
        """Generation order is chronological: citing id > cited id."""
        for edge in dataset.data_graph.edges():
            if edge.role == "cites":
                citing = int(edge.source.split(":")[1])
                cited = int(edge.target.split(":")[1])
                assert citing > cited

    def test_no_self_citations(self, dataset):
        for edge in dataset.data_graph.edges():
            if edge.role == "cites":
                assert edge.source != edge.target

    def test_titles_are_topical(self, dataset):
        topics = dataset.extras["paper_topics"]
        assert set(topics) == {
            n.node_id for n in dataset.data_graph.nodes_with_label("Paper")
        }

    def test_citation_skew(self, dataset):
        """Preferential attachment: the most-cited paper collects far more
        citations than the median paper."""
        in_cites = {}
        for edge in dataset.data_graph.edges():
            if edge.role == "cites":
                in_cites[edge.target] = in_cites.get(edge.target, 0) + 1
        counts = sorted(in_cites.values(), reverse=True)
        assert counts[0] >= 5

    def test_deterministic(self):
        config = DblpConfig(num_papers=50, num_authors=20, seed=42)
        first = generate_dblp(config)
        second = generate_dblp(config)
        assert first.data_graph.node_ids() == second.data_graph.node_ids()
        assert first.data_graph.edges() == second.data_graph.edges()

    def test_seed_changes_output(self):
        base = DblpConfig(num_papers=50, num_authors=20, seed=1)
        other = DblpConfig(num_papers=50, num_authors=20, seed=2)
        assert generate_dblp(base).data_graph.edges() != generate_dblp(other).data_graph.edges()


class TestValidation:
    def test_positive_sizes_required(self):
        with pytest.raises(DatasetError):
            DblpConfig(num_papers=0)

    def test_year_range_checked(self):
        with pytest.raises(DatasetError):
            DblpConfig(first_year=2000, last_year=1999)

    def test_topic_coherence_bounds(self):
        with pytest.raises(DatasetError):
            DblpConfig(topic_coherence=1.5)

    def test_at_least_one_author_per_paper(self):
        with pytest.raises(DatasetError, match="max_authors_per_paper"):
            DblpConfig(max_authors_per_paper=0)

    @pytest.mark.parametrize("mean", [-1.0, math.nan, math.inf])
    def test_mean_citations_finite_and_non_negative(self, mean):
        with pytest.raises(DatasetError, match="mean_citations"):
            DblpConfig(mean_citations=mean)

    def test_zero_mean_citations_generates_no_citations(self):
        dataset = generate_dblp(DblpConfig(num_papers=30, num_authors=10, mean_citations=0.0))
        assert not any(e.role == "cites" for e in dataset.data_graph.edges())
