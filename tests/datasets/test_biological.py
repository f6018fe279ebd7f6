"""Unit tests for the synthetic biological generator."""

import math

import pytest

from repro.datasets import BiologicalConfig, generate_biological
from repro.errors import DatasetError
from repro.graph import check_conformance


@pytest.fixture(scope="module")
def dataset():
    return generate_biological(
        BiologicalConfig(num_genes=80, num_publications=300, num_omim=25, seed=5)
    )


class TestGeneration:
    def test_conforms_to_figure4_schema(self, dataset):
        check_conformance(dataset.data_graph, dataset.schema)

    def test_population(self, dataset):
        counts = dataset.data_graph.label_counts()
        assert counts["EntrezGene"] == 80
        assert counts["PubMed"] == 300
        assert counts["OMIM"] == 25
        assert counts.get("EntrezProtein", 0) > 0
        assert counts.get("EntrezNucleotide", 0) > 0

    def test_gene_satellites_linked(self, dataset):
        """Every protein/nucleotide hangs off exactly one gene."""
        graph = dataset.data_graph
        for label, role in (
            ("EntrezProtein", "geneProteinAssociates"),
            ("EntrezNucleotide", "geneNucleotideAssociates"),
        ):
            for node in graph.nodes_with_label(label):
                in_roles = [e.role for e in graph.in_edges(node.node_id)]
                assert in_roles.count(role) == 1

    def test_publication_topics_recorded(self, dataset):
        topics = dataset.extras["publication_topics"]
        assert len(topics) == 300
        assert set(topics.values()) <= {
            "cancer", "immunology", "neuroscience", "cardiovascular",
            "metabolism", "genetics",
        }

    def test_cancer_publications_exist(self, dataset):
        """DS7cancer derivation needs a topical 'cancer' community."""
        from repro.ir import InvertedIndex

        index = InvertedIndex.from_graph(dataset.data_graph)
        cancer_docs = index.documents_with_term("cancer")
        assert len(cancer_docs) >= 10

    def test_deterministic(self):
        config = BiologicalConfig(num_genes=30, num_publications=100, num_omim=10, seed=9)
        first = generate_biological(config)
        second = generate_biological(config)
        assert first.data_graph.edges() == second.data_graph.edges()

    def test_ground_truth_rates_convergent(self, dataset):
        assert dataset.ground_truth_rates.is_convergent()


class TestValidation:
    def test_positive_sizes(self):
        with pytest.raises(DatasetError):
            BiologicalConfig(num_genes=0)

    @pytest.mark.parametrize(
        "rate", ["proteins_per_gene", "nucleotides_per_gene", "publications_per_gene"]
    )
    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_per_gene_rates_finite_and_non_negative(self, rate, value):
        with pytest.raises(DatasetError, match=rate):
            BiologicalConfig(**{rate: value})

    def test_zero_rates_allowed(self):
        BiologicalConfig(
            proteins_per_gene=0.0, nucleotides_per_gene=0.0, publications_per_gene=0.0
        )
