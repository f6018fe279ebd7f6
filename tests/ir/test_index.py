"""Unit tests for the inverted index."""

import pytest

from repro.graph import DataGraph
from repro.ir import Analyzer, InvertedIndex


@pytest.fixture
def index():
    return InvertedIndex.from_documents(
        [
            ("d1", "olap cube aggregation"),
            ("d2", "olap olap indexing"),
            ("d3", "xml query processing"),
        ]
    )


class TestStatistics:
    def test_num_documents(self, index):
        assert index.num_documents == 3

    def test_document_frequency(self, index):
        assert index.document_frequency("olap") == 2
        assert index.document_frequency("xml") == 1
        assert index.document_frequency("nope") == 0

    def test_term_frequency(self, index):
        assert index.term_frequency("olap", "d2") == 2
        assert index.term_frequency("olap", "d3") == 0

    def test_document_length_in_characters(self, index):
        # Equation 3 measures dl in characters, like the paper.
        assert index.document_length("d1") == len("olap cube aggregation")

    def test_average_document_length(self, index):
        expected = (
            len("olap cube aggregation")
            + len("olap olap indexing")
            + len("xml query processing")
        ) / 3
        assert index.average_document_length == pytest.approx(expected)

    def test_empty_index(self):
        empty = InvertedIndex()
        assert empty.num_documents == 0
        assert empty.average_document_length == 0.0


class TestLookup:
    def test_documents_with_term(self, index):
        assert index.documents_with_term("olap") == ["d1", "d2"]

    def test_documents_with_any_deduplicates(self, index):
        docs = index.documents_with_any(["olap", "cube", "xml"])
        assert docs == ["d1", "d2", "d3"]

    def test_postings(self, index):
        postings = {p.doc_id: p.tf for p in index.postings("olap")}
        assert postings == {"d1": 1, "d2": 2}

    def test_terms_of_document(self, index):
        assert index.terms_of_document("d2") == {"olap": 2, "indexing": 1}

    def test_contains(self, index):
        assert "olap" in index
        assert "nope" not in index

    def test_vocabulary(self, index):
        assert set(index.vocabulary()) >= {"olap", "cube", "xml"}


class TestMutation:
    def test_remove_document(self, index):
        index.remove_document("d2")
        assert index.num_documents == 2
        assert index.document_frequency("olap") == 1
        assert index.document_frequency("indexing") == 0
        assert index.terms_of_document("d2") == {}

    def test_remove_unknown_is_noop(self, index):
        index.remove_document("zz")
        assert index.num_documents == 3

    def test_readd_replaces(self, index):
        index.add_document("d1", "totally different words")
        assert index.term_frequency("olap", "d1") == 0
        assert index.term_frequency("totally", "d1") == 1
        assert index.num_documents == 3

    def test_remove_then_readd_same_doc_id(self, index):
        # The ingest remove→add cycle: stats must match a never-removed
        # index, with no residue from the removed incarnation.
        index.remove_document("d2")
        index.add_document("d2", "olap olap indexing")
        assert index.num_documents == 3
        assert index.document_frequency("olap") == 2
        assert index.term_frequency("olap", "d2") == 2
        assert index.terms_of_document("d2") == {"olap": 2, "indexing": 1}
        assert index.documents_with_term("indexing") == ["d2"]
        expected = (
            len("olap cube aggregation")
            + len("olap olap indexing")
            + len("xml query processing")
        ) / 3
        assert index.average_document_length == pytest.approx(expected)

    def test_remove_then_readd_with_new_text(self, index):
        index.remove_document("d3")
        index.add_document("d3", "stream sketches")
        assert index.document_frequency("xml") == 0
        assert index.document_frequency("stream") == 1
        assert "d3" in index.documents_with_term("sketches")

    def test_copy_preserves_orders_and_isolates(self, index):
        clone = index.copy()
        assert list(clone.vocabulary()) == list(index.vocabulary())
        clone.add_document("d4", "brand new words")
        assert index.num_documents == 3
        assert clone.num_documents == 4
        assert index.document_frequency("brand") == 0


class TestFromGraph:
    def test_indexes_node_text(self):
        graph = DataGraph()
        graph.add_node("p1", "Paper", {"title": "Range Queries in OLAP Data Cubes"})
        index = InvertedIndex.from_graph(graph)
        assert index.documents_with_term("olap") == ["p1"]
        # stopword "in" dropped by the default analyzer
        assert index.document_frequency("in") == 0

    def test_metadata_indexing(self):
        graph = DataGraph()
        graph.add_node("y1", "Year", {"location": "Birmingham"})
        with_meta = InvertedIndex.from_graph(graph, include_metadata=True)
        assert with_meta.documents_with_term("location") == ["y1"]
        without = InvertedIndex.from_graph(graph)
        assert without.documents_with_term("location") == []

    def test_custom_analyzer(self):
        graph = DataGraph()
        graph.add_node("p1", "Paper", {"title": "the cube"})
        index = InvertedIndex.from_graph(graph, analyzer=Analyzer(keep_stopwords=True))
        assert index.documents_with_term("the") == ["p1"]
