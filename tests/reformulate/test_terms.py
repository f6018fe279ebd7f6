"""The cached node-term table behind Equation 11 (``repro.reformulate.terms``).

The table is read off the inverted index; the loop that tokenises every
node's text (``tests/reformulate/reference.py``) is its oracle, on the four
registry corpora and on every snapshot of random ingest edits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ObjectRankSystem
from repro.datasets import load_dataset
from repro.errors import TermTableError
from repro.graph import AuthorityTransferDataGraph
from repro.ingest import IngestEngine
from repro.ir.index import InvertedIndex
from repro.ir.tokenize import DEFAULT_STOPWORDS, Analyzer
from repro.reformulate import terms
from repro.reformulate.terms import node_term_table, table_from_index
from tests.graph.reference import tricky_rates
from tests.graph.test_transfer_build import tricky_graphs
from tests.graph.test_transfer_extension import _mutate
from tests.reformulate.reference import build_node_term_table, unique_expansion_terms


def _rows(table, graph):
    return {
        node_id: [
            table.vocabulary[t]
            for t in table.term_ids[table.indptr[i] : table.indptr[i + 1]]
        ]
        for i, node_id in enumerate(graph.node_ids)
    }


def assert_same_table(got, expected) -> None:
    """Equal ``indptr`` and ``term_ids`` arrays, equal vocabulary lists."""
    assert got.indptr.dtype == expected.indptr.dtype == np.int64
    assert got.term_ids.dtype == expected.term_ids.dtype == np.int64
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.term_ids, expected.term_ids)
    assert got.vocabulary == expected.vocabulary


def _indexed(dataset, analyzer=Analyzer()):
    """A transfer graph built beside an index of ``dataset`` by ``analyzer``."""
    index = InvertedIndex.from_graph(dataset.data_graph, analyzer)
    return AuthorityTransferDataGraph(dataset.data_graph, dataset.transfer_schema, index)


class TestTable:
    def test_rows_are_the_analyzers_unique_non_stopword_terms(self, figure1):
        graph = _indexed(figure1)
        table = node_term_table(graph)
        rows = _rows(table, graph)
        for node in figure1.data_graph.nodes():
            assert rows[node.node_id] == unique_expansion_terms(node.text())
        # "R. Agrawal": the single letter is dropped, the name kept once.
        assert rows["v6"] == ["agrawal"]
        assert len(set(table.vocabulary)) == len(table.vocabulary)

    def test_kept_stopwords_still_never_become_terms(self, figure1):
        table = node_term_table(_indexed(figure1, Analyzer(keep_stopwords=True)))
        assert "for" not in table.vocabulary and "in" not in table.vocabulary
        assert "olap" in table.vocabulary

    def test_gather_concatenates_rows_with_their_lengths(self, figure1):
        table = node_term_table(_indexed(figure1))
        nodes = np.asarray([5, 1, 5], dtype=np.int64)
        term_ids, counts = table.gather(nodes)
        assert counts.tolist() == [1, 1, 1]
        assert [table.vocabulary[t] for t in term_ids] == ["agrawal", "icde", "agrawal"]

    def test_cached_per_version_and_shared_by_rate_views(self, figure1, monkeypatch):
        data_graph = figure1.data_graph.copy()
        index = InvertedIndex.from_graph(data_graph)
        graph = AuthorityTransferDataGraph(data_graph, figure1.transfer_schema, index)
        builds = []
        real = terms.table_from_index
        monkeypatch.setattr(
            terms,
            "table_from_index",
            lambda node_ids, index: builds.append(index) or real(node_ids, index),
        )
        first = node_term_table(graph)
        rates = figure1.transfer_schema.with_vector([0.1] * len(graph.edge_types))
        view = graph.with_rates(rates)
        assert view.index is index
        assert node_term_table(view) is first
        assert builds == [index]

        # An in-place edit leaves the index describing older text: the next
        # version indexes the data graph once, for every view.
        data_graph.update_attributes("v4", {"title": "OLAP zebrafish"})
        assert graph.index is None and view.index is None
        second = node_term_table(graph)
        assert node_term_table(view) is second
        assert len(builds) == 2 and builds[1] is not index
        assert "zebrafish" in second.vocabulary

    def test_a_graph_without_an_index_reads_one_of_its_own(self, figure1_graph):
        assert figure1_graph.index is None
        assert_same_table(
            node_term_table(figure1_graph), build_node_term_table(figure1_graph)
        )


class TestRefused:
    """An index that cannot supply the table raises where it is built,
    never yields an empty row or tokenises instead."""

    def test_an_index_dropping_two_letter_terms(self, figure1):
        graph = _indexed(figure1, Analyzer(min_token_length=3))
        with pytest.raises(TermTableError, match="min_token_length 3"):
            node_term_table(graph)

    def test_an_index_dropping_more_stopwords(self, figure1):
        extra = Analyzer(stopwords=DEFAULT_STOPWORDS | {"olap"})
        with pytest.raises(TermTableError, match="olap"):
            node_term_table(_indexed(figure1, extra))
        kept = Analyzer(stopwords=DEFAULT_STOPWORDS | {"olap"}, keep_stopwords=True)
        assert "olap" in node_term_table(_indexed(figure1, kept)).vocabulary

    def test_a_graph_and_an_index_of_other_nodes(self, figure1, dblp_tiny):
        mismatched = AuthorityTransferDataGraph(
            figure1.data_graph,
            figure1.transfer_schema,
            InvertedIndex.from_graph(dblp_tiny.data_graph),
        )
        with pytest.raises(TermTableError, match="'v1' has no document"):
            node_term_table(mismatched)

    def test_a_refused_build_caches_nothing(self, figure1):
        graph = _indexed(figure1, Analyzer(min_token_length=3))
        for _ in range(2):
            with pytest.raises(TermTableError):
                node_term_table(graph)


def test_direct_data_graph_mutation_reaches_the_next_reformulation(figure1):
    """A CLI-style session over a graph someone mutates in place: the table
    is keyed on ``DataGraph.version``, so the new title's term is drawn."""
    data_graph = figure1.data_graph.copy()
    system = ObjectRankSystem(data_graph, figure1.transfer_schema)
    system.query("OLAP")
    _, before = system.reformulate(["v4"])
    assert "zebrafish" not in before.query_vector.weights

    data_graph.update_attributes("v4", {"title": "OLAP zebrafish"})
    system.query("OLAP")
    _, after = system.reformulate(["v4"])
    assert "zebrafish" in after.query_vector.weights


# -- the index's table == the tokenising oracle ------------------------------------


@pytest.mark.parametrize("name", ["dblp_complete", "dblp_top", "ds7", "ds7_cancer"])
def test_the_table_equals_the_oracle_on_every_registry_corpus(name):
    graph = _indexed(load_dataset(name, scale=0.5))
    assert_same_table(node_term_table(graph), build_node_term_table(graph))


#: Titles with repeated terms, single letters, digits, stopwords and case.
_TITLES = st.lists(
    st.sampled_from(["olap", "OLAP", "cube", "r", "x", "the", "of", "42", "b2b", "mining"]),
    max_size=6,
).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(tricky_graphs(), st.booleans(), st.data())
def test_every_refreshed_snapshot_reads_the_oracles_table(start, seeded, data):
    """1-4 rounds of random edits through ``IngestEngine.refresh``: each
    snapshot's graph carries its own index, and its table is the oracle's."""
    for node_id in start.node_ids():
        start.update_attributes(node_id, {"title": data.draw(_TITLES)})
    rates = tricky_rates()
    index = InvertedIndex.from_graph(start)
    graph = AuthorityTransferDataGraph(start, rates, index) if seeded else None
    ingest = IngestEngine(start, rates, index, graph, min_document_frequency=1)
    mirror = start.copy()
    fresh = [0]
    for _ in range(data.draw(st.integers(1, 4))):
        for _ in range(data.draw(st.integers(1, 5))):
            _mutate(data, ingest, mirror, fresh)
        nodes = mirror.node_ids()
        if nodes and data.draw(st.booleans()):
            node_id, title = data.draw(st.sampled_from(nodes)), data.draw(_TITLES)
            ingest.update_node(node_id, {"title": title})
            mirror.update_attributes(node_id, {"title": title})
        result = ingest.refresh(precompute=False)
        assert result.graph.index is result.index
        assert_same_table(node_term_table(result.graph), build_node_term_table(result.graph))
        assert_same_table(
            table_from_index(result.graph.node_ids, result.index),
            build_node_term_table(result.graph),
        )
