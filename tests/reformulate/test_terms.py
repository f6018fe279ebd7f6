"""The cached node-term table behind Equation 11 (``repro.reformulate.terms``)."""

import numpy as np

from repro.core import ObjectRankSystem
from repro.graph import AuthorityTransferDataGraph
from repro.ir.tokenize import Analyzer
from repro.reformulate import terms
from repro.reformulate.terms import build_node_term_table, node_term_table

EXPANSION = Analyzer(min_token_length=2)


def _rows(table, graph):
    return {
        node_id: [
            table.vocabulary[t]
            for t in table.term_ids[table.indptr[i] : table.indptr[i + 1]]
        ]
        for i, node_id in enumerate(graph.node_ids)
    }


class TestTable:
    def test_rows_are_the_analyzers_unique_non_stopword_terms(self, figure1_graph):
        table = build_node_term_table(figure1_graph, EXPANSION)
        rows = _rows(table, figure1_graph)
        for node in figure1_graph.data_graph.nodes():
            assert rows[node.node_id] == [
                term
                for term in EXPANSION.unique_terms(node.text())
                if not EXPANSION.is_stopword(term)
            ]
        # "R. Agrawal": the single letter is dropped, the name kept once.
        assert rows["v6"] == ["agrawal"]
        assert len(set(table.vocabulary)) == len(table.vocabulary)

    def test_kept_stopwords_still_never_become_terms(self, figure1_graph):
        table = build_node_term_table(figure1_graph, Analyzer(keep_stopwords=True))
        assert "for" not in table.vocabulary and "in" not in table.vocabulary
        assert "olap" in table.vocabulary

    def test_gather_concatenates_rows_with_their_lengths(self, figure1_graph):
        table = build_node_term_table(figure1_graph, EXPANSION)
        nodes = np.asarray([5, 1, 5], dtype=np.int64)
        term_ids, counts = table.gather(nodes)
        assert counts.tolist() == [1, 1, 1]
        assert [table.vocabulary[t] for t in term_ids] == ["agrawal", "icde", "agrawal"]

    def test_cached_per_analyzer_and_shared_by_rate_views(self, figure1, monkeypatch):
        graph = AuthorityTransferDataGraph(figure1.data_graph, figure1.transfer_schema)
        builds = []
        real = terms.build_node_term_table
        monkeypatch.setattr(
            terms,
            "build_node_term_table",
            lambda g, a: builds.append(a) or real(g, a),
        )
        first = node_term_table(graph, EXPANSION)
        view = graph.with_rates(figure1.transfer_schema)
        assert node_term_table(view, Analyzer(min_token_length=2)) is first
        assert node_term_table(graph, Analyzer()) is not first
        assert builds == [EXPANSION, Analyzer()]


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
