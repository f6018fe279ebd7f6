"""The node -> expansion-term table behind content reformulation.

Equation 11 draws expansion terms from the text of every node of an
explaining subgraph.  Node text only changes when the data graph does, so
tokenising it per feedback request redoes index-time work; this module
tokenises every node once into a CSR table (``indptr`` / ``term_ids`` over
a vocabulary list) that :meth:`ContentReformulator.term_weights
<repro.reformulate.content.ContentReformulator.term_weights>` gathers from.

The table is cached on the transfer graph per ``(data-graph version,
analyzer)`` (:meth:`AuthorityTransferDataGraph.derived
<repro.graph.transfer_graph.AuthorityTransferDataGraph.derived>`): every
learned-rate view of one topology shares it, any data-graph mutation misses
it, and an ingest refresh starts from a new graph with a cold cache.
Memory is one int64 per (node, distinct term) pair plus the vocabulary —
about 0.3 MB for the 3 910-node ``dblp_top``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.transfer_graph import AuthorityTransferDataGraph, gather_rows
from repro.ir.tokenize import Analyzer


@dataclass(frozen=True)
class NodeTermTable:
    """Distinct non-stopword terms of every node, by dense node index.

    Row ``i`` is ``term_ids[indptr[i]:indptr[i + 1]]``, ids into
    ``vocabulary``, in the node text's first-occurrence order.
    """

    indptr: np.ndarray
    term_ids: np.ndarray
    vocabulary: list[str]

    def gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(term ids, terms per node)`` of ``nodes``, rows concatenated."""
        counts = self.indptr[nodes + 1] - self.indptr[nodes]
        return gather_rows(self.indptr, self.term_ids, nodes), counts


def build_node_term_table(
    graph: AuthorityTransferDataGraph, analyzer: Analyzer
) -> NodeTermTable:
    """Tokenise every node of ``graph`` once with ``analyzer``.

    Stopwords never become expansion terms (Section 5.1), whether or not the
    analyzer keeps them for indexing.
    """
    data_graph = graph.data_graph
    vocabulary: dict[str, int] = {}
    term_ids: list[int] = []
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    for index, node_id in enumerate(graph.node_ids):
        for term in analyzer.unique_terms(data_graph.node(node_id).text()):
            if not analyzer.is_stopword(term):
                term_ids.append(vocabulary.setdefault(term, len(vocabulary)))
        indptr[index + 1] = len(term_ids)
    return NodeTermTable(
        indptr, np.asarray(term_ids, dtype=np.int64), list(vocabulary)
    )


def node_term_table(
    graph: AuthorityTransferDataGraph, analyzer: Analyzer
) -> NodeTermTable:
    """The cached table for ``graph``'s current node text under ``analyzer``."""
    return graph.derived(
        ("node_terms", analyzer), lambda: build_node_term_table(graph, analyzer)
    )
