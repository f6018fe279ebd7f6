"""The node -> expansion-term table behind content reformulation.

Equation 11 draws expansion terms from the text of every node of an
explaining subgraph, "ignoring stop words" (Section 5.1).  Every node is
already a document of the inverted index (Section 3), which holds each
document's distinct terms in first-occurrence order, so this module reads
the table off the index instead of tokenising node text again: a CSR table
(``indptr`` / ``term_ids`` over a vocabulary list) that
:meth:`ContentReformulator.term_weights
<repro.reformulate.content.ContentReformulator.term_weights>` gathers from.
A term is kept when it has at least :data:`MIN_TERM_LENGTH` characters and
is no stopword (:data:`~repro.ir.tokenize.DEFAULT_STOPWORDS`): single
letters, such as author initials, are never useful query terms.

The index is the one the transfer graph was built beside
(:attr:`AuthorityTransferDataGraph.index
<repro.graph.transfer_graph.AuthorityTransferDataGraph.index>`), so an
explanation alone reaches the text of its own snapshot; a graph built
without one indexes its data graph once per version for the table.  The
table is cached on the transfer graph per data-graph version
(:meth:`~repro.graph.transfer_graph.AuthorityTransferDataGraph.derived`):
every learned-rate view of one topology shares it, and any data-graph
mutation misses it.  Memory is one int64 per (node, distinct term) pair
plus the vocabulary — about 0.3 MB for the 3 910-node ``dblp_top``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import TermTableError
from repro.graph.transfer_graph import AuthorityTransferDataGraph, gather_rows
from repro.ir.index import InvertedIndex
from repro.ir.tokenize import DEFAULT_STOPWORDS

#: Shortest expansion term, in characters.
MIN_TERM_LENGTH = 2


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


def table_from_index(node_ids: Iterable[str], index: InvertedIndex) -> NodeTermTable:
    """The table of ``node_ids``, in that order, read off ``index``.

    Raises :class:`~repro.errors.TermTableError` when ``index`` cannot
    supply it: its analyzer drops terms the expansion rule keeps (a
    ``min_token_length`` above :data:`MIN_TERM_LENGTH`, or stopwords beyond
    :data:`~repro.ir.tokenize.DEFAULT_STOPWORDS` that it does not keep), or
    a node has no document in it, so the index is not over these nodes.
    There is no fallback to tokenising the node text.
    """
    analyzer = index.analyzer
    dropped = set() if analyzer.keep_stopwords else analyzer.stopwords - DEFAULT_STOPWORDS
    if analyzer.min_token_length > MIN_TERM_LENGTH or dropped:
        raise TermTableError(
            f"the index's analyzer drops expansion terms "
            f"(min_token_length {analyzer.min_token_length}, "
            f"extra stopwords {sorted(dropped)[:5]})"
        )
    vocabulary: dict[str, int] = {}
    term_ids: list[int] = []
    offsets = [0]
    for node_id in node_ids:
        terms = index.document_terms(node_id)
        if terms is None:
            raise TermTableError(f"node {node_id!r} has no document in the index")
        for term in terms:
            if len(term) >= MIN_TERM_LENGTH and term not in DEFAULT_STOPWORDS:
                term_ids.append(vocabulary.setdefault(term, len(vocabulary)))
        offsets.append(len(term_ids))
    return NodeTermTable(
        np.asarray(offsets, dtype=np.int64),
        np.asarray(term_ids, dtype=np.int64),
        list(vocabulary),
    )


def node_term_table(graph: AuthorityTransferDataGraph) -> NodeTermTable:
    """The cached table for ``graph``'s current node text."""

    def build() -> NodeTermTable:
        index = graph.index
        if index is None:
            index = InvertedIndex.from_graph(graph.data_graph)
        return table_from_index(graph.node_ids, index)

    return graph.derived("node_terms", build)
