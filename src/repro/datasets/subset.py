"""Keyword-focused dataset subsets.

The paper derives DS7cancer from DS7 as "PubMed publications related to
'cancer' and all biological entities related to these publications", and
DBLPtop from DBLPcomplete as a databases-related subset.  This module
implements that derivation generically: take the nodes matching a keyword,
expand by a bounded number of hops (in either edge direction), and keep the
induced subgraph.
"""

from __future__ import annotations

from collections import deque

from repro.datasets.base import Dataset
from repro.errors import DatasetError
from repro.graph.data_graph import DataGraph
from repro.ir.tokenize import DEFAULT_ANALYZER, Analyzer


def keyword_subset(
    dataset: Dataset,
    keyword: str,
    hops: int = 1,
    seed_labels: tuple[str, ...] | None = None,
    name: str | None = None,
    analyzer: Analyzer = DEFAULT_ANALYZER,
) -> Dataset:
    """The induced subgraph around nodes containing ``keyword``.

    ``seed_labels`` restricts which node types can seed the subset (e.g. only
    ``PubMed`` publications for DS7cancer); expansion then includes any node
    within ``hops`` undirected hops of a seed.  Edges are kept when both
    endpoints survive.
    """
    if hops < 0:
        raise DatasetError(f"hops must be non-negative, got {hops}")
    source = dataset.data_graph
    term = analyzer.terms(keyword)
    if not term:
        raise DatasetError(f"keyword {keyword!r} has no indexable term")
    # The term's postings over the node text an index would hold, in the
    # same (graph) order, without indexing every other term of the corpus.
    seeds = [
        node.node_id
        for node in source.nodes()
        if (seed_labels is None or node.label in seed_labels)
        and term[0] in analyzer.terms(node.text())
    ]
    if not seeds:
        raise DatasetError(f"no node matches keyword {keyword!r}")

    kept: dict[str, int] = {node_id: 0 for node_id in seeds}
    frontier = deque(seeds)
    while frontier:
        node_id = frontier.popleft()
        depth = kept[node_id]
        if depth >= hops:
            continue
        for edge in source.out_edges(node_id):
            if edge.target not in kept:
                kept[edge.target] = depth + 1
                frontier.append(edge.target)
        for edge in source.in_edges(node_id):
            if edge.source not in kept:
                kept[edge.source] = depth + 1
                frontier.append(edge.source)

    subgraph = DataGraph()
    for node in source.nodes():
        if node.node_id in kept:
            subgraph.add_node(node.node_id, node.label, node.attributes)
    for edge in source.edges():
        if edge.source in kept and edge.target in kept:
            subgraph.add_edge(edge.source, edge.target, edge.role)

    extras = dict(dataset.extras)
    extras["subset_keyword"] = keyword
    return Dataset(
        name=name or f"{dataset.name}_{keyword}",
        data_graph=subgraph,
        transfer_schema=dataset.transfer_schema,
        ground_truth_rates=dataset.ground_truth_rates,
        extras=extras,
    )
