"""Hypothesis strategies for property-based tests.

The central strategy builds random data graphs conforming to the DBLP schema
(Figure 2), so every property test exercises the same typed-graph machinery
the paper's system runs on.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.graph import AuthorityTransferDataGraph, DataGraph

_WORDS = (
    "olap", "cube", "xml", "mining", "query", "index", "stream", "rank",
    "graph", "join", "search", "web", "view", "log",
)


@st.composite
def dblp_graphs(draw, min_papers: int = 2, max_papers: int = 8, words=_WORDS):
    """A random conforming DBLP data graph with at least one word per paper."""
    num_papers = draw(st.integers(min_papers, max_papers))
    num_authors = draw(st.integers(1, 4))
    graph = DataGraph()
    graph.add_node("conf:0", "Conference", {"name": "icde"})
    graph.add_node("year:0", "Year", {"name": "icde", "year": "1997"})
    graph.add_edge("conf:0", "year:0", "has")
    for a in range(num_authors):
        graph.add_node(f"author:{a}", "Author", {"name": f"author{a}"})
    for p in range(num_papers):
        title = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
        graph.add_node(f"paper:{p}", "Paper", {"title": " ".join(title)})
        graph.add_edge("year:0", f"paper:{p}", "contains")
        author = draw(st.integers(0, num_authors - 1))
        graph.add_edge(f"paper:{p}", f"author:{author}", "by")
    # Random citations (no self-loops; duplicates allowed — parallel edges).
    num_citations = draw(st.integers(0, 2 * num_papers))
    for _ in range(num_citations):
        source = draw(st.integers(0, num_papers - 1))
        target = draw(st.integers(0, num_papers - 1))
        if source != target:
            graph.add_edge(f"paper:{source}", f"paper:{target}", "cites")
    return graph


@st.composite
def dblp_transfer_graphs(draw, epsilon: float = 0.0, words=_WORDS):
    """A materialized transfer graph over a random DBLP data graph."""
    graph = draw(dblp_graphs(words=words))
    rates = dblp_transfer_schema(epsilon=epsilon)
    return AuthorityTransferDataGraph(graph, rates)


@st.composite
def rate_vectors(draw, size: int = 8):
    """A random non-negative rate vector with at least one positive entry."""
    vector = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=size, max_size=size
        )
    )
    if all(v == 0.0 for v in vector):
        vector[draw(st.integers(0, size - 1))] = draw(st.floats(0.01, 1.0))
    return vector
