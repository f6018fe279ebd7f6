"""Shared fixtures: the paper's Figure 1 example and small synthetic datasets.

Expensive fixtures are session-scoped; tests must not mutate them.  Tests that
need a mutable graph build their own through the helpers below.
"""

from __future__ import annotations

import pytest

from tests import lockdep

# Before the first ``repro`` import: a lock built earlier would be a real one.
lockdep.install()

from repro.datasets import load_dataset
from repro.datasets.figure1 import figure1_dataset
from repro.graph import AuthorityTransferDataGraph
from repro.ir import BM25Scorer, InvertedIndex
from repro.query import KeywordQuery, SearchEngine
from repro.ranking import objectrank2


@pytest.fixture(autouse=True)
def no_lockdep_violation():
    """Fail a test that left a lock violation behind, even one a server
    thread caught and turned into an error response."""
    yield
    if lockdep.violations:
        left = list(lockdep.violations)
        lockdep.violations.clear()
        pytest.fail("\n\n".join(str(error) for error in left))


@pytest.fixture(scope="session")
def figure1():
    """The Figure 1 dataset (7 nodes, 9 edges, Figure 3 rates)."""
    return figure1_dataset()


@pytest.fixture(scope="session")
def figure1_graph(figure1):
    """The materialized authority transfer data graph of Figure 5."""
    return AuthorityTransferDataGraph(figure1.data_graph, figure1.transfer_schema)


@pytest.fixture(scope="session")
def figure1_index(figure1):
    return InvertedIndex.from_graph(figure1.data_graph)


@pytest.fixture(scope="session")
def figure1_scorer(figure1_index):
    return BM25Scorer(figure1_index)


@pytest.fixture(scope="session")
def olap_result(figure1_graph, figure1_scorer):
    """Converged ObjectRank2 scores for Q=["OLAP"] on Figure 1 (Figure 6)."""
    return objectrank2(
        figure1_graph,
        figure1_scorer,
        KeywordQuery(["OLAP"]).vector(),
        damping=0.85,
        tolerance=1e-8,
    )


@pytest.fixture(scope="session")
def dblp_tiny():
    """A small synthetic DBLP dataset (a few hundred nodes)."""
    return load_dataset("dblp_tiny")


@pytest.fixture(scope="session")
def bio_tiny():
    """A small synthetic biological dataset."""
    return load_dataset("bio_tiny")


@pytest.fixture(scope="session")
def dblp_tiny_engine(dblp_tiny):
    """A shared search engine over dblp_tiny with ground-truth rates."""
    return SearchEngine(dblp_tiny.data_graph, dblp_tiny.transfer_schema)
