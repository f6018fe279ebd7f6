"""Property tests: two-stage is bit-identical to the paths it shortcuts.

The acceptance criterion of the two-stage engine: the fast path earns trust
by collapsing *exactly* (same floats, not approximately) onto the code it
shortcuts —

* the top-N page ≡ the exhaustive document-at-a-time BM25 ranking cut at N
  (same ids, same scores, document-id tiebreak), for every random graph,
  query and N;
* candidates ⊇ corpus ≡ focused ObjectRank2, and both ≡ the run over the
  induced submatrix neither builds.

The stage-1 property over all three scorers and 1-12 weighted terms is in
``test_read_path_properties.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import BM25Scorer, InvertedIndex
from repro.query import QueryVector
from repro.retrieval import top_n_candidates, two_stage_rank

from tests.ir.reference import reference_top_n
from tests.properties.strategies import dblp_transfer_graphs
from tests.ranking.reference import focused_objectrank2, reference_induced_objectrank

_WORDS = (
    "olap", "cube", "xml", "mining", "query", "index", "stream", "rank",
    "graph", "join", "search", "web", "view", "log",
)


@st.composite
def graph_and_query(draw):
    """A random transfer graph plus a query matching at least one document."""
    atdg = draw(dblp_transfer_graphs())
    index = InvertedIndex.from_graph(atdg.data_graph)
    vocabulary = sorted(set(_WORDS) & set(index.vocabulary()))
    terms = draw(
        st.lists(st.sampled_from(vocabulary), min_size=1, max_size=3, unique=True)
    )
    weights = {
        term: draw(st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False))
        for term in terms
    }
    return atdg, BM25Scorer(index), QueryVector(weights)


@given(graph_and_query(), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_pruned_top_n_is_bit_identical_to_exhaustive(case, n):
    _, scorer, vector = case
    top = top_n_candidates(scorer, vector, n)
    assert [(c.doc_id, c.score) for c in top] == reference_top_n(scorer, vector, n)


@given(graph_and_query(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_degenerate_two_stage_is_bit_identical_to_focused(case, horizon):
    atdg, scorer, vector = case
    two_stage = two_stage_rank(
        atdg,
        scorer,
        vector,
        candidates=10_000,  # always covers the whole corpus
        horizon=horizon,
    )
    focused = focused_objectrank2(atdg, scorer, vector, horizon=horizon)
    assert np.array_equal(two_stage.ranked.scores, focused.ranked.scores)
    assert two_stage.ranked.base_weights == focused.ranked.base_weights
    assert two_stage.ranked.iterations == focused.ranked.iterations
    assert two_stage.subgraph_nodes == focused.subgraph_nodes
    assert two_stage.subgraph_edges == focused.subgraph_edges
    # ... and both are the run over the induced submatrix neither builds.
    outcome, edge_count = reference_induced_objectrank(
        atdg, focused.neighborhood, focused.ranked.base_weights
    )
    assert np.array_equal(two_stage.neighborhood, focused.neighborhood)
    assert np.array_equal(focused.ranked.scores[focused.neighborhood], outcome.scores)
    assert focused.ranked.iterations == outcome.iterations
    assert focused.ranked.residuals == two_stage.ranked.residuals == outcome.residuals
    assert focused.subgraph_edges == edge_count

