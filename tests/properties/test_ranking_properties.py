"""Property-based tests for authority-flow ranking (Equation 4 invariants)."""

import numpy as np
from hypothesis import given, settings

from repro.ir import BM25Scorer, InvertedIndex
from repro.query import QueryVector
from repro.ranking import objectrank2

from tests.properties.strategies import dblp_transfer_graphs
from tests.ranking.reference import objectrank


def _paper_ids(atdg):
    return [n for n in atdg.node_ids if n.startswith("paper:")]


@given(dblp_transfer_graphs())
@settings(max_examples=30, deadline=None)
def test_scores_non_negative_and_substochastic(atdg):
    result = objectrank(atdg, _paper_ids(atdg), tolerance=1e-10)
    assert (result.scores >= -1e-12).all()
    assert result.scores.sum() <= 1.0 + 1e-6


@given(dblp_transfer_graphs())
@settings(max_examples=30, deadline=None)
def test_fixpoint_residual(atdg):
    """Converged scores satisfy r = d A r + (1-d) s to within tolerance."""
    base = _paper_ids(atdg)
    result = objectrank(atdg, base, damping=0.85, tolerance=1e-12)
    restart = np.zeros(atdg.num_nodes)
    for node_id, weight in result.base_weights.items():
        restart[atdg.index_of(node_id)] = weight
    reconstructed = 0.85 * (atdg.matrix() @ result.scores) + 0.15 * restart
    assert np.abs(reconstructed - result.scores).max() < 1e-9


@given(dblp_transfer_graphs())
@settings(max_examples=25, deadline=None)
def test_warm_start_reaches_same_fixpoint(atdg):
    base = _paper_ids(atdg)
    cold = objectrank(atdg, base, tolerance=1e-12)
    warm = objectrank(atdg, base, tolerance=1e-12, init=cold.scores)
    assert np.allclose(cold.scores, warm.scores, atol=1e-8)
    assert warm.iterations <= cold.iterations


@given(dblp_transfer_graphs())
@settings(max_examples=25, deadline=None)
def test_base_nodes_hold_positive_score(atdg):
    """Every base-set node receives restart mass, hence a positive score."""
    base = _paper_ids(atdg)
    result = objectrank(atdg, base, tolerance=1e-10)
    for node_id in base:
        assert result.scores[atdg.index_of(node_id)] > 0


@given(dblp_transfer_graphs())
@settings(max_examples=20, deadline=None)
def test_objectrank2_base_weights_normalized(atdg):
    index = InvertedIndex.from_graph(atdg.data_graph)
    scorer = BM25Scorer(index)
    vector = QueryVector({"olap": 1.0, "xml": 1.0, "cube": 1.0})
    try:
        result = objectrank2(atdg, scorer, vector, tolerance=1e-10)
    except Exception as error:  # no paper contains these words
        from repro.errors import EmptyBaseSetError

        assert isinstance(error, EmptyBaseSetError)
        return
    assert abs(sum(result.base_weights.values()) - 1.0) < 1e-9
    assert all(w > 0 for w in result.base_weights.values())


@given(dblp_transfer_graphs())
@settings(max_examples=20, deadline=None)
def test_damping_extremes_interpolate(atdg):
    """Low damping pins scores to the base set; high damping spreads them."""
    base = _paper_ids(atdg)
    low = objectrank(atdg, base, damping=0.05, tolerance=1e-12)
    base_mass_low = sum(low.scores[atdg.index_of(n)] for n in base)
    high = objectrank(atdg, base, damping=0.95, tolerance=1e-12)
    base_mass_high = sum(high.scores[atdg.index_of(n)] for n in base)
    assert base_mass_low / low.scores.sum() >= base_mass_high / high.scores.sum() - 1e-6
