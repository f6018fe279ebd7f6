"""Unit tests for structure-based reformulation (Section 5.2, Equation 13).

Includes the Example 2 regression: our normalization pipeline reproduces the
paper's reformulated rate vector [0.67, 0.0, 0.24, 0.16, 0.24, 0.24, 0.24,
0.08] from the stated inputs.
"""

import numpy as np
import pytest

from repro.datasets import dblp_edge_order, dblp_transfer_schema
from repro.explain import adjust_flows, build_explaining_subgraph
from repro.graph.authority import Direction, EdgeType
from repro.reformulate import StructureReformulator

from tests.reformulate.reference import FlowsByType


@pytest.fixture
def explanation(figure1_graph, olap_result):
    base = list(olap_result.base_weights)
    subgraph = build_explaining_subgraph(figure1_graph, base, "v4", radius=None)
    return adjust_flows(subgraph, olap_result.scores, 0.85, tolerance=1e-10)


class TestFlowFactors:
    def test_factors_sum_across_objects(self, explanation):
        reformulator = StructureReformulator(0.5)
        single = reformulator.flow_factors([explanation])
        double = reformulator.flow_factors([explanation, explanation])
        assert double == pytest.approx(2 * single)

    def test_factors_match_explanation_totals(self, explanation):
        """One factor per edge type of the graph, 0.0 where the subgraph
        has no edge of the type."""
        reformulator = StructureReformulator(0.5)
        factors = reformulator.flow_factors([explanation])
        totals, present = explanation.type_flows()
        assert len(factors) == len(explanation.graph.edge_types)
        assert np.array_equal(factors, np.where(present, totals, 0.0))

    def test_no_explanations_give_no_factors(self):
        assert StructureReformulator().flow_factors([]).size == 0


class TestReformulation:
    def test_flow_carrying_types_gain_relative_to_others(self, explanation, figure1):
        """In the v4 explanation the by/AP edges carry flow while CY carries
        none, so by's rate must grow relative to CY's."""
        reformulator = StructureReformulator(0.5)
        before = figure1.transfer_schema
        after = reformulator.reformulate(before, [explanation])
        order = dblp_edge_order(before.schema)
        b = dict(zip(order, before.as_vector(order)))
        a = dict(zip(order, after.as_vector(order)))
        pa = order[2]  # Paper->Author forward
        cy = order[4]  # Conference->Year forward
        assert a[pa] / b[pa] > a[cy] / b[cy]

    def test_result_is_convergent(self, explanation, figure1):
        reformulator = StructureReformulator(0.9)
        after = reformulator.reformulate(figure1.transfer_schema, [explanation])
        assert after.is_convergent()

    def test_zero_factor_changes_nothing(self, explanation, figure1):
        reformulator = StructureReformulator(0.0)
        after = reformulator.reformulate(figure1.transfer_schema, [explanation])
        # Cf=0 boosts nothing; normalization then only rescales uniformly,
        # which preserves relative rates.
        order = dblp_edge_order(figure1.schema)
        before_vec = figure1.transfer_schema.as_vector(order)
        after_vec = after.as_vector(order)
        ratios = {
            round(a / b, 9) for a, b in zip(after_vec, before_vec) if b > 0
        }
        assert len(ratios) == 1

    def test_no_explanations_returns_the_rates_unchanged(self, figure1):
        """Rates are values: with nothing to learn from, the very same
        (immutable) rates come back, no defensive copy."""
        reformulator = StructureReformulator(0.5)
        after = reformulator.reformulate(figure1.transfer_schema, [])
        assert after is figure1.transfer_schema

    def test_original_schema_untouched(self, explanation, figure1):
        order = dblp_edge_order(figure1.schema)
        before_vec = list(figure1.transfer_schema.as_vector(order))
        StructureReformulator(0.5).reformulate(figure1.transfer_schema, [explanation])
        assert figure1.transfer_schema.as_vector(order) == before_vec

    def test_adjustment_factor_bounds(self):
        with pytest.raises(ValueError):
            StructureReformulator(-0.1)
        with pytest.raises(ValueError):
            StructureReformulator(1.1)


class TestExample2Regression:
    def test_paper_normalization_numbers(self, figure1):
        """Feed the normalization pipeline the F values implied by Example 2
        (F_norm(PA) = 1, F_norm(PP) ~ 0.39) and check the paper's output
        vector [0.67, 0.0, 0.24, 0.16, 0.24, 0.24, 0.24, 0.08]."""
        schema = figure1.schema
        order = dblp_edge_order(schema)
        before = dblp_transfer_schema()  # [0.7, 0, .2, .2, .3, .3, .3, .1]
        pp = order[0]
        pa = order[2]

        flows = FlowsByType({pa: 1.0, pp: 0.392}, before.edge_types())
        after = StructureReformulator(0.5).reformulate(before, [flows])
        result = after.as_vector(order)
        expected = [0.67, 0.0, 0.24, 0.16, 0.24, 0.24, 0.24, 0.08]
        assert result == pytest.approx(expected, abs=0.01)

    def test_pa_up_ap_down(self, figure1):
        """The paper notes PA increases and AP decreases after Example 2."""
        order = dblp_edge_order(figure1.schema)
        before = dblp_transfer_schema()
        pp, pa = order[0], order[2]

        flows = FlowsByType({pa: 1.0, pp: 0.392}, before.edge_types())
        after = StructureReformulator(0.5).reformulate(before, [flows])
        vec = after.as_vector(order)
        assert vec[2] > 0.2  # PA up
        assert vec[3] < 0.2  # AP down
