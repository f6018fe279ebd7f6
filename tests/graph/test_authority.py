"""Unit tests for authority transfer schema graphs (rates per edge type)."""

import pytest

from repro.datasets import (
    DBLP_GROUND_TRUTH_VECTOR,
    dblp_edge_order,
    dblp_schema,
    dblp_transfer_schema,
)
from repro.errors import RateError
from repro.graph import AuthorityTransferSchemaGraph, Direction, EdgeType, SchemaGraph


@pytest.fixture
def dblp_atsg():
    return dblp_transfer_schema()


class TestEdgeType:
    def test_forward_source_target(self):
        schema = dblp_schema()
        cites = schema.edges[0]
        forward = EdgeType(cites, Direction.FORWARD)
        assert (forward.source, forward.target) == ("Paper", "Paper")
        by = schema.edges[1]
        backward = EdgeType(by, Direction.BACKWARD)
        assert (backward.source, backward.target) == ("Author", "Paper")

    def test_direction_flip(self):
        assert Direction.FORWARD.flipped() is Direction.BACKWARD
        assert Direction.BACKWARD.flipped() is Direction.FORWARD


class TestRates:
    def test_every_schema_edge_has_two_types(self, dblp_atsg):
        assert len(dblp_atsg.edge_types()) == 2 * len(dblp_atsg.schema.edges)

    def test_ground_truth_vector_round_trip(self, dblp_atsg):
        order = dblp_edge_order(dblp_atsg.schema)
        assert dblp_atsg.as_vector(order) == pytest.approx(DBLP_GROUND_TRUTH_VECTOR)

    def test_with_vector_returns_new_graph(self, dblp_atsg):
        order = dblp_edge_order(dblp_atsg.schema)
        changed = dblp_atsg.with_vector([0.1] * 8, order)
        assert changed.as_vector(order) == pytest.approx([0.1] * 8)
        # original untouched
        assert dblp_atsg.as_vector(order) == pytest.approx(DBLP_GROUND_TRUTH_VECTOR)

    def test_with_vector_length_mismatch(self, dblp_atsg):
        with pytest.raises(RateError):
            dblp_atsg.with_vector([0.1, 0.2])

    def test_negative_rate_rejected(self, dblp_atsg):
        edge_type = dblp_atsg.edge_types()[0]
        with pytest.raises(RateError):
            dblp_atsg.with_vector([-0.1], [edge_type])
        with pytest.raises(RateError):
            AuthorityTransferSchemaGraph(dblp_atsg.schema, {edge_type: -0.1})

    @pytest.mark.parametrize("rate", ["0.5", None, object()])
    def test_a_rate_that_is_no_number_is_rejected(self, dblp_atsg, rate):
        with pytest.raises(RateError):
            dblp_atsg.with_vector([rate] * len(dblp_atsg.key))
        with pytest.raises(RateError):
            AuthorityTransferSchemaGraph(dblp_atsg.schema, {dblp_atsg.types[0]: rate})

    def test_unknown_edge_type_rejected(self):
        schema = SchemaGraph()
        schema.add_label("A")
        schema.add_edge("A", "A", "x")
        other = SchemaGraph()
        other.add_label("B")
        foreign = EdgeType(other.add_edge("B", "B", "y"), Direction.FORWARD)
        atsg = AuthorityTransferSchemaGraph(schema)
        with pytest.raises(RateError):
            atsg.rate(foreign)
        with pytest.raises(RateError):
            AuthorityTransferSchemaGraph(schema, {foreign: 0.5})

    def test_epsilon_floors_every_rate(self):
        schema = dblp_schema()
        atsg = AuthorityTransferSchemaGraph(schema, epsilon=1e-6)
        assert all(rate >= 1e-6 for rate in atsg.as_vector())

    def test_equality_is_rate_based(self, dblp_atsg):
        assert dblp_atsg == dblp_atsg.with_vector(dblp_atsg.as_vector())

    def test_the_vector_is_read_only_and_the_key_its_floats(self, dblp_atsg):
        assert not dblp_atsg.vector.flags.writeable
        assert dblp_atsg.key == tuple(dblp_atsg.as_vector())
        with pytest.raises(ValueError):
            dblp_atsg.vector[0] = 1.0

    def test_names_are_the_canonical_type_strings(self, dblp_atsg):
        """``str(EdgeType)`` names the store's ``edge_types`` section and
        the ``learned_rates`` keys: DBLP's, pinned."""
        assert dblp_atsg.names == tuple(map(str, dblp_atsg.edge_types())) == (
            "Paper-[cites]->Paper",
            "Paper-[cites]<-Paper",
            "Paper-[by]->Author",
            "Paper-[by]<-Author",
            "Conference-[has]->Year",
            "Conference-[has]<-Year",
            "Year-[contains]->Paper",
            "Year-[contains]<-Paper",
        )

    def test_rates_are_values(self, dblp_atsg):
        """No setter and no copy: a new rate is a new graph, whose key is
        its own while the original's stays put."""
        assert not hasattr(dblp_atsg, "copy")
        assert not [name for name in dir(dblp_atsg) if name.startswith("set")]
        before = dblp_atsg.key
        changed = dblp_atsg.with_vector([0.123], dblp_atsg.edge_types()[:1])
        assert changed != dblp_atsg and changed.key != before
        assert dblp_atsg.key is before


class TestConvergenceChecks:
    def test_paper_rates_are_convergent(self, dblp_atsg):
        # Figure 3: Paper's outgoing sum is exactly 1.0.
        assert dblp_atsg.outgoing_rate_sum("Paper") == pytest.approx(1.0)
        assert dblp_atsg.is_convergent()

    def test_label_sums_fold_each_labels_outgoing_types(self, dblp_atsg):
        """One sum per schema label, in the schema's label order: Year
        sends has-backward (Year->Conference) and contains-forward."""
        sums = dict(zip(dblp_atsg.schema.labels, dblp_atsg.label_sums().tolist()))
        year = [t for t in dblp_atsg.edge_types() if t.source == "Year"]
        assert sorted(t.role for t in year) == ["contains", "has"]
        assert sums["Year"] == dblp_atsg.rate(year[0]) + dblp_atsg.rate(year[1])
        assert sums == {label: dblp_atsg.outgoing_rate_sum(label) for label in sums}
        assert dblp_atsg.outgoing_rate_sum("NoSuchLabel") == 0.0

    def test_headroom_is_per_label(self):
        schema = dblp_schema()
        atsg = AuthorityTransferSchemaGraph(schema, default_rate=0.5, epsilon=0.1)
        spare, mass = atsg.headroom()
        counts = [sum(t.source == label for t in atsg.edge_types()) for label in schema.labels]
        assert spare.tolist() == [max(1.0 - k * 0.1, 0.0) for k in counts]
        assert mass.tolist() == [s - k * 0.1 for s, k in zip(atsg.label_sums().tolist(), counts)]

    def test_scaled_to_convergent(self):
        schema = dblp_schema()
        hot = AuthorityTransferSchemaGraph(schema, default_rate=0.9)
        assert not hot.is_convergent()
        cooled = hot.scaled_to_convergent()
        assert cooled.is_convergent()
        for label in schema.labels:
            assert cooled.outgoing_rate_sum(label) <= 1.0 + 1e-9
