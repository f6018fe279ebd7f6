"""Unit tests for multi-object aggregation functions (Section 5.3)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.reformulate import AGGREGATORS, aggregate_arrays, top_weights
from repro.reformulate.content import ContentReformulator
from repro.reformulate.structure import StructureReformulator

from tests.reformulate.reference import aggregate_maps, reference_top_terms


class TestAggregateMaps:
    def test_sum(self):
        result = aggregate_maps([{"a": 1.0, "b": 2.0}, {"a": 3.0}], "sum")
        assert result == {"a": 4.0, "b": 2.0}

    def test_min_ignores_absent_keys(self):
        result = aggregate_maps([{"a": 1.0}, {"a": 2.0, "b": 3.0}], "min")
        assert result == {"a": 1.0, "b": 3.0}

    def test_max(self):
        result = aggregate_maps([{"a": 1.0}, {"a": 5.0}], "max")
        assert result == {"a": 5.0}

    def test_avg(self):
        result = aggregate_maps([{"a": 1.0}, {"a": 3.0}], "avg")
        assert result == {"a": 2.0}

    def test_empty_input(self):
        assert aggregate_maps([], "sum") == {}

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            aggregate_maps([{"a": 1.0}], "median")

    def test_all_aggregators_registered(self):
        assert set(AGGREGATORS) == {"sum", "min", "max", "avg"}

    def test_single_map_identity_for_all(self):
        mapping = {"a": 1.5, "b": 0.5}
        for how in AGGREGATORS:
            assert aggregate_maps([mapping], how) == mapping


class TestAggregateArrays:
    """The array form over a presence mask equals the dict oracle."""

    MAPS = [{"a": 1.0, "b": 2.0}, {"c": 7.0}, {"a": 3.0, "c": -0.0}]
    KEYS = ["a", "b", "c"]

    def _arrays(self, maps):
        stack = np.array([[m.get(k, 0.0) for k in self.KEYS] for m in maps])
        present = np.array([[k in m for k in self.KEYS] for m in maps])
        return stack, present

    @pytest.mark.parametrize("how", sorted(AGGREGATORS))
    def test_each_aggregator_equals_the_dict_oracle(self, how):
        combined = aggregate_arrays(*self._arrays(self.MAPS), how)
        expected = aggregate_maps(self.MAPS, how)
        assert [(k, combined[i]) for i, k in enumerate(self.KEYS)] == [
            (k, expected[k]) for k in self.KEYS
        ]
        assert np.signbit(combined[2]) == np.signbit(expected["c"])

    @pytest.mark.parametrize("how", ["min", "max"])
    def test_min_and_max_keep_builtin_nan_semantics(self, how):
        """Builtin min/max keep the running value against a later NaN but
        never leave a leading NaN; so do the arrays."""
        maps = [{"a": 1.0}, {"a": np.nan, "b": 2.0}]
        combined = aggregate_arrays(*self._arrays(maps), how)
        assert combined[0] == aggregate_maps(maps, how)["a"] == 1.0
        with pytest.raises(ParameterError):
            aggregate_arrays(*self._arrays([{"b": np.nan}, {"b": 2.0}]), how)

    def test_a_nan_sum_raises_a_typed_error(self):
        with pytest.raises(ParameterError):
            aggregate_arrays(*self._arrays([{"a": np.inf}, {"a": -np.inf}]), "sum")

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            aggregate_arrays(np.zeros((1, 1)), np.ones((1, 1), bool), "median")


class TestTopWeights:
    def test_ties_break_by_term_as_a_full_sort_does(self):
        names = ["d", "c", "b", "a", "e"]
        weights = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        raw = dict(zip(names, weights.tolist()))
        for count in range(0, 7):
            got = top_weights(weights, np.arange(5), names, count)
            assert got == reference_top_terms(raw, count)[: max(count, 0)]

    def test_keys_name_the_weights(self):
        got = top_weights(np.array([3.0, 5.0]), np.array([4, 1]), list("abcde"), 1)
        assert got == [("b", 5.0)]


class TestReformulatorValidation:
    def test_content_rejects_unknown_aggregation(self):
        with pytest.raises(ValueError):
            ContentReformulator(aggregation="median")

    def test_structure_rejects_unknown_aggregation(self):
        with pytest.raises(ValueError):
            StructureReformulator(aggregation="median")
