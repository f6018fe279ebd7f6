"""Unit tests for the ASCII chart helper."""

import pytest

from benchmarks.reporting import ascii_chart


class TestAsciiChart:
    def test_basic_shape(self):
        chart = ascii_chart({"a": [0.0, 0.5, 1.0]}, width=20, height=5, title="t")
        lines = chart.splitlines()
        assert lines[0] == "t"
        assert lines[1].strip().startswith("1.000")
        assert "o=a" in lines[-1]

    def test_marker_positions_monotone(self):
        chart = ascii_chart({"up": [0.0, 1.0]}, width=10, height=4)
        rows = [line for line in chart.splitlines() if "|" in line]
        first_marker_row = next(i for i, row in enumerate(rows) if "o" in row)
        last_marker_row = max(i for i, row in enumerate(rows) if "o" in row)
        assert first_marker_row < last_marker_row  # higher value plots higher

    def test_multiple_series_get_distinct_markers(self):
        chart = ascii_chart({"a": [0, 1], "b": [1, 0]})
        assert "o=a" in chart and "x=b" in chart

    def test_flat_series_handled(self):
        chart = ascii_chart({"flat": [0.5, 0.5, 0.5]})
        assert "flat" in chart

    def test_single_point(self):
        assert "o=p" in ascii_chart({"p": [1.0]})

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"a": [1.0], "b": [1.0, 2.0]})
        with pytest.raises(ValueError):
            ascii_chart({"a": []})

    def test_explicit_bounds_clamp(self):
        chart = ascii_chart({"a": [0.0, 10.0]}, y_min=0.0, y_max=1.0)
        assert "1.000" in chart
