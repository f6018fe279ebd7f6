"""Unit tests for text-table/series reporting."""

from benchmarks.reporting import format_series, format_table


class TestFormatTable:
    def test_alignment(self):
        table = format_table(
            ["name", "nodes"], [["dblp_top", 22653], ["ds7", 699199]], title="Table 1"
        )
        lines = table.splitlines()
        assert lines[0] == "Table 1"
        assert "name" in lines[1] and "nodes" in lines[1]
        assert lines[2].startswith("---")
        assert "dblp_top" in lines[3]

    def test_no_title(self):
        table = format_table(["a"], [["x"]])
        assert table.splitlines()[0].startswith("a")

    def test_wide_cells_extend_columns(self):
        table = format_table(["h"], [["a-very-long-cell-value"]])
        header, rule, row = table.splitlines()
        assert len(rule) >= len("a-very-long-cell-value")


class TestFormatSeries:
    def test_pairs(self):
        line = format_series("structure-only", [1, 2], [0.25, 0.5])
        assert line == "structure-only: 1=0.25  2=0.5"

