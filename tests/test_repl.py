"""Unit tests for the interactive shell."""

import pytest

from repro.core import ObjectRankSystem, SystemConfig
from repro.repl import ReplSession, run_repl


@pytest.fixture
def system(figure1):
    return ObjectRankSystem(
        figure1.data_graph,
        figure1.transfer_schema,
        SystemConfig(top_k=7, radius=None),
    )


@pytest.fixture
def session(system):
    return ReplSession(system)


class TestCommands:
    def test_query_lists_results(self, session):
        output = session.handle("query olap")
        assert any("Data Cube" in line for line in output)
        assert output[-1].endswith("ObjectRank2 iterations)")

    def test_blank_line_ignored(self, session):
        assert session.handle("   ") == []

    def test_unknown_command(self, session):
        assert "unknown command" in session.handle("frobnicate")[0]

    def test_explain_requires_query_first(self, session):
        output = session.handle("explain 1")
        assert output[0].startswith("error:")

    def test_explain_by_rank(self, session):
        session.handle("query olap")
        output = session.handle("explain 1")
        assert any("Explanation for" in line for line in output)

    def test_explain_bad_rank(self, session):
        session.handle("query olap")
        assert session.handle("explain 99")[0].startswith("error:")

    def test_explain_usage(self, session):
        assert session.handle("explain")[0].startswith("usage:")

    def test_mark_reformulates(self, session):
        session.handle("query olap")
        output = session.handle("mark 1 2")
        assert output[0].startswith("marked:")
        assert any("ObjectRank2 iterations" in line for line in output)

    def test_rates_and_vector(self, session):
        session.handle("query olap")
        rates = session.handle("rates")
        assert len(rates) == 8  # DBLP edge types
        vector = session.handle("vector")
        assert vector == ["olap: 1.000"]

    def test_vector_before_query(self, session):
        assert session.handle("vector") == ["(no query yet)"]

    def test_help(self, session):
        assert any("query" in line for line in session.handle("help"))

    def test_query_usage(self, session):
        assert session.handle("query")[0].startswith("usage:")

    def test_mark_usage(self, session):
        assert session.handle("mark abc")[0].startswith("usage:")


class TestRunRepl:
    def test_scripted_session(self, figure1, system):
        written = []
        code = run_repl(
            figure1,
            system,
            ["query olap", "explain 1", "mark 1", "quit", "query never-reached"],
            write=written.append,
        )
        assert code == 0
        text = "\n".join(written)
        assert "dataset figure1" in text
        assert "Explanation for" in text
        assert "never-reached" not in text
