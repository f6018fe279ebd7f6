"""Every example script must run clean end-to-end.

Examples are executed in-process via runpy with argv patched, so failures
surface as ordinary test failures with stack traces.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(monkeypatch, capsys, name: str, *argv: str) -> str:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py")
        assert "Data Cube" in out
        assert "Explanation for v4" in out
        assert "transfer rates (before -> after):" in out

    def test_bibliographic_search(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "bibliographic_search.py", "olap")
        assert "precision@10" in out
        assert "cosine similarity:" in out

    def test_biological_discovery(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)  # the script writes a .dot file
        out = run_example(monkeypatch, capsys, "biological_discovery.py", "cancer")
        assert "Top entities for 'cancer'" in out
        assert (tmp_path / "biological_explanation.dot").exists() or (
            "nothing to explain" in out
        )

    def test_train_transfer_rates(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "train_transfer_rates.py")
        assert "Cf=0.5" in out
        assert "peak at iteration" in out
        assert "learned | expert" in out

    def test_every_example_has_a_test(self):
        tested = {
            "quickstart.py",
            "bibliographic_search.py",
            "biological_discovery.py",
            "train_transfer_rates.py",
        }
        on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert on_disk == tested
