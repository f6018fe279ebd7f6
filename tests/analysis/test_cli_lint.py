"""The ``repro lint`` CLI: formats, exit codes, baseline workflow."""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class _CreatesOnLoad:
    """Unpickling this creates the directory ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text("def f(rates):\n    rates['x'] = 1.0\n    return rates\n")
    return path


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "RL004" in out

    def test_json_format(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "RL004"

    def test_github_format(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--format", "github"]) == 1
        assert "::error file=" in capsys.readouterr().out

    def test_unknown_select_code_exits_two(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--select", "RL999"]) == 2
        assert "unknown rule codes" in capsys.readouterr().err

    def test_select_skips_other_rules(self, dirty_file):
        assert main(["lint", str(dirty_file), "--select", "RL005"]) == 0

    def test_write_then_respect_baseline(self, dirty_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(dirty_file),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        # Baselined findings no longer fail the gate ...
        assert main(["lint", str(dirty_file), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ... unless the baseline is explicitly ignored.
        assert (
            main(
                [
                    "lint",
                    str(dirty_file),
                    "--baseline",
                    str(baseline),
                    "--no-baseline",
                ]
            )
            == 1
        )

    def test_repository_gate_matches_ci_invocation(self, capsys):
        """Exactly what CI runs: repro lint --format github src -> exit 0."""
        assert (
            main(
                [
                    "lint",
                    "--format",
                    "github",
                    "--baseline",
                    str(REPO_ROOT / ".repro-lint-baseline.json"),
                    str(REPO_ROOT / "src"),
                ]
            )
            == 0
        ), capsys.readouterr().out


class TestChangedScope:
    """``repro lint --changed``: git-scoped runs with a full-run fallback."""

    @staticmethod
    def _git(*args, cwd):
        import subprocess

        subprocess.run(
            ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
             *args],
            cwd=cwd, check=True, capture_output=True,
        )

    @pytest.fixture
    def checkout(self, tmp_path):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        (tmp_path / "dirty.py").write_text("VALUE = 2\n")
        self._git("init", "-q", cwd=tmp_path)
        self._git("add", ".", cwd=tmp_path)
        self._git("commit", "-qm", "seed", cwd=tmp_path)
        return tmp_path

    def test_only_dirty_files_are_linted(self, checkout, monkeypatch, capsys):
        (checkout / "dirty.py").write_text(
            "def f(rates):\n    rates['x'] = 1.0\n    return rates\n"
        )
        monkeypatch.chdir(checkout)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RL004" in out
        assert "1 file(s)" in out  # clean.py was skipped

    def test_untracked_files_count_as_changed(
        self, checkout, monkeypatch, capsys
    ):
        (checkout / "fresh.py").write_text(
            "def f(rates):\n    rates['x'] = 1.0\n    return rates\n"
        )
        monkeypatch.chdir(checkout)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_untracked_package_is_expanded_to_its_files(
        self, checkout, monkeypatch, capsys
    ):
        """Plain porcelain collapses a new directory to ``?? pkg/``; the
        scope must still see the modules inside it."""
        package = checkout / "newpkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "bad.py").write_text(
            "def f(rates):\n    rates['x'] = 1.0\n    return rates\n"
        )
        monkeypatch.chdir(checkout)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "bad.py" in out
        assert "2 file(s)" in out  # __init__.py and bad.py, nothing else

    def test_rename_is_linted_under_its_new_name(
        self, checkout, monkeypatch, capsys
    ):
        (checkout / "dirty.py").write_text(
            "def f(rates):\n    rates['x'] = 1.0\n    return rates\n"
        )
        self._git("add", "dirty.py", cwd=checkout)
        self._git("mv", "dirty.py", "renamed.py", cwd=checkout)
        monkeypatch.chdir(checkout)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "renamed.py" in out
        assert "dirty.py" not in out

    def test_no_changes_means_an_empty_clean_run(
        self, checkout, monkeypatch, capsys
    ):
        monkeypatch.chdir(checkout)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 0
        assert "0 file(s)" in capsys.readouterr().out

    def test_a_planted_lint_cache_is_never_loaded(
        self, checkout, monkeypatch, capsys
    ):
        """A ``--changed`` run reads sources and nothing else: a pickle
        planted where the linter once kept a summary cache does not run,
        and no cache file is written."""
        marker = checkout / "marker"
        planted = checkout / ".repro-lint-cache"
        payload = pickle.dumps(_CreatesOnLoad(str(marker)))
        planted.write_bytes(payload)
        monkeypatch.chdir(checkout)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 0
        assert "0 file(s)" in capsys.readouterr().out
        assert not marker.exists()
        assert planted.read_bytes() == payload
        assert sorted(p.name for p in checkout.iterdir() if "lint" in p.name) == [
            ".repro-lint-cache"
        ]

    def test_outside_a_checkout_falls_back_to_a_full_run(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.py").write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        monkeypatch.delenv("GIT_DIR", raising=False)
        assert main(["lint", ".", "--changed", "--no-baseline"]) == 0
        captured = capsys.readouterr()
        assert "--changed needs a git checkout" in captured.err
        assert "1 file(s)" in captured.out  # full run, nothing skipped
