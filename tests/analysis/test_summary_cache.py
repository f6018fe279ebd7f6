"""The persistent summary cache: hit/miss semantics and invalidation.

The acceptance criterion of the incremental-lint satellite is that a no-op
``repro lint --changed`` run performs **zero** project-phase fixpoint
iterations — the summary index loads from disk keyed on per-file content
hashes, and any content change invalidates it.
"""

import textwrap

import pytest

from repro.analysis import Baseline, all_checkers, run_lint
from repro.analysis.summary_cache import (
    CACHE_VERSION,
    file_hashes,
    load_summaries,
    store_summaries,
)

HELPER = """
    def save(path):
        return open(path)
"""

HANDLER = """
    from helper import save

    class Handler:
        def do_POST(self):
            body = self._read_json_body()
            save(body["path"])
"""


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "helper.py").write_text(textwrap.dedent(HELPER))
    (tmp_path / "handler.py").write_text(textwrap.dedent(HANDLER))
    return tmp_path


def lint(tree, cache):
    return run_lint(
        [tree],
        checkers=all_checkers(),
        baseline=Baseline(),
        root=tree,
        cache=cache,
    )


class TestSummaryCache:
    def test_cold_run_is_a_miss_that_populates(self, tree):
        cache = tree / ".repro-lint-cache"
        report = lint(tree, cache)
        assert report.summary_cache == "miss"
        assert report.fixpoint_rounds > 0
        assert cache.exists()

    def test_noop_rerun_hits_with_zero_fixpoint_rounds(self, tree):
        cache = tree / ".repro-lint-cache"
        first = lint(tree, cache)
        second = lint(tree, cache)
        assert second.summary_cache == "hit"
        assert second.fixpoint_rounds == 0
        # Identical findings either way — the cache is invisible except
        # for the skipped work.
        assert [f.fingerprint() for f in second.findings] == [
            f.fingerprint() for f in first.findings
        ]

    def test_content_change_invalidates(self, tree):
        cache = tree / ".repro-lint-cache"
        first = lint(tree, cache)
        assert any(f.code == "RL014" for f in first.findings)
        # Sanitize the helper: the cached summaries are now stale and the
        # fixpoint must rerun to clear the finding.
        (tree / "helper.py").write_text(
            textwrap.dedent(
                """
                def save(raw):
                    path = _require_str({"path": raw}, "path")
                    return open(path)
                """
            )
        )
        second = lint(tree, cache)
        assert second.summary_cache == "miss"
        assert second.fixpoint_rounds > 0
        assert not any(f.code == "RL014" for f in second.findings)
        # And the rewritten cache serves the new tree.
        third = lint(tree, cache)
        assert third.summary_cache == "hit"
        assert not any(f.code == "RL014" for f in third.findings)

    def test_added_file_invalidates(self, tree):
        cache = tree / ".repro-lint-cache"
        lint(tree, cache)
        (tree / "extra.py").write_text("VALUE = 1\n")
        assert lint(tree, cache).summary_cache == "miss"

    def test_no_cache_path_means_no_cache_activity(self, tree):
        report = lint(tree, None)
        assert report.summary_cache == ""
        assert report.fixpoint_rounds > 0
        assert not (tree / ".repro-lint-cache").exists()

    def test_corrupt_cache_is_a_silent_miss(self, tree):
        cache = tree / ".repro-lint-cache"
        cache.write_bytes(b"not a pickle")
        report = lint(tree, cache)
        assert report.summary_cache == "miss"
        assert report.fixpoint_rounds > 0
        # The corrupt file was replaced with a valid one.
        assert lint(tree, cache).summary_cache == "hit"

    def test_version_skew_is_a_miss(self, tree):
        import pickle

        cache = tree / ".repro-lint-cache"
        lint(tree, cache)
        payload = pickle.loads(cache.read_bytes())
        assert payload["version"] == CACHE_VERSION
        payload["version"] = CACHE_VERSION + 1
        cache.write_bytes(pickle.dumps(payload))
        assert lint(tree, cache).summary_cache == "miss"


class TestCachePrimitives:
    def test_file_hashes_track_content(self, tree):
        from repro.analysis.base import SourceFile

        def sources():
            return [
                SourceFile.parse(p.name, p.read_text())
                for p in sorted(tree.glob("*.py"))
            ]

        before = file_hashes(sources())
        assert set(before) == {"handler.py", "helper.py"}
        (tree / "helper.py").write_text("VALUE = 2\n")
        after = file_hashes(sources())
        assert before["handler.py"] == after["handler.py"]
        assert before["helper.py"] != after["helper.py"]

    def test_load_requires_exact_hash_map(self, tmp_path):
        class FakeIndex:
            by_id = {"m.f": object()}
            converged = True

        cache = tmp_path / "cache"
        store_summaries(cache, {"a.py": "h1"}, FakeIndex())
        assert load_summaries(cache, {"a.py": "h1"}) is not None
        assert load_summaries(cache, {"a.py": "h2"}) is None
        assert load_summaries(cache, {"a.py": "h1", "b.py": "h3"}) is None
        assert load_summaries(cache, {}) is None

    def test_missing_file_loads_none(self, tmp_path):
        assert load_summaries(tmp_path / "absent", {}) is None
