"""Generation-swap protocol tests, including concurrent reader processes."""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.errors import ParameterError, StoreError
from repro.query import KeywordQuery
from repro.ranking.precompute import PrecomputedRanker
from repro.store import (
    MANIFEST_NAME,
    StoreManager,
    build_and_publish,
    list_generations,
    next_generation,
    prune_generations,
    publish_manifest,
    read_manifest,
    store_path,
    write_score_store,
)


@pytest.fixture(scope="module")
def ranker(figure1_graph, figure1_index):
    return PrecomputedRanker(
        figure1_graph, figure1_index, min_document_frequency=1
    )


@pytest.fixture(scope="module")
def ranker_b(figure1_graph, figure1_index):
    """Same rates, different damping: same freshness, different scores."""
    return PrecomputedRanker(
        figure1_graph, figure1_index, min_document_frequency=1, damping=0.7
    )


class TestManifest:
    def test_empty_directory(self, tmp_path):
        assert read_manifest(tmp_path) is None
        assert list_generations(tmp_path) == []
        assert next_generation(tmp_path) == 1
        assert read_manifest(tmp_path / "missing-subdir") is None

    def test_publish_and_read_back(self, tmp_path, ranker):
        path = store_path(tmp_path, 1)
        write_score_store(path, ranker, dataset="fig1", generation=1)
        manifest = publish_manifest(tmp_path, 1, path.name)
        assert read_manifest(tmp_path) == manifest
        assert next_generation(tmp_path) == 2

    def test_publishing_a_missing_file_refuses(self, tmp_path):
        with pytest.raises(StoreError, match="missing store file"):
            publish_manifest(tmp_path, 1, "store.gen-1.slab")

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="corrupt manifest"):
            read_manifest(tmp_path)

    def test_build_and_publish_increments_generations(self, tmp_path, ranker):
        first = build_and_publish(tmp_path, ranker, "fig1")
        second = build_and_publish(tmp_path, ranker, "fig1")
        assert (first.generation, second.generation) == (1, 2)
        assert read_manifest(tmp_path).generation == 2

    def test_prune_keeps_newest_and_current(self, tmp_path, ranker):
        for _ in range(4):
            build_and_publish(tmp_path, ranker, "fig1", keep=10)
        # Point CURRENT at an *old* generation, then prune hard.
        publish_manifest(tmp_path, 1, store_path(tmp_path, 1).name)
        pruned = prune_generations(tmp_path, keep=1)
        assert 1 not in pruned  # never the published one
        assert list_generations(tmp_path) == [1, 4]

    def test_prune_requires_positive_keep(self, tmp_path):
        with pytest.raises(ValueError):
            prune_generations(tmp_path, keep=0)

    @pytest.mark.parametrize("keep", [0, -1])
    def test_a_keep_below_one_is_refused_before_anything_is_written(
        self, tmp_path, ranker, keep
    ):
        """Regression: the slab was written and ``CURRENT`` flipped before
        pruning refused the ``keep`` with an untyped ``ValueError``."""
        root = tmp_path / "store"
        with pytest.raises(ParameterError, match="keep"):
            build_and_publish(root, ranker, "fig1", keep=keep)
        with pytest.raises(ParameterError, match="keep"):
            StoreManager(root).publish(ranker, "fig1", keep=keep)
        assert list_generations(root) == [] and read_manifest(root) is None
        assert not root.exists() or list(root.iterdir()) == []


class TestStoreManager:
    def test_empty_store_serves_nothing(self, tmp_path):
        manager = StoreManager(tmp_path)
        assert manager.ranker() is None
        assert manager.generation is None

    def test_pickup_and_swap(self, tmp_path, ranker):
        manager = StoreManager(tmp_path)
        build_and_publish(tmp_path, ranker, "fig1")
        first = manager.ranker()
        assert first is not None and first.source.generation == 1
        assert manager.swaps == 0  # initial load is not a swap
        build_and_publish(tmp_path, ranker, "fig1")
        second = manager.ranker()
        assert second.source.generation == 2
        assert manager.swaps == 1

    def test_corrupt_new_generation_keeps_serving_old(self, tmp_path, ranker):
        manager = StoreManager(tmp_path)
        build_and_publish(tmp_path, ranker, "fig1")
        assert manager.ranker().source.generation == 1
        # Publish a garbage generation file by hand.
        bad = store_path(tmp_path, 2)
        bad.write_bytes(b"REPROSLB" + b"\x00" * 64)
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"generation": 2, "filename": bad.name}) + "\n",
            encoding="utf-8",
        )
        assert manager.ranker().source.generation == 1  # old one still serves
        assert manager.load_errors == 1

    def test_refresh_is_throttled(self, tmp_path, ranker):
        clock = [0.0]
        manager = StoreManager(
            tmp_path, refresh_seconds=5.0, clock=lambda: clock[0]
        )
        build_and_publish(tmp_path, ranker, "fig1")
        assert manager.ranker().source.generation == 1
        build_and_publish(tmp_path, ranker, "fig1")
        assert manager.ranker().source.generation == 1  # inside the throttle window
        clock[0] += 6.0
        assert manager.ranker().source.generation == 2
        assert manager.refresh(force=True) is False  # already current

    def test_publish_helper_swaps_local_view(self, tmp_path, ranker):
        manager = StoreManager(tmp_path)
        manifest = manager.publish(ranker, "fig1")
        assert manifest.generation == 1
        assert manager.generation == 1


def _reader(root, expected_by_bytes, terms, queue):
    """Hammer ranks across a swap; every answer must be exactly one gen."""
    vector = KeywordQuery(list(terms)).vector()
    manager = StoreManager(root)
    seen = set()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        ranker = manager.ranker()
        if ranker is None:
            continue
        result = ranker.rank(vector)
        generation = expected_by_bytes.get(result.scores.tobytes())
        if generation is None:
            queue.put(("torn", sorted(seen)))
            return
        if ranker.source.generation != generation:
            queue.put(("mislabelled", sorted(seen)))
            return
        seen.add(generation)
        if len(seen) == 2:
            queue.put(("ok", sorted(seen)))
            return
    queue.put(("timeout", sorted(seen)))


class TestConcurrentSwap:
    def test_swap_under_concurrent_reader_processes(
        self, tmp_path, ranker, ranker_b
    ):
        """Readers in other processes never see a torn or mixed generation.

        Generation 1 and 2 hold *different* scores (different damping) for
        the same query, so any page-level tearing or half-applied swap would
        produce a byte pattern matching neither expectation.
        """
        terms = ("OLAP",)
        vector = KeywordQuery(list(terms)).vector()
        expected = {
            ranker.rank(vector).scores.tobytes(): 1,
            ranker_b.rank(vector).scores.tobytes(): 2,
        }
        assert len(expected) == 2  # the generations genuinely differ
        build_and_publish(tmp_path, ranker, "fig1")

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        readers = [
            context.Process(
                target=_reader, args=(tmp_path, expected, terms, queue)
            )
            for _ in range(2)
        ]
        for reader in readers:
            reader.start()
        time.sleep(0.3)  # let readers settle on generation 1
        build_and_publish(tmp_path, ranker_b, "fig1")

        outcomes = [queue.get(timeout=30.0) for _ in readers]
        for reader in readers:
            reader.join(timeout=10.0)
        assert outcomes == [("ok", [1, 2]), ("ok", [1, 2])]

    def test_a_slow_open_never_swaps_back(self, tmp_path, ranker, monkeypatch):
        """Generation 2's open is held until a concurrent refresh has
        installed 3; when it finishes, the manager stays on 3."""
        manager = StoreManager(tmp_path)
        build_and_publish(tmp_path, ranker, "fig1")
        assert manager.ranker().source.generation == 1
        build_and_publish(tmp_path, ranker, "fig1")
        opening, release = threading.Event(), threading.Event()
        over = PrecomputedRanker.over.__func__

        def held_over(cls, source, min_coverage=1.0):
            if source.generation == 2:
                opening.set()
                assert release.wait(10.0)
            return over(cls, source, min_coverage)

        monkeypatch.setattr(PrecomputedRanker, "over", classmethod(held_over))
        outcome = []
        slow = threading.Thread(
            target=lambda: outcome.append(manager.refresh(force=True))
        )
        slow.start()
        try:
            assert opening.wait(10.0)
            build_and_publish(tmp_path, ranker, "fig1")
            assert manager.refresh(force=True) is True
        finally:
            release.set()
            slow.join(10.0)
        assert not slow.is_alive() and outcome == [False]
        assert manager.generation == 3
        assert manager.ranker().source.generation == 3
        assert manager.swaps == 1

    def test_reader_survives_pruning_of_its_generation(self, tmp_path, ranker, ranker_b):
        """A pinned ScoreStore outlives the unlink of its file (mmap pin)."""
        vector = KeywordQuery(["OLAP"]).vector()
        manager = StoreManager(tmp_path)
        build_and_publish(tmp_path, ranker, "fig1")
        pinned = manager.ranker()
        before = pinned.rank(vector).scores.tobytes()
        # keep=1 prunes generation 1 the moment generation 2 is published.
        build_and_publish(tmp_path, ranker_b, "fig1", keep=1)
        assert list_generations(tmp_path) == [2]
        assert pinned.rank(vector).scores.tobytes() == before
