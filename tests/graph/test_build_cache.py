"""Unit tests for the build-once keyed cache (``repro.graph.build_cache``)."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph.build_cache import BuildCache


def test_hit_returns_the_built_value_without_rebuilding():
    cache = BuildCache(4)
    builds = []
    first = cache.get("k", lambda: builds.append("k") or object())
    assert cache.get("k", lambda: builds.append("k") or object()) is first
    assert builds == ["k"]


def test_least_recently_used_entry_is_evicted():
    cache = BuildCache(2)
    a = cache.get("a", object)
    cache.get("b", object)
    assert cache.get("a", object) is a  # refreshes a; b is now the oldest
    cache.get("c", object)
    assert cache.get("a", object) is a
    assert cache.get("b", lambda: "rebuilt") == "rebuilt"


def test_clear_drops_built_values():
    cache = BuildCache(4)
    cache.get("k", object)
    cache.clear()
    assert cache.get("k", lambda: "rebuilt") == "rebuilt"


def test_concurrent_misses_build_once_under_stress():
    """More threads than cores, a shortened switch interval, several keys:
    every key is built exactly once and every caller gets that one value."""
    cache = BuildCache(8)
    builds = []
    count_lock = threading.Lock()
    num_threads, keys = 16, ["a", "b", "c"]
    start = threading.Barrier(num_threads, timeout=10)

    def build(key):
        with count_lock:
            builds.append(key)
        return object()

    def worker(i):
        start.wait()
        return [(key, cache.get(key, lambda key=key: build(key))) for key in keys * 20]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            futures = [pool.submit(worker, i) for i in range(num_threads)]
            seen = [pair for future in futures for pair in future.result(timeout=30)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(builds) == keys
    for key in keys:
        assert len({id(value) for k, value in seen if k == key}) == 1


def test_failed_build_releases_waiters_and_is_retried():
    cache = BuildCache(4)
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def failing():
        calls.append("fail")
        entered.set()
        release.wait(timeout=10)
        raise RuntimeError("simulated build failure")

    with ThreadPoolExecutor(max_workers=2) as pool:
        builder = pool.submit(cache.get, "k", failing)
        assert entered.wait(timeout=10)
        waiter = pool.submit(cache.get, "k", lambda: calls.append("ok") or "value")
        release.set()
        with pytest.raises(RuntimeError):
            builder.result(timeout=10)
        assert waiter.result(timeout=10) == "value"
    assert calls == ["fail", "ok"]
