"""Unit tests for the serving result cache: LRU, TTL, keying, concurrency."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import dblp_transfer_schema
from repro.query.query import QueryVector
from repro.serve.cache import ResultCache, make_key, query_fingerprint, rates_fingerprint


class FakeClock:
    """A hand-cranked monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLruEviction:
    def test_evicts_least_recently_used_first(self):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.put("d", "D")  # overflows: "a" was least recently used
        assert cache.get("a") is None
        assert cache.get("b") == "B"
        assert len(cache) == 3
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.get("a")  # touch: now "b" is the LRU entry
        cache.put("d", "D")
        assert cache.get("a") == "A"
        assert cache.get("b") is None

    def test_put_refreshes_recency_and_value(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, does not evict
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a") == 10
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_rejects_non_positive_bounds(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(max_entries=None)  # nothing would bound it


class TestByteBound:
    def test_evicts_least_recently_used_until_the_bytes_fit(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put("a", "A", nbytes=40)
        cache.put("b", "B", nbytes=40)
        cache.get("a")  # touch: "b" is now the LRU entry
        cache.put("c", "C", nbytes=40)
        assert cache.get("b") is None
        assert cache.get("a") == "A" and cache.get("c") == "C"
        assert cache._bytes == 80
        assert cache.stats().evictions == 1

    def test_one_heavy_entry_can_push_out_several(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        for key in ("a", "b", "c"):
            cache.put(key, key, nbytes=30)
        cache.put("d", "D", nbytes=90)
        assert len(cache) == 1 and cache.get("d") == "D"
        assert cache._bytes == 90

    def test_an_entry_heavier_than_the_bound_is_never_held(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put("a", "A", nbytes=60)
        cache.put("whale", "W", nbytes=101)
        assert len(cache) == 0 and cache._bytes == 0

    def test_refreshing_a_key_recounts_it(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put("a", 1, nbytes=60)
        cache.put("a", 2, nbytes=30)
        cache.put("b", 3, nbytes=60)
        assert cache.get("a") == 2 and cache.get("b") == 3
        assert cache._bytes == 90

    def test_expiry_and_invalidation_give_the_bytes_back(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=None, max_bytes=100, ttl_seconds=10, clock=clock)
        cache.put(("ds", "a"), 1, nbytes=50)
        cache.put(("other", "b"), 2, nbytes=30)
        assert cache.invalidate("ds") == 1
        assert cache._bytes == 30
        clock.advance(11)
        assert cache.get(("other", "b")) is None
        assert cache._bytes == 0
        cache.put(("ds", "c"), 3, nbytes=70)
        assert cache.invalidate() == 1 and cache._bytes == 0

    def test_both_bounds_hold_together(self):
        cache = ResultCache(max_entries=2, max_bytes=100)
        for key in ("a", "b", "c"):
            cache.put(key, key, nbytes=10)
        assert len(cache) == 2 and cache.get("a") is None


class TestTtlExpiry:
    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put("a", "A")
        clock.advance(9.9)
        assert cache.get("a") == "A"
        clock.advance(0.2)
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.size == 0

    def test_put_resets_the_clock(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put("a", "old")
        clock.advance(8.0)
        cache.put("a", "new")
        clock.advance(8.0)
        assert cache.get("a") == "new"

    def test_no_ttl_means_no_expiry(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=8, ttl_seconds=None, clock=clock)
        cache.put("a", "A")
        clock.advance(1e9)
        assert cache.get("a") == "A"


class TestKeying:
    def test_same_query_same_key(self):
        rates = dblp_transfer_schema()
        a = make_key("dblp", QueryVector({"olap": 1.0, "cube": 2.0}), rates, 10)
        b = make_key("dblp", QueryVector({"cube": 2.0, "olap": 1.0}), rates, 10)
        assert a == b  # term order is canonicalized

    def test_zero_weight_terms_are_ignored(self):
        assert query_fingerprint(
            QueryVector({"olap": 1.0, "dead": 0.0})
        ) == query_fingerprint(QueryVector({"olap": 1.0}))

    def test_different_rates_different_key(self):
        vector = QueryVector({"olap": 1.0})
        initial = dblp_transfer_schema()
        learned = dblp_transfer_schema([0.5, 0.0, 0.2, 0.2, 0.3, 0.3, 0.3, 0.1])
        assert make_key("dblp", vector, initial, 10) != make_key(
            "dblp", vector, learned, 10
        )

    def test_equal_rates_from_different_objects_share_key(self):
        assert rates_fingerprint(dblp_transfer_schema()) == rates_fingerprint(
            dblp_transfer_schema()
        )

    def test_set_rate_after_a_fingerprint_was_taken_changes_the_key(self):
        """The fingerprint is memoised per rates *state*, not per object."""
        vector = QueryVector({"olap": 1.0})
        rates = dblp_transfer_schema()
        before = make_key("dblp", vector, rates, 10)
        assert rates_fingerprint(rates) is rates_fingerprint(rates)  # memoised
        clone = rates.copy()
        edge_type = rates.edge_types()[0]
        rates.set_rate(edge_type, rates.rate(edge_type) / 2)
        assert make_key("dblp", vector, rates, 10) != before
        assert rates_fingerprint(rates) == tuple(
            round(rate, 12) for rate in rates.as_vector()
        )
        # A copy taken earlier keeps the state — and the key — it was taken in.
        assert make_key("dblp", vector, clone, 10) == before
        assert make_key("dblp", vector, rates.with_vector(clone.as_vector()), 10) == before

    def test_top_k_and_dataset_key(self):
        vector = QueryVector({"olap": 1.0})
        rates = dblp_transfer_schema()
        assert make_key("a", vector, rates, 10) != make_key("a", vector, rates, 20)
        assert make_key("a", vector, rates, 10) != make_key("b", vector, rates, 10)


class TestInvalidation:
    def _key(self, dataset, term="olap", k=10):
        return make_key(dataset, QueryVector({term: 1.0}), dblp_transfer_schema(), k)

    def test_invalidate_one_dataset(self):
        cache = ResultCache(max_entries=8)
        cache.put(self._key("a"), 1)
        cache.put(self._key("a", "cube"), 2)
        cache.put(self._key("b"), 3)
        assert cache.invalidate("a") == 2
        assert cache.get(self._key("b")) == 3
        assert cache.get(self._key("a")) is None
        assert cache.stats().invalidations == 2

    def test_invalidate_everything(self):
        cache = ResultCache(max_entries=8)
        cache.put(self._key("a"), 1)
        cache.put(self._key("b"), 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0


class TestStats:
    def test_hit_rate_accounting(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_cache_hit_rate_is_zero(self):
        assert ResultCache().stats().hit_rate == 0.0


class TestConcurrency:
    def test_hammer_get_put_invalidate(self):
        """Concurrent get/put/invalidate never corrupts the cache and the
        size bound holds throughout."""
        cache = ResultCache(max_entries=32)
        keys = [("ds", ("t", float(i)), (0.5,), 10) for i in range(64)]

        def worker(seed: int) -> int:
            hits = 0
            for i in range(400):
                key = keys[(seed * 7 + i) % len(keys)]
                if i % 3 == 0:
                    cache.put(key, (seed, i))
                else:
                    value = cache.get(key)
                    if value is not None:
                        hits += 1
                        assert isinstance(value, tuple) and len(value) == 2
                if i % 97 == 0 and seed == 0:
                    cache.invalidate("ds")
                assert len(cache) <= 32
            return hits

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))

        stats = cache.stats()
        assert stats.size <= 32
        # All lookups were accounted as either hit or miss.
        total_gets = sum(1 for seed in range(8) for i in range(400) if i % 3 != 0)
        assert stats.hits + stats.misses == total_gets
        assert stats.hits == sum(results)
