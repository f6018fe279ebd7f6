"""Unit tests for the serving result cache: LRU, keying, concurrency."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import dblp_transfer_schema
from repro.query.query import QueryVector
from repro.serve.cache import Fence, ResultCache, query_fingerprint, rates_fingerprint


def fence(dataset="ds", vector=None, rates=None) -> Fence:
    """A fence over ``dataset`` (ingest and store off)."""
    return Fence(
        dataset,
        vector if vector is not None else QueryVector({"olap": 1.0}),
        rates if rates is not None else dblp_transfer_schema(),
        epoch=None,
        generation=None,
    )


#: ``KEY("a")`` is entry ``"a"``'s key under one fixed fence.
KEY = fence().key


class TestLruEviction:
    def test_evicts_least_recently_used_first(self):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(KEY(key), key.upper())
        cache.put(KEY("d"), "D")  # overflows: "a" was least recently used
        assert cache.get(KEY("a")) is None
        assert cache.get(KEY("b")) == "B"
        assert len(cache) == 3
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(KEY(key), key.upper())
        cache.get(KEY("a"))  # touch: now "b" is the LRU entry
        cache.put(KEY("d"), "D")
        assert cache.get(KEY("a")) == "A"
        assert cache.get(KEY("b")) is None

    def test_put_refreshes_recency_and_value(self):
        cache = ResultCache(max_entries=2)
        cache.put(KEY("a"), 1)
        cache.put(KEY("b"), 2)
        cache.put(KEY("a"), 10)  # refresh, does not evict
        cache.put(KEY("c"), 3)  # evicts "b"
        assert cache.get(KEY("a")) == 10
        assert cache.get(KEY("b")) is None
        assert cache.get(KEY("c")) == 3

    def test_rejects_non_positive_bounds(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(max_entries=None)  # nothing would bound it


class TestByteBound:
    def test_evicts_least_recently_used_until_the_bytes_fit(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put(KEY("a"), "A", nbytes=40)
        cache.put(KEY("b"), "B", nbytes=40)
        cache.get(KEY("a"))  # touch: "b" is now the LRU entry
        cache.put(KEY("c"), "C", nbytes=40)
        assert cache.get(KEY("b")) is None
        assert cache.get(KEY("a")) == "A" and cache.get(KEY("c")) == "C"
        assert cache._bytes == 80
        assert cache.stats().evictions == 1

    def test_one_heavy_entry_can_push_out_several(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        for key in ("a", "b", "c"):
            cache.put(KEY(key), key, nbytes=30)
        cache.put(KEY("d"), "D", nbytes=90)
        assert len(cache) == 1 and cache.get(KEY("d")) == "D"
        assert cache._bytes == 90

    def test_an_entry_heavier_than_the_bound_is_never_held(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put(KEY("a"), "A", nbytes=60)
        cache.put(KEY("whale"), "W", nbytes=101)
        assert len(cache) == 0 and cache._bytes == 0

    def test_refreshing_a_key_recounts_it(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put(KEY("a"), 1, nbytes=60)
        cache.put(KEY("a"), 2, nbytes=30)
        cache.put(KEY("b"), 3, nbytes=60)
        assert cache.get(KEY("a")) == 2 and cache.get(KEY("b")) == 3
        assert cache._bytes == 90

    def test_invalidation_gives_the_bytes_back(self):
        cache = ResultCache(max_entries=None, max_bytes=100)
        cache.put(fence("ds").key("a"), 1, nbytes=50)
        cache.put(fence("other").key("b"), 2, nbytes=30)
        assert cache.invalidate("ds") == 1
        assert cache._bytes == 30
        cache.put(fence("ds").key("c"), 3, nbytes=70)
        assert cache.invalidate() == 2 and cache._bytes == 0

    def test_both_bounds_hold_together(self):
        cache = ResultCache(max_entries=2, max_bytes=100)
        for key in ("a", "b", "c"):
            cache.put(KEY(key), key, nbytes=10)
        assert len(cache) == 2 and cache.get(KEY("a")) is None


class TestKeying:
    def test_same_query_same_key(self):
        rates = dblp_transfer_schema()
        a = fence("dblp", QueryVector({"olap": 1.0, "cube": 2.0}), rates).key(10)
        b = fence("dblp", QueryVector({"cube": 2.0, "olap": 1.0}), rates).key(10)
        assert a == b  # term order is canonicalized

    def test_zero_weight_terms_are_ignored(self):
        assert query_fingerprint(
            QueryVector({"olap": 1.0, "dead": 0.0})
        ) == query_fingerprint(QueryVector({"olap": 1.0}))

    def test_different_rates_different_key(self):
        vector = QueryVector({"olap": 1.0})
        initial = dblp_transfer_schema()
        learned = dblp_transfer_schema([0.5, 0.0, 0.2, 0.2, 0.3, 0.3, 0.3, 0.1])
        assert fence("dblp", vector, initial).key(10) != fence(
            "dblp", vector, learned
        ).key(10)

    def test_equal_rates_from_different_objects_share_key(self):
        assert rates_fingerprint(dblp_transfer_schema()) == rates_fingerprint(
            dblp_transfer_schema()
        )

    def test_new_rates_change_the_key_and_the_old_rates_keep_theirs(self):
        """Rates are values: the fingerprint is fixed per object, and new
        rates are a new object with a key of its own."""
        vector = QueryVector({"olap": 1.0})
        rates = dblp_transfer_schema()
        before = fence("dblp", vector, rates).key(10)
        assert rates_fingerprint(rates) is rates_fingerprint(rates)  # memoised
        edge_type = rates.edge_types()[0]
        changed = rates.with_vector([rates.rate(edge_type) / 2], [edge_type])
        assert fence("dblp", vector, changed).key(10) != before
        assert rates_fingerprint(changed) == tuple(
            round(rate, 12) for rate in changed.as_vector()
        )
        assert fence("dblp", vector, rates).key(10) == before
        restored = changed.with_vector(rates.as_vector())
        assert fence("dblp", vector, restored).key(10) == before

    def test_top_k_and_dataset_key(self):
        vector = QueryVector({"olap": 1.0})
        rates = dblp_transfer_schema()
        assert fence("a", vector, rates).key(10) != fence("a", vector, rates).key(20)
        assert fence("a", vector, rates).key(10) != fence("b", vector, rates).key(10)


class TestFence:
    def test_a_key_not_built_by_a_fence_is_refused(self):
        cache = ResultCache(max_entries=8)
        for bare in (("ds", "a"), tuple(KEY("a")), "a"):
            with pytest.raises(TypeError, match="Fence.key"):
                cache.put(bare, 1)
            with pytest.raises(TypeError, match="Fence.key"):
                cache.get(bare)
        assert len(cache) == 0 and cache.stats().misses == 0

    def test_every_component_prefixes_the_key(self):
        vector = QueryVector({"olap": 1.0})
        rates = dblp_transfer_schema()
        key = Fence("ds", vector, rates, epoch=3, generation=7).key("x")
        assert key == (
            "ds", query_fingerprint(vector), rates_fingerprint(rates), 3, 7, "x"
        )
        assert isinstance(key, tuple) and key.dataset == "ds"
        assert hash(key) == hash(tuple(key))


class TestInvalidation:
    def _key(self, dataset, term="olap", k=10):
        return fence(dataset, QueryVector({term: 1.0})).key(k)

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
        cache.put(KEY("a"), 1)
        cache.get(KEY("a"))
        cache.get(KEY("a"))
        cache.get(KEY("missing"))
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
        keys = [KEY(i) for i in range(64)]

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
        assert sum(results) > 0  # the gets read the keys the puts wrote
