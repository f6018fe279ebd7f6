"""Thread-safe LRU + TTL result cache for the query service.

Entries are keyed by everything that determines a serialized answer:
``(dataset name, canonical query-vector fingerprint, transfer-rate
fingerprint, top_k)``.  The rate fingerprint makes learned-rate sessions
self-keying — a structure-based reformulation that changes the rates can
never be answered from a stale entry — but the service still invalidates a
dataset's entries *explicitly* when it applies a reformulation, both to free
memory and so operators can see the invalidation in ``/metrics``.

The cache is deliberately value-agnostic: it stores whatever the service
built (JSON-ready payloads; for the score cache, converged rankings) and is
told by the caller what an entry weighs when it is bounded in bytes.  Expiry
uses a monotonic clock injected at construction time so tests can drive time
by hand.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.graph.authority import FINGERPRINT_DIGITS, AuthorityTransferSchemaGraph
from repro.query.query import QueryVector

CacheKey = tuple[str, tuple, tuple, int]


def query_fingerprint(vector: QueryVector) -> tuple:
    """Canonical, order-insensitive fingerprint of a weighted query vector."""
    return tuple(
        sorted(
            (term, round(weight, FINGERPRINT_DIGITS))
            for term, weight in vector.weights.items()
            if weight > 0
        )
    )


def rates_fingerprint(rates: AuthorityTransferSchemaGraph) -> tuple:
    """Fingerprint of the transfer rates in their canonical edge-type order."""
    return rates.fingerprint()


def make_key(
    dataset: str,
    vector: QueryVector,
    rates: AuthorityTransferSchemaGraph,
    top_k: int,
) -> CacheKey:
    """The full cache key for one search request."""
    return (dataset, query_fingerprint(vector), rates_fingerprint(rates), int(top_k))


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache's accounting."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    invalidations: int
    size: int
    max_entries: int | None

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """An LRU cache with optional TTL, safe for concurrent get/put.

    ``max_entries`` and ``max_bytes`` bound memory (``None`` lifts either;
    bytes are what callers declare per :meth:`put`); least-recently-*used*
    entries are evicted on overflow, so an entry heavier than ``max_bytes``
    is never held.  ``ttl_seconds=None`` disables expiry.  All operations
    take one short critical section — the cache never computes under its
    lock.
    """

    def __init__(
        self,
        max_entries: int | None = 512,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is None and max_bytes is None:
            raise ValueError("one of max_entries and max_bytes must bound the cache")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (value, stored at, declared bytes)
        #: guarded by self._lock
        self._entries: OrderedDict[Hashable, tuple[Any, float, int]] = OrderedDict()
        #: guarded by self._lock
        self._bytes = 0
        #: guarded by self._lock
        self._hits = 0
        #: guarded by self._lock
        self._misses = 0
        #: guarded by self._lock
        self._evictions = 0
        #: guarded by self._lock
        self._expirations = 0
        #: guarded by self._lock
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` on miss/expiry (which counts a miss)."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            value, stored_at, _ = entry
            if self.ttl_seconds is not None and now - stored_at > self.ttl_seconds:
                self._drop_locked(key)
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> None:
        """Insert (or refresh) an entry, evicting LRU entries on overflow.

        ``nbytes`` is what the entry counts against ``max_bytes``.
        """
        now = self._clock()
        with self._lock:
            if key in self._entries:
                self._drop_locked(key)
            self._entries[key] = (value, now, nbytes)
            self._bytes += nbytes
            while self._entries and (
                (self.max_entries is not None and len(self._entries) > self.max_entries)
                or (self.max_bytes is not None and self._bytes > self.max_bytes)
            ):
                self._drop_locked(next(iter(self._entries)))
                self._evictions += 1

    def _drop_locked(self, key: Hashable) -> None:
        """Remove one entry and its bytes.  Caller holds the lock."""
        self._bytes -= self._entries.pop(key)[2]

    def invalidate(self, dataset: str | None = None) -> int:
        """Drop every entry (or only one dataset's entries); returns the count.

        The service calls this when a structure-based reformulation changes a
        dataset's serving rates — the rate fingerprint already keys those
        entries out, but dropping them reclaims memory immediately and makes
        the invalidation observable.
        """
        with self._lock:
            if dataset is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                doomed = [
                    k
                    for k in self._entries
                    if isinstance(k, tuple) and k and k[0] == dataset
                ]
                for key in doomed:
                    self._drop_locked(key)
                dropped = len(doomed)
            self._invalidations += dropped
            return dropped

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                invalidations=self._invalidations,
                size=len(self._entries),
                max_entries=self.max_entries,
            )
