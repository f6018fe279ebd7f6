"""Thread-safe LRU caches for the query service, and their one key.

A cached answer is valid only under what it was computed under: the
dataset, the query vector, the transfer rates (the paper's loop changes
them between searches, Eq. 13), the ingest epoch (ingest changes the
topology) and the store generation (a rebuild publishes new vectors).  A
:class:`Fence` holds all of them for one request, read once at its start,
and :meth:`Fence.key` is the only way to build a cache key: a
:class:`ResultCache` refuses any other, so no cache can be keyed without
one of the components.  The rate fingerprint makes learned-rate sessions
self-keying, but the service still invalidates a dataset's entries
*explicitly* when it applies a reformulation or adopts an ingest snapshot,
both to free memory and so operators can see the invalidation in
``/metrics``.  Nothing expires by age: an entry is dropped only by LRU
eviction or invalidation, because the fence, not the clock, is what makes
an answer stale.

The cache is deliberately value-agnostic: it stores whatever the service
built (JSON-ready payloads; for the score cache, converged rankings) and is
told by the caller what an entry weighs when it is bounded in bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.graph.authority import FINGERPRINT_DIGITS, AuthorityTransferSchemaGraph
from repro.query.query import QueryVector


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


class FenceKey(tuple):
    """A cache key built by :meth:`Fence.key`, the only key a
    :class:`ResultCache` accepts.  A plain tuple underneath, so hashing and
    equality stay in C on the cache-hit path."""

    __slots__ = ()

    @property
    def dataset(self) -> str:
        return self[0]


class Fence:
    """What every cached answer of one request is valid under.

    Built once per request, before any cache is consulted: the dataset, the
    query and rate fingerprints, the ingest epoch (``None`` with ingest
    off) and the store generation of the ranker that answers (``None`` off
    the store).  Together they prefix every key.
    """

    __slots__ = ("dataset", "query", "rates", "epoch", "generation")

    def __init__(
        self,
        dataset: str,
        vector: QueryVector,
        rates: AuthorityTransferSchemaGraph,
        epoch: int | None,
        generation: int | None,
    ) -> None:
        self.dataset = dataset
        self.query = query_fingerprint(vector)
        self.rates = rates_fingerprint(rates)
        self.epoch = epoch
        self.generation = generation

    def key(self, *parts: Any) -> FenceKey:
        """The fenced key of one cached value: the fence, then ``parts``
        (what else the value depends on — ``top_k``, a target, ...)."""
        return FenceKey(
            (self.dataset, self.query, self.rates, self.epoch, self.generation, *parts)
        )


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache's accounting."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    max_entries: int | None

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """An LRU cache, safe for concurrent get/put.

    ``max_entries`` and ``max_bytes`` bound memory (``None`` lifts either;
    bytes are what callers declare per :meth:`put`); least-recently-*used*
    entries are evicted on overflow, so an entry heavier than ``max_bytes``
    is never held.  All operations take one short critical section — the
    cache never computes under its lock.  Keys must come from
    :meth:`Fence.key`; any other raises ``TypeError``.
    """

    def __init__(
        self,
        max_entries: int | None = 512,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is None and max_bytes is None:
            raise ValueError("one of max_entries and max_bytes must bound the cache")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # key -> (value, declared bytes)
        #: guarded by self._lock
        self._entries: OrderedDict[FenceKey, tuple[Any, int]] = OrderedDict()
        #: guarded by self._lock
        self._bytes = 0
        #: guarded by self._lock
        self._hits = 0
        #: guarded by self._lock
        self._misses = 0
        #: guarded by self._lock
        self._evictions = 0
        #: guarded by self._lock
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: FenceKey) -> Any | None:
        """The cached value, or ``None`` on a miss (which is counted)."""
        _check_key(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: FenceKey, value: Any, nbytes: int = 0) -> None:
        """Insert (or refresh) an entry, evicting LRU entries on overflow.

        ``nbytes`` is what the entry counts against ``max_bytes``.
        """
        _check_key(key)
        with self._lock:
            if key in self._entries:
                self._drop_locked(key)
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while self._entries and (
                (self.max_entries is not None and len(self._entries) > self.max_entries)
                or (self.max_bytes is not None and self._bytes > self.max_bytes)
            ):
                self._drop_locked(next(iter(self._entries)))
                self._evictions += 1

    def _drop_locked(self, key: FenceKey) -> None:
        """Remove one entry and its bytes.  Caller holds the lock."""
        self._bytes -= self._entries.pop(key)[1]

    def invalidate(self, dataset: str | None = None) -> int:
        """Drop every entry (or only one dataset's entries); returns the count.

        The service calls this when a structure-based reformulation changes a
        dataset's serving rates or an ingest refresh adopts a snapshot — the
        fence already keys those entries out, but dropping them reclaims
        memory immediately and makes the invalidation observable.
        """
        with self._lock:
            if dataset is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                doomed = [k for k in self._entries if k.dataset == dataset]
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
                invalidations=self._invalidations,
                size=len(self._entries),
                max_entries=self.max_entries,
            )


def _check_key(key: Any) -> None:
    if type(key) is not FenceKey:
        raise TypeError(
            f"cache keys come from Fence.key(...), got {type(key).__name__}"
        )
