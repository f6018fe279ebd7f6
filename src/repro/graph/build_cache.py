"""A keyed cache whose misses build exactly once.

Index-time structures that request threads share (a learned-rate view of the
transfer graph, the reformulator's node-term table) are expensive enough
that concurrent first requests must not each build their own.
:class:`BuildCache` deduplicates concurrent misses on one key with a
per-key build latch: exactly one thread runs the build, outside the lock;
everyone else waits on the latch and shares the built value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")


class _Build(Generic[V]):
    """Latch for one in-flight build."""

    __slots__ = ("done", "built", "value")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.built = False
        self.value: V | None = None


class BuildCache(Generic[V]):
    """LRU cache of built values with a per-key build latch.

    ``max_entries`` bounds the cache (least recently used entries are
    dropped); the latch only deduplicates *concurrent* misses, so an evicted
    key is simply rebuilt by its next miss.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: guarded by self._lock
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        #: guarded by self._lock
        self._builds: dict[Hashable, _Build[V]] = {}

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value cached under ``key``, built by ``build()`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            latch = self._builds.get(key)
            builder = latch is None
            if latch is None:
                latch = self._builds[key] = _Build()

        if not builder:
            latch.done.wait()
            if latch.built:
                return latch.value
            # The builder failed; retry (and possibly become the builder).
            return self.get(key, build)

        try:
            value = build()
        except BaseException:
            with self._lock:
                self._builds.pop(key, None)
            latch.done.set()
            raise
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self._builds.pop(key, None)
        # Waiters read the value off the latch, not the LRU — the entry may
        # already have been evicted by other keys by the time they wake.
        latch.value = value
        latch.built = True
        latch.done.set()
        return value

    def clear(self) -> None:
        """Drop every built value (in-flight builds finish and re-enter)."""
        with self._lock:
            self._entries.clear()

    def __reduce__(self):
        # Locks do not pickle and built values are derived state: a graph
        # shipped to a worker process starts with a cold cache.
        return (BuildCache, (self.max_entries,))
