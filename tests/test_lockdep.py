"""The test suite's lockdep (``tests/lockdep.py``) itself: it reaches every
lock of the package, reads every annotation, refuses a misspelt one,
keeps a violation a worker thread swallowed and reports one a forked
worker raised.

The case-for-case replacements of the retired lint rules' fixtures live
where those fixtures did: RL003's in ``tests/analysis/test_checkers.py``,
RL007's in ``tests/analysis/test_flow_checkers.py`` and RL011's in
``tests/analysis/test_interprocedural_checkers.py``.
"""

from __future__ import annotations

import os
import sys
import threading

from repro.graph.build_cache import BuildCache
from repro.ingest.engine import IngestEngine
from repro.ranking import _native
from repro.serve.cache import ResultCache
from repro.serve.service import DatasetRuntime, QueryService, ServeConfig
from repro.store.generations import StoreManager
from tests import lockdep


def test_an_annotation_naming_no_lock_fails_at_install():
    with lockdep.raises(match="self._lokc, which Typo never assigns") as caught:
        lockdep.toy(
            """
            import threading

            class Typo:
                def __init__(self):
                    self._lock = threading.Lock()
                    #: guarded by self._lokc
                    self._value = 0
            """
        )
    assert caught.value.here[0].lineno == 7


def test_every_annotation_in_the_package_is_guarded():
    """The annotation is the only binding, and lockdep read all of them."""
    guarded = {
        (cls, attr)
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for cls in vars(module).values()
        if isinstance(cls, type)
        for attr, member in vars(cls).items()
        if isinstance(member, lockdep.GuardedAttribute)
    }
    assert len(guarded) == 36


def test_every_lock_of_the_serving_objects_is_tracked(figure1, tmp_path):
    service = QueryService(ServeConfig(datasets=("fig1",), precompute=False))
    objects = [
        service,
        DatasetRuntime(figure1, ServeConfig(precompute=False)),
        ResultCache(max_entries=4),
        StoreManager(tmp_path),
        IngestEngine(figure1.data_graph, figure1.transfer_schema),
        BuildCache(1),
    ]
    locks = {
        f"{type(owner).__name__}.{name}": value
        for owner in objects
        for name, value in vars(owner).items()
        if hasattr(value, "acquire") and hasattr(value, "locked")
    }
    assert sorted(locks) == [
        "BuildCache._lock",
        "DatasetRuntime._ingest_lock",
        "DatasetRuntime._precompute_lock",
        "DatasetRuntime._rates_lock",
        "IngestEngine._lock",
        "QueryService._runtimes_lock",
        "ResultCache._lock",
        "StoreManager._lock",
    ]
    for lock in [_native._lock, *locks.values()]:
        assert isinstance(lock, lockdep.TrackedLock), lock
    assert _native._lock.name == "repro.ranking._native._lock"
    assert locks["StoreManager._lock"].name == (
        "repro.store.generations.StoreManager._lock"
    )


def test_locks_built_outside_the_package_stay_real():
    assert not isinstance(threading.Lock(), lockdep.TrackedLock)
    ready = threading.Event()
    ready.set()
    assert ready.wait(1.0)


def test_a_violation_a_thread_swallows_is_still_recorded():
    counter = lockdep.toy(
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                #: guarded by self._lock
                self._value = 0

            def bump(self):
                try:
                    self._value += 1
                except Exception:
                    pass
        """
    ).Counter()
    worker = threading.Thread(target=counter.bump)
    worker.start()
    worker.join(10.0)
    (error,) = lockdep.violations
    lockdep.violations.remove(error)
    assert "Counter._value is guarded by self._lock" in error.summary


def test_a_forked_worker_prints_its_violation(capfd):
    """No fixture runs in a forked cluster worker, so stderr carries it."""
    counter = lockdep.toy(
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                #: guarded by self._lock
                self._value = 0

            def peek(self):
                return self._value
        """
    ).Counter()
    pid = os.fork()
    if pid == 0:
        try:
            counter.peek()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    assert "Counter._value is guarded by self._lock" in capfd.readouterr().err
    assert lockdep.violations == []
