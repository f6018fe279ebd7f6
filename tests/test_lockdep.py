"""The test suite's lockdep (``tests/lockdep.py``) itself: it reaches every
lock of the package, reads every annotation, refuses a misspelt or stray
one, checks every blocking primitive, keeps a violation a worker thread
swallowed and reports one a forked worker raised.

The case-for-case replacements of the retired lint rules' fixtures live
where those fixtures did: RL003's in ``tests/analysis/test_checkers.py``,
RL007's in ``tests/analysis/test_flow_checkers.py`` and RL011's and
RL013's in ``tests/analysis/test_interprocedural_checkers.py``.
"""

from __future__ import annotations

import linecache
import mmap
import os
import select
import socket
import subprocess
import sys
import threading
import time
import tokenize
import urllib.request
from pathlib import Path

import pytest

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


HOLDER = """
    import threading

    class Holder:
        def __init__(self):
            self._lock = threading.Lock()
            %s
            self._slow_lock = threading.Lock()

        def run(self, action):
            with self._lock:
                return action()

        def run_slow(self, action):
            with self._slow_lock:
                return action()

        def nested(self):
            with self._lock:
                with self._slow_lock:
                    pass
"""


def _holder(slow_annotation="#: may block: a test that sleeps"):
    return lockdep.toy(HOLDER % slow_annotation).Holder()


def _socket_recv():
    with socket.socket() as sock:
        sock.recv(1)


@pytest.mark.parametrize(
    "what, action",
    [
        ("time.sleep", lambda: time.sleep(0)),
        ("open", lambda: open(os.devnull)),
        ("os.open", lambda: os.open(os.devnull, os.O_RDONLY)),
        ("os.fdopen", lambda: os.fdopen(-1)),
        ("os.fsync", lambda: os.fsync(-1)),
        ("mmap.mmap", lambda: mmap.mmap(-1, 4096)),
        ("select.select", lambda: select.select([], [], [], 0)),
        ("socket.create_connection", lambda: socket.create_connection(("", 0))),
        ("socket.recv", _socket_recv),
        ("urllib.request.urlopen", lambda: urllib.request.urlopen("http://x")),
        ("Popen", lambda: subprocess.run(["true"])),
        ("Path.read_bytes", lambda: Path(__file__).read_bytes()),
        ("Path.write_text", lambda: Path(os.devnull).write_text("")),
        ("Event.wait", lambda: threading.Event().wait(0)),
        ("a fixpoint entered", lambda: _check_max_iterations(1)),
    ],
)
def test_every_blocking_primitive_raises_under_a_plain_lock(what, action):
    """The check runs before the primitive: nothing is opened or started."""
    with lockdep.raises(match=f"^{what}.* while holding .*Holder._lock, "):
        _holder().run(action)


def _check_max_iterations(max_iterations):
    from repro.ranking.pagerank import check_max_iterations

    check_max_iterations(max_iterations)


def test_blocking_under_a_may_block_lock_is_clean():
    assert _holder().run_slow(lambda: Path(__file__).read_bytes())


def test_taking_a_may_block_lock_under_a_plain_one_raises():
    holder = _holder()
    with lockdep.raises(match="_slow_lock, which may block, taken while holding"):
        holder.nested()
    assert not holder._lock.locked() and not holder._slow_lock.locked()


def test_a_may_block_annotation_on_no_lock_fails_at_install():
    with lockdep.raises(match="'#: may block' on line 7 annotates no") as caught:
        lockdep.toy(
            """
            import threading

            class Stray:
                def __init__(self):
                    self._lock = threading.Lock()
                    #: may block: but nothing below builds a lock
                    self._value = 0
            """
        )
    assert caught.value.here[0].lineno == 7


def test_the_annotation_on_the_line_above_binds_only_the_next_lock():
    holder = _holder(slow_annotation="")
    assert not holder._lock.may_block and not holder._slow_lock.may_block
    holder = _holder()
    assert not holder._lock.may_block and holder._slow_lock.may_block


def test_exactly_three_locks_of_the_package_may_block(figure1):
    runtime = DatasetRuntime(figure1, ServeConfig(precompute=False))
    locks = [
        value
        for value in vars(runtime).values()
        if isinstance(value, lockdep.TrackedLock)
    ]
    assert sorted(lock.name for lock in locks if lock.may_block) == [
        "repro.serve.service.DatasetRuntime._ingest_lock",
        "repro.serve.service.DatasetRuntime._precompute_lock",
    ]
    assert _native._lock.may_block
    sources = Path(_native.__file__).parents[1].rglob("*.py")
    annotated = sum(path.read_text().count("#: may block:") for path in sources)
    assert annotated == 3


def test_the_stack_capture_is_not_a_blocking_call(monkeypatch):
    """Recording an order edge reads source lines through ``linecache``;
    with ``tokenize`` opening files through the checked ``open``, that read
    happens under the held lock but is lockdep's own, not the caller's."""
    monkeypatch.setattr(tokenize, "_builtin_open", open)
    linecache.clearcache()
    holder = _holder(slow_annotation="")
    holder.nested()
    edge = lockdep.edges[holder._lock.name][holder._slow_lock.name]
    assert edge[-1].line == "with self._slow_lock:"
