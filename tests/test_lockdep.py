"""The test suite's lockdep (``tests/lockdep.py``) itself: it reaches every
lock of the package, reads every annotation, refuses a misspelt or stray
one, checks every blocking primitive, keeps a violation a worker thread
swallowed and reports one a forked worker raised.

The classes at the end are the case-for-case replacements of the retired
lint rules' fixtures: RL003's and RL007's (guarded access), RL011's (lock
order, re-acquisition, unheld ``*_locked`` helpers) and RL013's (blocking
work or a fixpoint entry under a lock).
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
from repro.query import KeywordQuery
from repro.ranking import _native, objectrank2
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
    assert len(guarded) == 33


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


# -- the retired lock rules' fixtures, each a toy class that runs ------------


class TestRL003LockDiscipline:
    """The retired RL003's fixtures: lockdep gives each the same verdict at
    run time (RL007, which reported them before, is retired too)."""

    def test_detects_annotation_violation(self):
        counter = lockdep.toy(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    #: guarded by self._lock
                    self._value = 0.0

                def inc(self):
                    self._value += 1.0
            """
        ).Counter()
        with lockdep.raises(match="Counter._value is guarded by self._lock"):
            counter.inc()

    SERVICE = """
        import threading

        class Service:
            def __init__(self):
                self._views_lock = threading.Lock()
                #: guarded by self._views_lock
                self._views = {}
                self._views["warm"] = 1

            def get(self, key):
                with self._views_lock:
                    return self._views.get(key)

            def _evict_locked(self):
                self._views.clear()

            def evict(self):
                with self._views_lock:
                    self._evict_locked()
    """

    def test_negative_with_block_access_is_clean(self):
        assert lockdep.toy(self.SERVICE).Service().get("warm") == 1

    def test_negative_locked_suffix_helper_exempt(self):
        """``*_locked`` names the caller-holds-the-lock convention."""
        service = lockdep.toy(self.SERVICE).Service()
        service.evict()
        assert service.get("warm") is None

    def test_negative_constructor_exempt(self):
        lockdep.toy(self.SERVICE).Service()

    def test_negative_unannotated_bare_lock_not_bound(self):
        """A bare ``_lock`` guards nothing without an annotation."""
        loose = lockdep.toy(
            """
            import threading

            class Loose:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def read(self):
                    return self._value
            """
        ).Loose()
        assert loose.read() == 0


class TestRL007Lockset:
    GUARDED_CLASS = """
        import threading

        class Runtime:
            def __init__(self):
                self._precompute_lock = threading.Lock()
                #: guarded by self._precompute_lock
                self._precomputed = {{}}

            def {method}
    """

    def _runtime(self, method_lines: str):
        body = self.GUARDED_CLASS.format(method=method_lines.strip())
        return lockdep.toy(body).Runtime()

    def test_unguarded_read_flagged_with_lock_metadata(self):
        runtime = self._runtime(
            """peek(self):
                return self._precomputed
            """
        )
        with lockdep.raises(match="guarded by self._precompute_lock") as caught:
            runtime.peek()
        assert "read in Runtime.peek" in caught.value.summary
        assert caught.value.here[-1].name == "peek"
        (binding,) = caught.value.there
        assert binding.name == "Runtime._precomputed guarded by self._precompute_lock"

    def test_access_under_the_lock_is_clean(self):
        runtime = self._runtime(
            """peek(self):
                with self._precompute_lock:
                    return self._precomputed
            """
        )
        assert runtime.peek() == {}

    def test_alias_through_a_local_still_counts_as_held(self):
        """The gap lexical ``with self.<lock>:`` matching could not close."""
        runtime = self._runtime(
            """peek(self):
                lock = self._precompute_lock
                with lock:
                    return self._precomputed
            """
        )
        assert runtime.peek() == {}

    def test_partially_guarded_path_is_flagged(self):
        runtime = self._runtime(
            """peek(self, fast):
                if fast:
                    return self._precomputed
                with self._precompute_lock:
                    return self._precomputed
            """
        )
        assert runtime.peek(False) == {}
        with lockdep.raises() as caught:
            runtime.peek(True)
        # The unlocked fast-path read, not the later guarded one.
        access = caught.value.here[-1]
        assert (access.lineno, access.line) == (12, "return self._precomputed")

    def test_locked_suffix_methods_are_exempt(self):
        """A ``*_locked`` helper runs clean when its caller holds the lock;
        called without it, its access raises (RL011's case)."""
        runtime = self._runtime(
            """peek_locked(self):
                return self._precomputed
            """
        )
        with runtime._precompute_lock:
            assert runtime.peek_locked() == {}


class TestRL007ServiceCorpus:
    """The shipped service under lockdep: clean, and caught once de-guarded."""

    def _runtime(self, figure1) -> DatasetRuntime:
        return DatasetRuntime(
            figure1, ServeConfig(precompute_min_document_frequency=1)
        )

    def test_shipped_service_is_clean(self, figure1):
        runtime = self._runtime(figure1)
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(runtime.precomputed_ranker())
        )
        reader.start()
        built = runtime.precomputed_ranker()
        reader.join(10.0)
        assert seen == [built] and built is not None

    def test_removing_the_precompute_guard_is_caught_at_its_line(
        self, figure1, monkeypatch
    ):
        runtime = self._runtime(figure1)

        def precomputed_ranker(self):
            return self._precomputed

        monkeypatch.setattr(DatasetRuntime, "precomputed_ranker", precomputed_ranker)
        with lockdep.raises(
            match="_precomputed is guarded by self._precompute_lock"
        ) as caught:
            runtime.precomputed_ranker()
        assert (
            caught.value.here[-1].lineno
            == precomputed_ranker.__code__.co_firstlineno + 1
        )


class TestRL011InterproceduralLocks:
    """The retired RL011's cases, now answered at run time by lockdep.

    Each lint fixture became a toy class that runs (``tests/lockdep.py``):
    a lock-order cycle, a re-acquisition or an unheld ``*_locked`` helper
    raises a ``LockdepError`` at the acquire or access that commits it.
    """

    SERVICE = """
        import threading

        class Service:
            def __init__(self):
                self._state_lock = threading.Lock()
                self._extra_lock = threading.Lock()
                #: guarded by self._state_lock
                self._state = {}

            %s
    """

    TWO_LOCKS = """
        import threading

        class TwoLocks:
            def __init__(self):
                self._a_lock = threading.Lock()
                self._b_lock = threading.Lock()

            def forward(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

            def %s(self):
                with self.%s:
                    with self.%s:
                        pass
    """

    def _service(self, methods: str):
        return lockdep.toy(self.SERVICE % methods).Service()

    def test_unheld_locked_helper_flagged_with_chain(self):
        service = self._service(
            """def bump_locked(self):
                self._state["x"] = 1

            def outer(self):
                self.bump_locked()
            """
        )
        with lockdep.raises(match="guarded by self._state_lock") as caught:
            service.outer()
        assert [frame.name for frame in caught.value.here[-2:]] == [
            "outer",
            "bump_locked",
        ]

    def test_held_locked_helper_is_clean(self):
        service = self._service(
            """def bump_locked(self):
                self._state["x"] = 1

            def outer(self):
                with self._state_lock:
                    self.bump_locked()
            """
        )
        service.outer()

    def test_reacquisition_self_deadlock(self):
        """Raises in the acquiring thread instead of hanging it."""
        service = self._service(
            """def refresh(self):
                with self._state_lock:
                    self._state["x"] = 1

            def outer(self):
                with self._state_lock:
                    self.refresh()
            """
        )
        outcome = []

        def run():
            try:
                service.outer()
            except lockdep.LockdepError as error:
                outcome.append(error)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(10.0)
        assert not worker.is_alive()
        (error,) = outcome
        lockdep.violations.remove(error)
        assert "re-acquired by the thread that holds it" in error.summary
        assert [error.here[-1].name, error.there[-1].name] == [
            "refresh",
            "outer",
        ]

    def test_rlock_reacquisition_is_clean(self):
        """Only ``threading.Lock`` is tracked: an RLock re-enters as usual."""
        service = lockdep.toy(
            """
            import threading

            class Service:
                def __init__(self):
                    self._state_lock = threading.RLock()
                    self._state = {}

                def refresh(self):
                    with self._state_lock:
                        self._state["x"] = 1

                def outer(self):
                    with self._state_lock:
                        self.refresh()
            """
        ).Service()
        service.outer()
        assert service._state == {"x": 1}

    def test_cross_call_order_cycle(self):
        service = self._service(
            """def take_extra(self):
                with self._extra_lock:
                    pass

            def take_state(self):
                with self._state_lock:
                    self._state["x"] = 1

            def forward(self):
                with self._state_lock:
                    self.take_extra()

            def backward(self):
                with self._extra_lock:
                    self.take_state()
            """
        )
        service.forward()
        with lockdep.raises(match="lock order cycle") as caught:
            service.backward()
        assert [frame.name for frame in caught.value.here[-2:]] == [
            "backward",
            "take_state",
        ]
        assert [frame.name for frame in caught.value.there[-2:]] == [
            "forward",
            "take_extra",
        ]

    def test_opposite_acquisition_orders_flag_a_deadlock_cycle(self):
        module = lockdep.toy(self.TWO_LOCKS % ("backward", "_b_lock", "_a_lock"))
        two = module.TwoLocks()
        two.forward()
        with lockdep.raises() as caught:
            two.backward()
        lock = f"{module.__name__}.TwoLocks"
        assert caught.value.summary == (
            f"lock order cycle: {lock}._a_lock acquired while holding "
            f"{lock}._b_lock, but the order {lock}._a_lock -> {lock}._b_lock "
            "was recorded there"
        )
        assert [caught.value.here[-1].lineno, caught.value.there[-1].lineno] == [
            16,
            11,
        ]

    def test_consistent_acquisition_order_is_clean(self):
        two = lockdep.toy(self.TWO_LOCKS % ("again", "_a_lock", "_b_lock")).TwoLocks()
        two.forward()
        two.again()
        two.forward()

    def test_consistent_order_is_clean(self):
        service = self._service(
            """def take_extra(self):
                with self._extra_lock:
                    pass

            def one(self):
                with self._state_lock:
                    self.take_extra()

            def two(self):
                with self._state_lock:
                    self.take_extra()
            """
        )
        service.one()
        service.two()


class TestRL013BlockingUnderLock:
    """The retired RL013's cases, now answered at run time by lockdep.

    A blocking primitive or a fixpoint entry raises a ``LockdepError`` while
    the thread holds a lock not annotated ``#: may block: <reason>``; the
    error carries the blocking stack and the acquire's.
    """

    SERVICE = """
        import threading
        import time

        class Service:
            def __init__(self):
                self._state_lock = threading.Lock()
                self._state = {}

            %s
    """

    def _service(self, methods: str):
        return lockdep.toy(self.SERVICE % methods).Service()

    def test_direct_sleep_under_lock(self):
        service = self._service(
            """def refresh(self):
                with self._state_lock:
                    time.sleep(0)
            """
        )
        with lockdep.raises(match="time.sleep called while holding") as caught:
            service.refresh()
        assert caught.value.summary.split(", which")[0].endswith(
            "Service._state_lock"
        )
        assert [caught.value.here[-1].lineno, caught.value.there[-1].lineno] == [
            12,
            11,
        ]

    def test_transitive_blocking_callee_with_chain(self):
        service = self._service(
            """def slow(self):
                time.sleep(0)

            def refresh(self):
                with self._state_lock:
                    self.slow()
            """
        )
        with lockdep.raises(match="time.sleep called while holding") as caught:
            service.refresh()
        assert [frame.name for frame in caught.value.here[-2:]] == [
            "refresh",
            "slow",
        ]
        assert caught.value.there[-1].name == "refresh"

    def test_fixpoint_loop_under_lock(self, figure1_graph, figure1_scorer):
        """A real Eq. 4 solve: its entry check is the fixpoint hook."""
        service = self._service(
            """def solve(self, run):
                with self._state_lock:
                    return run()
            """
        )
        with lockdep.raises(match="a fixpoint entered") as caught:
            service.solve(
                lambda: objectrank2(
                    figure1_graph, figure1_scorer, KeywordQuery(["OLAP"]).vector()
                )
            )
        assert "solve" in [frame.name for frame in caught.value.here]

    def test_blocking_outside_the_lock_is_clean(self):
        service = self._service(
            """def refresh(self):
                time.sleep(0)
                with self._state_lock:
                    self._state["x"] = 1
                time.sleep(0)
            """
        )
        service.refresh()
        assert service._state == {"x": 1}

    def test_condition_wait_is_exempt(self):
        """Waiting on a held condition variable releases it — the idiom."""
        service = lockdep.toy(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._ready = False

                def await_ready(self):
                    with self._cond:
                        while not self._ready:
                            self._cond.wait()

                def set_ready(self):
                    with self._cond:
                        self._ready = True
                        self._cond.notify_all()
            """
        ).Service()
        assert isinstance(service._lock, lockdep.TrackedLock)
        setter = threading.Timer(0.05, service.set_ready)
        setter.start()
        service.await_ready()
        setter.join()
