"""Fixture tests for RL010, and the retired RL011's and RL013's cases
under lockdep."""

import textwrap
import threading

from repro.query import KeywordQuery
from repro.ranking import objectrank2
from repro_lint import SourceFile, all_checkers
from tests import lockdep


def one_module(code: str, text: str):
    (checker,) = all_checkers([code])
    source = SourceFile.parse("src/repro/m.py", textwrap.dedent(text))
    return sorted(checker.check(source))


def codes_of(findings):
    return [finding.code for finding in findings]


class TestRL010ResourceLifecycle:
    def test_early_return_leaks(self):
        findings = one_module(
            "RL010",
            """
            def load(path, flag):
                handle = open(path)
                if flag:
                    return None
                data = handle.read()
                handle.close()
                return data
            """,
        )
        assert codes_of(findings) == ["RL010"]
        assert findings[0].metadata["variable"] == "handle"
        assert findings[0].metadata["resource"] == "file"

    def test_close_on_every_path_is_clean(self):
        assert one_module(
            "RL010",
            """
            def load(path):
                handle = open(path)
                data = handle.read()
                handle.close()
                return data
            """,
        ) == []

    def test_with_block_on_the_variable_is_a_release(self):
        assert one_module(
            "RL010",
            """
            def load(path):
                handle = open(path)
                with handle:
                    return handle.read()
            """,
        ) == []

    def test_returning_the_resource_transfers_ownership(self):
        assert one_module(
            "RL010",
            """
            def open_log(path):
                handle = open(path)
                return handle
            """,
        ) == []

    def test_passing_to_releasing_callee_is_a_release(self):
        """Passing the resource to any call hands it over: an escape."""
        assert one_module(
            "RL010",
            """
            def close_it(h):
                h.close()

            def load(path):
                handle = open(path)
                close_it(handle)
                return True
            """,
        ) == []

    def test_passing_to_unknown_callee_escapes(self):
        """Unknown callees may take ownership — no finding, by design."""
        assert one_module(
            "RL010",
            """
            def load(path, registry):
                handle = open(path)
                registry.adopt(handle)
                return True
            """,
        ) == []

    def test_socket_kind_reported(self):
        findings = one_module(
            "RL010",
            """
            import socket

            def listen(port, flag):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                if flag:
                    return None
                sock.close()
                return True
            """,
        )
        assert codes_of(findings) == ["RL010"]
        assert findings[0].metadata["resource"] == "socket"


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
