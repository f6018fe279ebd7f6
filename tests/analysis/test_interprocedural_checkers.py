"""Fixture tests for the interprocedural rules RL010 and RL013, and the
retired RL011's cases under lockdep."""

import textwrap
import threading

from repro_lint import SourceFile, all_checkers
from repro_lint.callgraph import Project
from tests import lockdep


def lint_project(code: str, files: dict):
    (checker,) = all_checkers([code])
    project = Project(
        [
            SourceFile.parse(path, textwrap.dedent(text))
            for path, text in files.items()
        ]
    )
    return sorted(checker.check_project(project))


def one_module(code: str, text: str):
    return lint_project(code, {"src/repro/m.py": text})


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

    def test_leak_through_helper_acquisition(self):
        """A helper whose summary says it returns a resource taints callers."""
        findings = one_module(
            "RL010",
            """
            def open_log(path):
                handle = open(path)
                return handle

            def consume(path, flag):
                log = open_log(path)
                if flag:
                    return None
                log.close()
                return True
            """,
        )
        assert codes_of(findings) == ["RL010"]
        assert "acquired via 'open_log'" in findings[0].message

    def test_passing_to_releasing_callee_is_a_release(self):
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


LOCKED_CLASS = """
    import threading

    class Service:
        def __init__(self):
            self._state_lock = threading.Lock()
            self._extra_lock = threading.Lock()
            self._state = {}

        %s
"""


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
    def test_direct_sleep_under_lock(self):
        findings = one_module(
            "RL013",
            LOCKED_CLASS
            % """def refresh(self):
            import time
            with self._state_lock:
                time.sleep(0.1)
        """,
        )
        assert codes_of(findings) == ["RL013"]
        assert findings[0].metadata["blocking"] == "time.sleep"

    def test_transitive_blocking_callee_with_chain(self):
        findings = one_module(
            "RL013",
            LOCKED_CLASS
            % """def slow(self):
            import time
            time.sleep(0.1)

        def refresh(self):
            with self._state_lock:
                self.slow()
        """,
        )
        assert codes_of(findings) == ["RL013"]
        chain = findings[0].metadata["call_chain"]
        assert [step["function"] for step in chain] == [
            "repro.m:Service.refresh",
            "repro.m:Service.slow",
        ]

    def test_fixpoint_loop_under_lock(self):
        findings = one_module(
            "RL013",
            LOCKED_CLASS
            % """def solve(self, tol):
            with self._state_lock:
                residual = 1.0
                while residual > tol:
                    residual = residual / 2
        """,
        )
        assert any("fixpoint" in f.message for f in findings)

    def test_blocking_outside_the_lock_is_clean(self):
        assert one_module(
            "RL013",
            LOCKED_CLASS
            % """def refresh(self):
            import time
            time.sleep(0.1)
            with self._state_lock:
                self._state["x"] = 1
        """,
        ) == []

    def test_constructors_are_exempt(self):
        assert one_module(
            "RL013",
            """
            import threading
            import time

            class Service:
                def __init__(self, path):
                    self._state_lock = threading.Lock()
                    with self._state_lock:
                        time.sleep(0.1)
            """,
        ) == []

    def test_condition_wait_is_exempt(self):
        """Waiting on a held condition variable releases it — the idiom."""
        assert one_module(
            "RL013",
            """
            import threading

            class Service:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._ready = False

                def await_ready(self):
                    with self._cond:
                        while not self._ready:
                            self._cond.wait()
            """,
        ) == []
