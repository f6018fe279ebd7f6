"""The bottom-up summary engine: facts, propagation, fixpoint convergence.

Each summary field gets a direct test plus one showing it composing
through a call — the composition is the whole point of the engine.  The
fixpoint tests pin the termination story: recursion converges, the round
counts stay tiny, and ``converged`` reports it.
"""

import textwrap

from repro_lint import SourceFile
from repro_lint.callgraph import Project
from repro_lint.summaries import (
    MAX_SCC_ROUNDS,
    compute_summaries,
)


def summaries_for(files: dict):
    project = Project(
        [
            SourceFile.parse(path, textwrap.dedent(text))
            for path, text in files.items()
        ]
    )
    return compute_summaries(project)


def one_module(text: str):
    return summaries_for({"src/repro/m.py": text})


LOCKED_CLASS = """
    import threading

    class Service:
        def __init__(self):
            self._state_lock = threading.Lock()
            self._extra_lock = threading.Lock()
            self._state = {}

        %s
"""


class TestLocks:
    def test_direct_acquisition_is_qualified(self):
        index = one_module(
            LOCKED_CLASS
            % """def touch(self):
            with self._state_lock:
                self._state["x"] = 1
        """
        )
        summary = index["repro.m:Service.touch"]
        assert summary.locks_acquired == {"repro.m.Service._state_lock"}
        assert summary.locks_acquired_transitive == summary.locks_acquired

    def test_transitive_acquisition_with_witness_chain(self):
        index = one_module(
            LOCKED_CLASS
            % """def touch(self):
            with self._state_lock:
                self._state["x"] = 1

        def outer(self):
            self.touch()
        """
        )
        summary = index["repro.m:Service.outer"]
        assert summary.locks_acquired == frozenset()
        assert summary.locks_acquired_transitive == {
            "repro.m.Service._state_lock"
        }
        chain = summary.acquire_witness["repro.m.Service._state_lock"]
        assert [step[0] for step in chain] == [
            "repro.m:Service.outer",
            "repro.m:Service.touch",
        ]

    def test_locked_helper_exports_requirement(self):
        index = one_module(
            LOCKED_CLASS
            % """def bump_locked(self):
            self._state["x"] = 1
        """
        )
        summary = index["repro.m:Service.bump_locked"]
        assert summary.locks_required == {"_state_lock"}
        (step,) = summary.required_witness["_state_lock"]
        assert step[0] == "repro.m:Service.bump_locked"

    def test_plain_method_exports_no_requirement(self):
        """Direct unguarded access is RL007's finding, not a requirement."""
        index = one_module(
            LOCKED_CLASS
            % """def bump(self):
            self._state["x"] = 1
        """
        )
        assert index["repro.m:Service.bump"].locks_required == frozenset()

    def test_requirement_propagates_through_locked_callers(self):
        index = one_module(
            LOCKED_CLASS
            % """def bump_locked(self):
            self._state["x"] = 1

        def outer_locked(self):
            self.bump_locked()
        """
        )
        outer = index["repro.m:Service.outer_locked"]
        assert outer.locks_required == {"_state_lock"}
        chain = outer.required_witness["_state_lock"]
        assert [step[0] for step in chain] == [
            "repro.m:Service.outer_locked",
            "repro.m:Service.bump_locked",
        ]

    def test_held_calls_record_the_lockset(self):
        index = one_module(
            LOCKED_CLASS
            % """def run(self):
            with self._state_lock:
                self.helper()

        def helper(self):
            return 1
        """
        )
        (site,) = [
            s
            for s in index["repro.m:Service.run"].held_calls
            if s.name == "self.helper"
        ]
        assert site.held == {"_state_lock"}
        assert site.callees == ("repro.m:Service.helper",)


class TestBlocking:
    def test_direct_primitive(self):
        index = one_module(
            """
            import time

            def pause():
                time.sleep(1)
            """
        )
        summary = index["repro.m:pause"]
        assert summary.may_block
        assert summary.blocking_reason == "time.sleep"
        assert summary.blocking_sites == (("time.sleep", 5),)

    def test_propagates_with_chain(self):
        index = one_module(
            """
            import time

            def pause():
                time.sleep(1)

            def mid():
                pause()

            def top():
                mid()
            """
        )
        summary = index["repro.m:top"]
        assert summary.may_block
        assert [step[0] for step in summary.blocking_chain] == [
            "repro.m:top",
            "repro.m:mid",
            "repro.m:pause",
        ]

    def test_fixpoint_loop_counts_as_blocking(self):
        index = one_module(
            """
            def solve(tol):
                residual = 1.0
                while residual > tol:
                    residual = residual / 2
                return residual
            """
        )
        summary = index["repro.m:solve"]
        assert summary.has_fixpoint_loop
        assert summary.may_block
        assert "fixpoint" in summary.blocking_reason

    def test_non_blocking_stays_quiet(self):
        index = one_module(
            """
            def pure(x):
                return x + 1
            """
        )
        assert not index["repro.m:pure"].may_block


class TestResources:
    def test_returned_fresh_resource(self):
        index = one_module(
            """
            def open_log(path):
                handle = open(path)
                return handle
            """
        )
        assert index["repro.m:open_log"].returns_resource == "file"

    def test_releasing_parameter_direct(self):
        index = one_module(
            """
            def shutdown(handle):
                handle.close()
            """
        )
        assert index["repro.m:shutdown"].releases_params == {"handle"}

    def test_releasing_parameter_transitive(self):
        index = one_module(
            """
            def close_it(h):
                h.close()

            def shutdown(handle):
                close_it(handle)
            """
        )
        assert index["repro.m:shutdown"].releases_params == {"handle"}

    def test_keeping_parameter_is_not_a_release(self):
        index = one_module(
            """
            def stash(handle, registry):
                registry.append(handle)
            """
        )
        assert index["repro.m:stash"].releases_params == frozenset()


class TestExceptions:
    def test_direct_and_propagated(self):
        index = one_module(
            """
            def fail():
                raise ValueError("boom")

            def outer():
                fail()
            """
        )
        assert index["repro.m:fail"].raises == {"ValueError"}
        assert "ValueError" in index["repro.m:outer"].propagates


class TestFixpoint:
    def test_direct_recursion_converges(self):
        index = one_module(
            """
            import time

            def spin(n):
                if n:
                    time.sleep(1)
                    spin(n - 1)
            """
        )
        assert index.converged
        assert index["repro.m:spin"].may_block

    def test_mutual_recursion_converges_in_few_rounds(self):
        index = one_module(
            LOCKED_CLASS
            % """def ping(self, n):
            with self._state_lock:
                pass
            self.pong(n)

        def pong(self, n):
            with self._extra_lock:
                pass
            self.ping(n)
        """
        )
        assert index.converged
        assert max(index.scc_rounds) <= 4
        assert max(index.scc_rounds) < MAX_SCC_ROUNDS
        both = {
            "repro.m.Service._state_lock",
            "repro.m.Service._extra_lock",
        }
        assert index["repro.m:Service.ping"].locks_acquired_transitive == both
        assert index["repro.m:Service.pong"].locks_acquired_transitive == both

    def test_every_function_has_a_summary(self):
        index = one_module(
            """
            def a():
                return b()

            def b():
                return a()

            class C:
                def m(self):
                    return a()
            """
        )
        for fid in index.project.graph.functions:
            assert fid in index
        assert len(index) == 3
