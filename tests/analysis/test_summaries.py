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
