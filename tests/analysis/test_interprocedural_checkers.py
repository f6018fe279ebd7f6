"""Fixture tests for the interprocedural rules RL010–RL013.

The RL012 corpus test is this PR's acceptance criterion made executable:
a copy of ``src/repro/serve/service.py`` with the ingest-epoch component
removed from the serve result-cache key must light up at the cache sink —
the fencing bug the rule exists to catch, seeded into the real code.
"""

import re
import textwrap
from pathlib import Path

from repro_lint import SourceFile, all_checkers
from repro_lint.callgraph import Project

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVICE_PY = REPO_ROOT / "src" / "repro" / "serve" / "service.py"


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
    def test_unheld_locked_helper_flagged_with_chain(self):
        findings = one_module(
            "RL011",
            LOCKED_CLASS
            % """def bump_locked(self):
            self._state["x"] = 1

        def outer(self):
            self.bump_locked()
        """,
        )
        assert codes_of(findings) == ["RL011"]
        assert "_state_lock" in findings[0].message
        chain = findings[0].metadata["call_chain"]
        assert [step["function"] for step in chain] == [
            "repro.m:Service.outer",
            "repro.m:Service.bump_locked",
        ]

    def test_held_locked_helper_is_clean(self):
        assert one_module(
            "RL011",
            LOCKED_CLASS
            % """def bump_locked(self):
            self._state["x"] = 1

        def outer(self):
            with self._state_lock:
                self.bump_locked()
        """,
        ) == []

    def test_reacquisition_self_deadlock(self):
        findings = one_module(
            "RL011",
            LOCKED_CLASS
            % """def refresh(self):
            with self._state_lock:
                self._state["x"] = 1

        def outer(self):
            with self._state_lock:
                self.refresh()
        """,
        )
        assert codes_of(findings) == ["RL011"]
        assert "not reentrant" in findings[0].message

    def test_rlock_reacquisition_is_clean(self):
        assert one_module(
            "RL011",
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
            """,
        ) == []

    def test_cross_call_order_cycle(self):
        findings = one_module(
            "RL011",
            LOCKED_CLASS
            % """def take_extra(self):
            with self._extra_lock:
                self._state["y"] = 1

        def take_state(self):
            with self._state_lock:
                self._state["x"] = 1

        def forward(self):
            with self._state_lock:
                self.take_extra()

        def backward(self):
            with self._extra_lock:
                self.take_state()
        """,
        )
        assert "RL011" in codes_of(findings)
        assert any("deadlock" in f.message for f in findings)

    def test_opposite_acquisition_orders_flag_a_deadlock_cycle(self):
        findings = one_module(
            "RL011",
            """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """,
        )
        assert codes_of(findings) == ["RL011", "RL011"]
        assert [f.line for f in findings] == [11, 16]
        assert findings[0].message == (
            "'self._b_lock' is acquired while 'self._a_lock' is held in "
            "'TwoLocks.forward', but the class also acquires these locks in "
            "the opposite order — a lock-ordering cycle that can deadlock."
        )
        held = {(f.metadata["held"], f.metadata["acquired"]) for f in findings}
        assert held == {
            ("repro.m.TwoLocks._a_lock", "repro.m.TwoLocks._b_lock"),
            ("repro.m.TwoLocks._b_lock", "repro.m.TwoLocks._a_lock"),
        }
        assert [len(f.metadata["call_chain"]) for f in findings] == [1, 1]

    def test_consistent_acquisition_order_is_clean(self):
        assert one_module(
            "RL011",
            """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def one(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def two(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
            """,
        ) == []

    def test_consistent_order_is_clean(self):
        assert one_module(
            "RL011",
            LOCKED_CLASS
            % """def take_extra(self):
            with self._extra_lock:
                self._state["y"] = 1

        def one(self):
            with self._state_lock:
                self.take_extra()

        def two(self):
            with self._state_lock:
                self.take_extra()
        """,
        ) == []


class TestRL012CacheKeyFencing:
    FENCED = """
        class Runtime:
            pass

        def make_key(dataset, vector, rates, k):
            return (dataset, vector, rates, k)

        class Server:
            def __init__(self, cache, runtime):
                self.cache = cache
                self.runtime = runtime

            def lookup(self, dataset, vector, rates, k, epoch):
                key = make_key(dataset, vector, rates, k)
                %s
                return self.cache.get(key)
    """

    def test_missing_epoch_flagged_at_the_sink(self):
        findings = one_module("RL012", self.FENCED % "pass")
        assert codes_of(findings) == ["RL012"]
        assert findings[0].metadata["missing"] == ["ingest epoch"]
        assert "self.cache.get" in findings[0].message

    def test_unconditional_epoch_append_is_clean(self):
        assert one_module(
            "RL012", self.FENCED % 'key += (("epoch", epoch),)'
        ) == []

    def test_conditional_epoch_append_is_clean(self):
        """May-analysis: one path adding the component satisfies the rule."""
        assert one_module(
            "RL012",
            self.FENCED
            % """if epoch is not None:
                    key += (("epoch", epoch),)""",
        ) == []

    def test_gen_component_does_not_count_as_epoch(self):
        """The store generation only moves on slab swaps — not a fence."""
        findings = one_module(
            "RL012", self.FENCED % 'key += (("gen", epoch),)'
        )
        assert codes_of(findings) == ["RL012"]

    def test_non_query_key_is_ignored(self):
        assert one_module(
            "RL012",
            """
            class Server:
                def __init__(self, cache):
                    self.cache = cache

                def lookup(self, name):
                    return self.cache.get((name,))
            """,
        ) == []

    def test_two_stage_params_do_not_satisfy_the_epoch_fence(self):
        """Two-stage cohorting is orthogonal to the ingest fence."""
        findings = one_module(
            "RL012",
            self.FENCED
            % 'key += (("two_stage", ("candidates", "horizon")),)',
        )
        assert codes_of(findings) == ["RL012"]
        assert findings[0].metadata["missing"] == ["ingest epoch"]

    def test_two_stage_params_alongside_epoch_are_clean(self):
        assert one_module(
            "RL012",
            self.FENCED
            % """key += (("two_stage", ("candidates", "horizon")),)
                key += (("epoch", epoch),)""",
        ) == []

    def test_key_built_by_helper_still_seen(self):
        findings = one_module(
            "RL012",
            """
            def make_key(dataset, vector, rates, k):
                return (dataset, vector, rates, k)

            def build(dataset, vector, rates, k):
                return make_key(dataset, vector, rates, k)

            class Server:
                def __init__(self, cache):
                    self.cache = cache

                def lookup(self, dataset, vector, rates, k):
                    key = build(dataset, vector, rates, k)
                    return self.cache.get(key)
            """,
        )
        assert codes_of(findings) == ["RL012"]


class TestRL012Corpus:
    """The acceptance criterion: seeded epoch removal in the real service."""

    # Both appends live in ``_result_key`` (the search plan's key builder);
    # the sink they protect is ``self.cache.get(key)`` in ``search``, which
    # sees the key only through that helper's summary.  The epoch append is
    # the whole body of its ``if``, so "removing" it leaves a ``pass``.
    EPOCH_LINE = re.compile(
        r"^(\s*)key \+= \(\("  # the epoch append, single line
        r'"epoch", plan\.staleness\["epoch"\]\),\)\n',
        re.MULTILINE,
    )
    TWO_STAGE_LINE = re.compile(
        r"^\s*key \+= \(\("  # the two-stage cohort append
        r'"two_stage", tuple\(sorted\(plan\.two_stage\.items\(\)\)\)\),\)\n',
        re.MULTILINE,
    )

    def test_current_service_is_fenced(self):
        (checker,) = all_checkers(["RL012"])
        project = Project(
            [
                SourceFile.parse(
                    "src/repro/serve/service.py",
                    SERVICE_PY.read_text(encoding="utf-8"),
                )
            ]
        )
        assert list(checker.check_project(project)) == []

    def test_seeded_epoch_removal_flagged_at_the_cache_sink(self):
        text = SERVICE_PY.read_text(encoding="utf-8")
        mutated, count = self.EPOCH_LINE.subn(r"\1pass\n", text)
        assert count == 1, "the epoch append the rule protects has moved"
        (checker,) = all_checkers(["RL012"])
        project = Project(
            [SourceFile.parse("src/repro/serve/service.py", mutated)]
        )
        findings = sorted(checker.check_project(project))
        assert codes_of(findings) == ["RL012"]
        sink_line = next(
            number
            for number, line in enumerate(mutated.splitlines(), start=1)
            if "self.cache.get(key)" in line
        )
        assert findings[0].line == sink_line
        assert findings[0].metadata["missing"] == ["ingest epoch"]

    def test_two_stage_cohort_key_is_present_and_not_a_fence(self):
        """The search key carries the two-stage cohort component —
        and removing the epoch append is still flagged with it in place,
        because two-stage parameters never substitute for the ingest fence.
        """
        text = SERVICE_PY.read_text(encoding="utf-8")
        assert len(self.TWO_STAGE_LINE.findall(text)) == 1, (
            "the two-stage cache-key cohort append has moved"
        )
        mutated, count = self.EPOCH_LINE.subn(r"\1pass\n", text)
        assert count == 1
        assert self.TWO_STAGE_LINE.search(mutated) is not None
        (checker,) = all_checkers(["RL012"])
        project = Project(
            [SourceFile.parse("src/repro/serve/service.py", mutated)]
        )
        findings = sorted(checker.check_project(project))
        assert codes_of(findings) == ["RL012"]
        assert findings[0].metadata["missing"] == ["ingest epoch"]


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
