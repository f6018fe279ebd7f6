"""The retired RL007's cases, now answered at run time by lockdep.

RL007 checked statically that every access to a ``#: guarded by``
attribute happens where its lock is held.  ``tests/lockdep.py`` checks the
same thing at each real access, so each lint fixture below became a toy
class that runs: a violating case must raise a ``LockdepError``, a clean
one must run through.  The corpus case monkeypatches the shipped
``DatasetRuntime`` instead of editing a copy of its source.
"""

import threading

from repro.serve.service import DatasetRuntime, ServeConfig
from tests import lockdep


class TestRL007Lockset:
    GUARDED_CLASS = """
        import threading

        class Runtime:
            def __init__(self):
                self._rates_lock = threading.Lock()
                #: guarded by self._rates_lock
                self._rates = {{}}

            def {method}
    """

    def _runtime(self, method_lines: str):
        body = self.GUARDED_CLASS.format(method=method_lines.strip())
        return lockdep.toy(body).Runtime()

    def test_unguarded_read_flagged_with_lock_metadata(self):
        runtime = self._runtime(
            """peek(self):
                return self._rates
            """
        )
        with lockdep.raises(match="guarded by self._rates_lock") as caught:
            runtime.peek()
        assert "read in Runtime.peek" in caught.value.summary
        assert caught.value.here[-1].name == "peek"
        (binding,) = caught.value.there
        assert binding.name == "Runtime._rates guarded by self._rates_lock"

    def test_access_under_the_lock_is_clean(self):
        runtime = self._runtime(
            """peek(self):
                with self._rates_lock:
                    return self._rates
            """
        )
        assert runtime.peek() == {}

    def test_alias_through_a_local_still_counts_as_held(self):
        """The gap lexical ``with self.<lock>:`` matching could not close."""
        runtime = self._runtime(
            """peek(self):
                lock = self._rates_lock
                with lock:
                    return self._rates
            """
        )
        assert runtime.peek() == {}

    def test_partially_guarded_path_is_flagged(self):
        runtime = self._runtime(
            """peek(self, fast):
                if fast:
                    return self._rates
                with self._rates_lock:
                    return self._rates
            """
        )
        assert runtime.peek(False) == {}
        with lockdep.raises() as caught:
            runtime.peek(True)
        # The unlocked fast-path read, not the later guarded one.
        access = caught.value.here[-1]
        assert (access.lineno, access.line) == (12, "return self._rates")

    def test_locked_suffix_methods_are_exempt(self):
        """A ``*_locked`` helper runs clean when its caller holds the lock;
        called without it, its access raises (RL011's case)."""
        runtime = self._runtime(
            """peek_locked(self):
                return self._rates
            """
        )
        with runtime._rates_lock:
            assert runtime.peek_locked() == {}


class TestRL007ServiceCorpus:
    """The shipped service under lockdep: clean, and caught once de-guarded."""

    def _runtime(self, figure1) -> DatasetRuntime:
        return DatasetRuntime(figure1, ServeConfig(precompute=False))

    def test_shipped_service_is_clean(self, figure1):
        runtime = self._runtime(figure1)
        seen = []
        reader = threading.Thread(target=lambda: seen.append(runtime.rates))
        reader.start()
        runtime.apply_rates(runtime.rates)
        reader.join(10.0)
        assert seen == [figure1.transfer_schema]

    def test_removing_the_rates_guard_is_caught_at_the_exact_line(
        self, figure1, monkeypatch
    ):
        runtime = self._runtime(figure1)

        def rates(self):
            return self.current_rates

        monkeypatch.setattr(DatasetRuntime, "rates", property(rates))
        with lockdep.raises(
            match="current_rates is guarded by self._rates_lock"
        ) as caught:
            runtime.rates
        assert caught.value.here[-1].lineno == rates.__code__.co_firstlineno + 1
