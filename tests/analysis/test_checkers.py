"""Per-checker fixture tests: one positive and one negative snippet each.

The positive snippets are minimal reproductions of the PR 2 bug patterns
each rule encodes — most importantly the pre-fix ``personalized_pagerank``
fancy-indexing restart write for RL001.
"""

import ast
import textwrap

import pytest

from repro_lint import SourceFile, all_checkers, checker_codes
from tests import lockdep


def lint_snippet(code: str, snippet: str):
    """Findings of one rule over one dedented snippet."""
    (checker,) = all_checkers([code])
    source = SourceFile.parse("<snippet>", textwrap.dedent(snippet))
    return list(checker.check(source))


def codes_of(findings):
    return [finding.code for finding in findings]


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert checker_codes() == [
            "RL001", "RL002", "RL004", "RL005", "RL010", "RL015",
        ]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown rule codes"):
            all_checkers(["RL999"])

    @pytest.mark.parametrize(
        "retired",
        [
            "RL003", "RL006", "RL007", "RL008", "RL009", "RL011", "RL012",
            "RL013", "RL014", "RL016", "RL017",
        ],
    )
    def test_retired_code_rejected_like_any_unknown_code(self, retired):
        with pytest.raises(ValueError, match="unknown rule codes"):
            all_checkers([retired])


class TestScopeWalk:
    """``walk_in_scope``: a function's own body, nested scopes left out."""

    @staticmethod
    def _calls_in_scope(code: str) -> list[str]:
        source = SourceFile.parse("src/repro/a.py", textwrap.dedent(code))
        (func,) = source.tree.body
        return [
            node.func.id
            for node in source.walk_in_scope(func)
            if isinstance(node, ast.Call)
        ]

    def test_calls_in_function_excludes_nested_scopes(self):
        assert self._calls_in_scope(
            """
            def outer():
                inner_result = direct()

                def nested():
                    return hidden()

                return inner_result
            """
        ) == ["direct"]

    def test_nested_default_exprs_belong_to_enclosing_scope(self):
        assert self._calls_in_scope(
            """
            def outer():
                def nested(x=default()):
                    return hidden()
                return nested
            """
        ) == ["default"]

    def test_walk_yields_nested_def_without_entering(self):
        source = SourceFile.parse(
            "src/repro/a.py",
            textwrap.dedent(
                """
                def outer():
                    def nested():
                        return hidden()
                    return nested
                """
            ),
        )
        (func,) = source.tree.body
        kinds = [type(node).__name__ for node in source.walk_in_scope(func)]
        assert "FunctionDef" in kinds  # the nested def itself is visible
        assert "Call" not in kinds


class TestRL001DuplicateIndexWrite:
    PRE_FIX_PERSONALIZED_PAGERANK = """
        import numpy as np

        def restart_distribution(n, restart_nodes, restart_weights):
            restart = np.zeros(n)
            nodes = np.asarray(restart_nodes, dtype=np.int64)
            restart[nodes] = restart_weights
            total = restart.sum()
            restart /= total
            return restart
    """

    def test_detects_pre_fix_personalized_pagerank_restart_write(self):
        """The exact PR 2 bug: duplicate base-set indices lose their mass."""
        findings = lint_snippet("RL001", self.PRE_FIX_PERSONALIZED_PAGERANK)
        assert codes_of(findings) == ["RL001"]
        assert "last write survives" in findings[0].message
        assert "np.add.at" in findings[0].suggestion

    def test_detects_augmented_fancy_write(self):
        findings = lint_snippet(
            "RL001",
            """
            import numpy as np

            def accumulate(scores, hit_indices):
                scores[hit_indices] += 1.0
            """,
        )
        assert codes_of(findings) == ["RL001"]

    def test_detects_list_literal_index(self):
        findings = lint_snippet(
            "RL001",
            """
            def f(a, w):
                a[[0, 0, 1]] += w
            """,
        )
        assert codes_of(findings) == ["RL001"]

    def test_negative_np_add_at_fix_is_clean(self):
        """The post-fix shape of personalized_pagerank passes."""
        findings = lint_snippet(
            "RL001",
            """
            import numpy as np

            def restart_distribution(n, restart_nodes, restart_weights):
                restart = np.zeros(n)
                nodes = np.asarray(restart_nodes, dtype=np.int64)
                np.add.at(restart, nodes, restart_weights)
                return restart / restart.sum()
            """,
        )
        assert findings == []

    def test_negative_scalar_loop_index_is_clean(self):
        findings = lint_snippet(
            "RL001",
            """
            def fill(a, n):
                for i in range(n):
                    a[i] += 1.0
            """,
        )
        assert findings == []

    def test_negative_constant_store_is_clean(self):
        """Assigning a constant is idempotent under duplicate indices."""
        findings = lint_snippet(
            "RL001",
            """
            import numpy as np

            def mask_out(a, dead_indices):
                a[dead_indices] = 0.0
            """,
        )
        assert findings == []


class TestRL002CacheLatch:
    PRE_FIX_TRANSFER_VIEW_LATCH = """
        class SearchEngine:
            def __init__(self, rates):
                self._transfer_graph = None
                self.rates = rates

            def transfer_view(self):
                if self._transfer_graph is None:
                    self._transfer_graph = build(self.rates)
                return self._transfer_graph

            def apply_rates(self, rates):
                self.rates = rates
    """

    def test_detects_pre_fix_transfer_view_latch(self):
        """The PR 2 bug: a built-once view that ignores later rate changes."""
        findings = lint_snippet("RL002", self.PRE_FIX_TRANSFER_VIEW_LATCH)
        assert codes_of(findings) == ["RL002"]
        assert "_transfer_graph" in findings[0].message
        assert "apply_rates" in findings[0].message

    def test_detects_boolean_flag_latch(self):
        findings = lint_snippet(
            "RL002",
            """
            class Runtime:
                def __init__(self):
                    self._built = False
                    self._cache = None
                    self.config = {}

                def get(self):
                    if not self._built:
                        self._cache = expensive(self.config)
                        self._built = True
                    return self._cache

                def reconfigure(self, config):
                    self.config = config
            """,
        )
        assert codes_of(findings) == ["RL002"]

    def test_negative_invalidating_writer_is_clean(self):
        """A writer that resets the latch is a correct invalidation."""
        findings = lint_snippet(
            "RL002",
            """
            class SearchEngine:
                def __init__(self, rates):
                    self._transfer_graph = None
                    self.rates = rates

                def transfer_view(self):
                    if self._transfer_graph is None:
                        self._transfer_graph = build(self.rates)
                    return self._transfer_graph

                def apply_rates(self, rates):
                    self.rates = rates
                    self._transfer_graph = None
            """,
        )
        assert findings == []

    def test_negative_constructor_writes_do_not_count(self):
        findings = lint_snippet(
            "RL002",
            """
            class Lazy:
                def __init__(self, inputs):
                    self._value = None
                    self.inputs = inputs

                def get(self):
                    if self._value is None:
                        self._value = compute(self.inputs)
                    return self._value
            """,
        )
        assert findings == []


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


class TestRL004ParamMutation:
    def test_detects_shared_rates_mutation(self):
        """The PR 1 bug shape: learning writes into the caller's rate map."""
        findings = lint_snippet(
            "RL004",
            """
            def learn(rates, flows):
                for edge_type, flow in flows.items():
                    rates[edge_type] = flow
                return rates
            """,
        )
        assert codes_of(findings) == ["RL004"]
        assert "'rates'" in findings[0].message

    def test_detects_update_call(self):
        findings = lint_snippet(
            "RL004",
            """
            def merge(weights, extra):
                weights.update(extra)
            """,
        )
        assert codes_of(findings) == ["RL004"]

    def test_detects_del_item(self):
        findings = lint_snippet(
            "RL004",
            """
            def prune(weights, term):
                del weights[term]
            """,
        )
        assert codes_of(findings) == ["RL004"]

    def test_negative_copy_first_is_clean(self):
        findings = lint_snippet(
            "RL004",
            """
            def learn(rates, flows):
                rates = dict(rates)
                for edge_type, flow in flows.items():
                    rates[edge_type] = flow
                return rates
            """,
        )
        assert findings == []

    def test_negative_out_param_contract_is_clean(self):
        findings = lint_snippet(
            "RL004",
            """
            def fill(out, values):
                for key, value in values:
                    out[key] = value
            """,
        )
        assert findings == []

    def test_negative_local_dict_is_clean(self):
        findings = lint_snippet(
            "RL004",
            """
            def collect(items):
                weights = {}
                for term in items:
                    weights[term] = weights.get(term, 0.0) + 1.0
                return weights
            """,
        )
        assert findings == []

    def test_negative_nested_function_params_scoped(self):
        """A nested def's own parameter mutation is the nested scope's deal."""
        findings = lint_snippet(
            "RL004",
            """
            def outer(rates):
                def inner(local_map):
                    local_map["x"] = 1.0
                    return local_map
                return inner(dict(rates))
            """,
        )
        assert codes_of(findings) == ["RL004"]  # inner's own mutation only
        assert "'local_map'" in findings[0].message


class TestRL005FloatEquality:
    def test_detects_total_weight_guard(self):
        """The pre-fix PrecomputedRanker.rank guard shape."""
        findings = lint_snippet(
            "RL005",
            """
            def rank(weights):
                total_weight = sum(weights)
                if total_weight == 0.0:
                    raise ValueError("empty")
                return total_weight
            """,
        )
        assert codes_of(findings) == ["RL005"]
        assert "<= 0.0" in findings[0].suggestion

    def test_detects_not_equal_and_reversed_operands(self):
        findings = lint_snippet(
            "RL005",
            """
            def check(x, y):
                return 1.0 != x or y == -0.5
            """,
        )
        assert codes_of(findings) == ["RL005", "RL005"]

    def test_negative_integer_comparison_is_clean(self):
        findings = lint_snippet(
            "RL005",
            """
            def check(count):
                return count == 0
            """,
        )
        assert findings == []

    def test_negative_inequality_is_clean(self):
        findings = lint_snippet(
            "RL005",
            """
            def check(total):
                if total <= 0.0:
                    raise ValueError("empty")
            """,
        )
        assert findings == []
