"""The fixpoint solver: reference instances, refinement, termination.

The termination tests are the acceptance criterion of the dataflow layer:
``solve`` must reach a fixpoint on hypothesis-generated control flow and on
every real function in ``src/`` — and must *stop* (``converged=False``,
not a hang) when handed a lattice with an unbounded ascending chain.
"""

import ast
from pathlib import Path

from hypothesis import given, settings

from repro_lint.cfg import build_cfg
from repro_lint.dataflow import (
    DataflowProblem,
    LiveVariables,
    ReachingDefinitions,
    solve,
)
from tests.analysis.test_cfg import parse_func, random_functions

REPO_ROOT = Path(__file__).resolve().parents[2]


def solve_func(code: str, problem_cls=ReachingDefinitions):
    func = parse_func(code)
    cfg = build_cfg(func)
    problem = problem_cls(cfg) if problem_cls is ReachingDefinitions else problem_cls()
    return cfg, problem, solve(cfg, problem)


class TestReachingDefinitions:
    def test_params_reach_the_entry(self):
        cfg, problem, solution = solve_func("def f(a, b):\n    return a\n")
        state = solution.state_into(cfg.entry)
        assert ("a", ReachingDefinitions.PARAM) in state
        assert ("b", ReachingDefinitions.PARAM) in state

    def test_redefinition_kills_the_old_definition(self):
        cfg, problem, solution = solve_func(
            """
            def f():
                x = 1
                x = 2
                return x
            """
        )
        state = solution.state_out_of(cfg.entry)
        defs = problem.definitions_of(state, "x")
        assert len(defs) == 1
        assert isinstance(defs[0], ast.Assign)
        assert defs[0].value.value == 2

    def test_both_branch_definitions_reach_the_join(self):
        cfg, problem, solution = solve_func(
            """
            def f(cond):
                if cond:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        return_block = next(
            b for b in cfg.blocks if any(isinstance(i, ast.Return) for i in b.body)
        )
        defs = problem.definitions_of(solution.state_into(return_block), "x")
        values = sorted(d.value.value for d in defs)
        assert values == [1, 2]

    def test_states_through_pairs_items_with_their_state(self):
        cfg, problem, solution = solve_func(
            """
            def f():
                x = 1
                y = x
                x = 2
            """
        )
        states = solution.states_through(cfg.entry)
        assert len(states) == len(cfg.entry.body)
        # before `y = x`, the x=1 definition reaches; before x=2, still x=1.
        defs_before_y = problem.definitions_of(states[1], "x")
        assert [d.value.value for d in defs_before_y] == [1]


class TestLiveVariables:
    def test_read_after_makes_a_name_live(self):
        cfg, _problem, solution = solve_func(
            """
            def f():
                x = 1
                return x
            """,
            LiveVariables,
        )
        # Backward: state_out_of(entry) is the state at the entry's start.
        assert "x" not in solution.state_out_of(cfg.entry)
        # And x is live between the assignment and the return: the entry
        # input (after the block, i.e. at the exit edge) has nothing.
        assert solution.state_into(cfg.entry) == frozenset()

    def test_reassignment_without_read_is_dead(self):
        cfg, _problem, solution = solve_func(
            """
            def f(a):
                x = a
                x = 2
                return x
            """,
            LiveVariables,
        )
        # `a` is read by the first assignment, so it is live at entry start.
        assert "a" in solution.state_out_of(cfg.entry)

    def test_loop_condition_reads_stay_live_around_the_back_edge(self):
        cfg, _problem, solution = solve_func(
            """
            def f(n):
                while n:
                    n = n - 1
                return n
            """,
            LiveVariables,
        )
        assert "n" in solution.state_out_of(cfg.entry)


class _Ascending(DataflowProblem):
    """Deliberately non-convergent: state grows on every loop transfer."""

    direction = "forward"

    def initial(self):
        return 0

    def join(self, left, right):
        return max(left, right)

    def transfer_item(self, item, state):
        return state + 1


class TestTermination:
    def test_unbounded_chain_reports_non_convergence_instead_of_hanging(self):
        cfg, _problem, solution = solve_func(
            """
            def f(n):
                while n:
                    n = n - 1
            """,
            _Ascending,
        )
        assert solution.converged is False

    @settings(max_examples=40, deadline=None)
    @given(random_functions())
    def test_solver_reaches_a_fixpoint_on_random_control_flow(self, code):
        func = ast.parse(code).body[0]
        cfg = build_cfg(func)
        for problem in (ReachingDefinitions(cfg), LiveVariables()):
            solution = solve(cfg, problem)
            assert solution.converged
            # Fixpoint check: every recorded output is the transfer of its
            # recorded input — nothing left half-propagated.
            for block in cfg.blocks:
                assert solution.state_out_of(block) == problem.transfer_block(
                    block, solution.state_into(block)
                )

    def test_solver_terminates_on_every_function_in_src(self):
        """ISSUE acceptance: both reference analyses converge repo-wide."""
        from repro_lint.base import SourceFile

        functions = 0
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            source = SourceFile.parse(path.name, path.read_text(encoding="utf-8"))
            for func in source.functions():
                cfg = source.cfg_for(func)
                assert solve(cfg, ReachingDefinitions(cfg)).converged, path
                assert solve(cfg, LiveVariables()).converged, path
                functions += 1
        assert functions > 200  # the tree is not trivially empty
