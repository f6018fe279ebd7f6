"""The fixpoint solver: termination on real and generated control flow.

The termination tests are the acceptance criterion of the dataflow layer,
run on its one instance, the interval analysis ``ValueProblem``: ``solve``
must reach a fixpoint on hypothesis-generated control flow, stop under its
visit cap on every real function in ``src/`` (a few counter loops hit the
cap: the interval domain has no widening), and *stop* (``converged=False``,
not a hang) when handed a lattice with an unbounded ascending chain.
"""

from pathlib import Path

from hypothesis import given, settings

from repro_lint.absint import ValueProblem
from repro_lint.base import SourceFile
from repro_lint.cfg import build_cfg
from repro_lint.dataflow import WIDENING_CAP, DataflowProblem, solve
from tests.analysis.test_cfg import parse_func, random_functions

REPO_ROOT = Path(__file__).resolve().parents[2]


def solve_and_check(source: SourceFile, func) -> bool:
    """Solve ``func``'s value analysis; whether it reached a fixpoint.

    Each block is visited at most ``WIDENING_CAP + 1`` times, so the solve
    is hard-bounded; and a solve that reports ``converged`` really is a
    fixpoint: every recorded output is the transfer of its recorded input.
    """
    cfg = source.cfg_for(func)
    problem = ValueProblem(source)
    solution = solve(cfg, problem)
    assert solution.iterations <= (WIDENING_CAP + 1) * len(cfg.blocks)
    if solution.converged:
        for block in cfg.blocks:
            assert solution.state_out_of(block) == problem.transfer_block(
                block, solution.state_into(block)
            )
    return solution.converged


class _Ascending(DataflowProblem):
    """Deliberately non-convergent: state grows on every loop transfer."""

    def initial(self):
        return 0

    def join(self, left, right):
        return max(left, right)

    def transfer_item(self, item, state):
        return state + 1


class TestTermination:
    def test_unbounded_chain_reports_non_convergence_instead_of_hanging(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(n):
                    while n:
                        n = n - 1
                """
            )
        )
        assert solve(cfg, _Ascending()).converged is False

    @settings(max_examples=40, deadline=None)
    @given(random_functions())
    def test_solver_reaches_a_fixpoint_on_random_control_flow(self, code):
        source = SourceFile.parse("<generated>", code)
        (func,) = source.tree.body
        assert solve_and_check(source, func)

    def test_solver_terminates_on_every_function_in_src(self):
        """Every solve stops under the cap, and all but a few counter loops
        (the interval domain has no widening) reach their fixpoint."""
        functions = converged = 0
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            source = SourceFile.parse(path.name, path.read_text(encoding="utf-8"))
            for func in source.functions():
                converged += solve_and_check(source, func)
                functions += 1
        assert functions > 200  # the tree is not trivially empty
        assert converged >= 0.95 * functions
