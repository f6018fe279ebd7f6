"""Property-based tests for the abstract-interpretation layer.

Two guarantees the RL015 checker leans on, exercised over random
inputs rather than hand-picked fixtures:

* **branch refinement is a narrowing** — for any value state and any
  branch test, every fact that survives ``refine_edge`` is contained in
  the fact it refined (an infeasible refinement must report the *edge*
  dead, never silently widen a fact to ⊤; a premature wide state that
  escapes into a loop can never be narrowed back by joins);
* **the solver terminates** within the ``WIDENING_CAP`` visit bound on
  randomly generated control flow (nested loops, branches, augmented
  assignments over unbounded arithmetic).  The interval domain has
  infinite descending chains (``b -= 1`` in a ``while`` keeps lowering a
  bound forever), so termination is a property of the cap, not of the
  domain; and whenever the solver *does* report ``converged`` its states
  must be a genuine fixpoint of the transfer functions.
"""

from __future__ import annotations

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro_lint.absint import ValueProblem, _refine_test
from repro_lint.base import SourceFile
from repro_lint.dataflow import WIDENING_CAP, solve
from repro_lint.domains import TOP, Interval, state_get

NAMES = ("a", "b", "n")


# -- strategies ----------------------------------------------------------------

finite = st.integers(-8, 8).map(float)


@st.composite
def intervals(draw):
    low = draw(st.one_of(st.just(float("-inf")), finite))
    high = draw(st.one_of(st.just(float("inf")), finite))
    if low > high:
        low, high = high, low
    return Interval(low, high)


@st.composite
def value_states(draw):
    """A well-formed value state, honouring the transfer invariants: at
    most one fact per key, ``len:`` facts non-negative, and a name holds
    *either* a numeric interval *or* a ``len:`` fact — binding a number
    kills the length and vice versa, so a state carrying both (a nonzero
    number that is also an empty sequence) is unreachable and would make
    vacuous properties (both branch edges provably dead) pass trivially."""
    facts = []
    for name in draw(st.sets(st.sampled_from(NAMES), max_size=len(NAMES))):
        if draw(st.booleans()):
            facts.append((name, draw(intervals())))
        else:
            bounded = draw(intervals()).meet(Interval(0.0, float("inf")))
            facts.append((f"len:{name}", bounded or Interval(0.0, 0.0)))
    return frozenset(facts)


comparators = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])


@st.composite
def branch_tests(draw):
    """Source text of a branch condition the refiner understands (plus
    shapes it must pass through untouched)."""
    name = draw(st.sampled_from(NAMES))
    other = draw(st.sampled_from(NAMES))
    constant = draw(st.integers(-6, 6))
    upper = constant + draw(st.integers(0, 6))
    kind = draw(
        st.sampled_from(
            [
                "compare",
                "reversed",
                "chained",
                "truthiness",
                "not",
                "len",
                "not-len",
                "name-vs-name",
                "membership",
            ]
        )
    )
    if kind == "compare":
        return f"{name} {draw(comparators)} {constant}"
    if kind == "reversed":
        return f"{constant} {draw(comparators)} {name}"
    if kind == "chained":
        return f"{constant} <= {name} < {upper}"
    if kind == "truthiness":
        return name
    if kind == "not":
        return f"not {name}"
    if kind == "len":
        return f"len({name})"
    if kind == "not-len":
        return f"not len({name})"
    if kind == "name-vs-name":
        return f"{name} {draw(comparators)} {other}"
    return f"{name} in (1, 2, 3)"


class TestRefinementNarrows:
    @given(value_states(), branch_tests(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_refined_facts_are_contained_in_their_inputs(
        self, state, test_source, positive
    ):
        test = ast.parse(test_source, mode="eval").body
        refined = _refine_test(ValueProblem(), test, positive, state)
        if refined is None:
            return  # the edge died — strictly stronger than narrowing
        for key, before in state:
            after = state_get(refined, key) or TOP
            assert before.contains_interval(after), (
                f"refining {test_source!r} ({positive=}) widened {key}: "
                f"{before!r} -> {after!r}"
            )

    @given(value_states(), branch_tests())
    @settings(max_examples=300, deadline=None)
    def test_both_edges_never_die_together(self, state, test_source):
        """Refinement may prove one branch edge dead, never both — the
        concrete execution takes one of them."""
        test = ast.parse(test_source, mode="eval").body
        problem = ValueProblem()
        taken = _refine_test(problem, test, True, state)
        fallen = _refine_test(problem, test, False, state)
        assert taken is not None or fallen is not None


# -- random control flow -------------------------------------------------------


@st.composite
def statements(draw, depth: int = 0):
    name = draw(st.sampled_from(NAMES))
    source = draw(st.sampled_from(NAMES))
    constant = draw(st.integers(-4, 4))
    kinds = ["assign", "augadd", "augmul", "call"]
    if depth < 2:
        kinds += ["if", "while", "for"]
    kind = draw(st.sampled_from(kinds))
    indent = "    " * (depth + 1)
    if kind == "assign":
        return [f"{indent}{name} = {source} + {constant}"]
    if kind == "augadd":
        return [f"{indent}{name} += {constant}"]
    if kind == "augmul":
        return [f"{indent}{name} *= 2"]
    if kind == "call":
        return [f"{indent}{name} = len(items)"]
    test = draw(branch_tests())
    body = draw(
        st.lists(statements(depth=depth + 1), min_size=1, max_size=2)
    )
    flat = [line for chunk in body for line in chunk]
    if kind == "if":
        lines = [f"{indent}if {test}:", *flat]
        if draw(st.booleans()):
            lines += [f"{indent}else:", f"{indent}    {name} = {constant}"]
        return lines
    if kind == "while":
        return [f"{indent}while {test}:", *flat]
    return [f"{indent}for {name} in range({source}):", *flat]


@st.composite
def random_functions(draw):
    chunks = draw(st.lists(statements(), min_size=1, max_size=4))
    lines = ["def f(a, b, n, items):"]
    for chunk in chunks:
        lines.extend(chunk)
    lines.append("    return a")
    return "\n".join(lines)


class TestSolverTermination:
    @given(random_functions())
    @settings(max_examples=150, deadline=None)
    def test_value_analysis_terminates_under_the_cap(self, source):
        parsed = SourceFile.parse("<generated>", source)
        (func,) = parsed.tree.body
        cfg = parsed.cfg_for(func)
        solution = solve(cfg, ValueProblem(parsed))
        # Each block is visited at most WIDENING_CAP + 1 times before the
        # solver gives up, so total iterations are hard-bounded.
        assert solution.iterations <= (WIDENING_CAP + 1) * len(cfg.blocks)
        # Every reachable state stays well-formed: one fact per key.
        for state in solution.outputs.values():
            if state is None:
                continue
            keys = [key for key, _ in state]
            assert len(keys) == len(set(keys))

    @given(random_functions())
    @settings(max_examples=150, deadline=None)
    def test_a_reported_fixpoint_really_is_one(self, source):
        """``converged`` is a promise: transferring any block's input must
        reproduce its recorded output, and every block's input must absorb
        each refined predecessor output (``join`` adds nothing new)."""
        parsed = SourceFile.parse("<generated>", source)
        (func,) = parsed.tree.body
        cfg = parsed.cfg_for(func)
        problem = ValueProblem(parsed)
        solution = solve(cfg, problem)
        if not solution.converged:
            return  # the cap fired — termination is covered above
        for block in cfg.blocks:
            state = solution.state_into(block)
            assert problem.transfer_block(block, state) == solution.state_out_of(
                block
            )
            for edge in cfg.predecessors(block):
                incoming = problem.refine_edge(
                    cfg.blocks[edge.source],
                    edge.label,
                    solution.state_out_of(edge.source),
                )
                assert problem.join(state, incoming) == state
