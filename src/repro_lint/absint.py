"""Abstract interpretation over the CFG: the value-range domain.

One instance of the generic :mod:`repro_lint.dataflow` solver,
:class:`ValueProblem` — constant propagation + the :class:`Interval`
lattice of :mod:`repro_lint.domains`, with transfer functions for
arithmetic, ``len()`` facts for sequences, and comparison refinement
through ``refine_edge`` (a ``total > 0`` guard really narrows ``total``
to ``(0, +inf)`` on the true edge).  RL015 reads its states through
:func:`value_solution`, the one place a :class:`ValueProblem` is built,
so each function is solved once per run.

The wire-taint domain and the callee-range solve that RL014 and RL016 read
are gone with those rules: the typed parsers of
:mod:`repro.serve.http_server` make unparsed wire values unreachable from
the service, and the runtime range checks where damping and rates enter a
fixpoint (``check_damping``, ``AuthorityTransferSchemaGraph._set``) refuse
what RL016 tried to prove absent.
"""

from __future__ import annotations

import ast
import math

from repro_lint.base import call_name, literal_number
from repro_lint.cfg import (
    BasicBlock,
    BlockItem,
    Header,
    WithEnter,
    WithExit,
    assigned_names,
)
from repro_lint.dataflow import DataflowProblem, Solution, solve
from repro_lint.domains import (
    NON_NEGATIVE,
    TOP,
    Interval,
    join_value_states,
    state_get,
    state_kill,
    state_set,
)

#: Single-argument builtins whose result has the length of their argument.
_LEN_PRESERVING_CALLS = {"sorted", "list", "tuple", "reversed"}

#: Container mutators that invalidate a tracked ``len()`` fact.
_LEN_MUTATORS = {
    "append",
    "extend",
    "insert",
    "pop",
    "remove",
    "clear",
    "add",
    "discard",
    "update",
    "popitem",
    "setdefault",
}


def _len_key(name: str) -> str:
    # ``:`` cannot appear in an identifier, so len facts share the state
    # namespace without colliding with variable facts.
    return f"len:{name}"


# -- the value domain ---------------------------------------------------------


class ValueProblem(DataflowProblem):
    """Interval states for local names (plus ``len:`` facts for sequences).

    States are ``frozenset`` of ``(name, Interval)`` with at most one pair
    per name; a missing name is ⊤.  ``None`` is the distinguished bottom —
    an unreachable program point — so the solver's join over not-yet-
    visited predecessors does not destroy information.
    """

    def __init__(self, source=None) -> None:
        #: The file whose CFG is solved: its traversals serve the transfer
        #: functions (only :meth:`eval` and refinement run without one).
        self.source = source

    def initial(self):
        return None

    def boundary(self):
        return frozenset()

    def join(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return join_value_states(left, right)

    # -- transfer ------------------------------------------------------------

    def transfer_item(self, item: BlockItem, state):
        if state is None:
            return None
        if isinstance(item, Header):
            stmt = item.stmt
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                return self._transfer_for(stmt, state)
            return state
        walk = self.source.walk
        if isinstance(item, WithEnter):
            return self._kill_names(state, assigned_names(item, walk))
        if isinstance(item, WithExit):
            return state
        if isinstance(item, ast.Assign) and len(item.targets) == 1:
            target = item.targets[0]
            if isinstance(target, ast.Name):
                return self._bind(state, target.id, item.value)
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if item.value is not None:
                return self._bind(state, item.target.id, item.value)
            return state
        if isinstance(item, ast.AugAssign) and isinstance(item.target, ast.Name):
            name = item.target.id
            current = state_get(state, name) or TOP
            result = _apply_binop(item.op, current, self.eval(item.value, state))
            state = state_kill(state, _len_key(name))
            return state_set(state, name, result)
        state = self._kill_names(state, assigned_names(item, walk))
        return self._kill_mutated_lens(state, item)

    def _transfer_for(self, stmt, state):
        state = self._kill_names(
            state, assigned_names(Header(stmt), self.source.walk)
        )
        if isinstance(stmt.target, ast.Name) and isinstance(stmt.iter, ast.Call):
            bound = _range_interval(stmt.iter, lambda e: self.eval(e, state))
            if bound is not None:
                state = state_set(state, stmt.target.id, bound)
        return state

    def _kill_names(self, state, names):
        for name in names:
            state = state_kill(state, name)
            state = state_kill(state, _len_key(name))
        return state

    def _kill_mutated_lens(self, state, item):
        for node in self.source.walk_in_scope(item):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in _LEN_MUTATORS
            ):
                state = state_kill(state, _len_key(node.func.value.id))
        if isinstance(item, ast.Delete):
            for target in item.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    state = state_kill(state, _len_key(target.value.id))
        return state

    def _bind(self, state, name: str, value: ast.expr):
        interval = self.eval(value, state)
        length = _literal_len(value)
        copy_from = value if isinstance(value, ast.Name) else None
        if (
            copy_from is None
            and isinstance(value, ast.Call)
            and call_name(value) in _LEN_PRESERVING_CALLS
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Name)
        ):
            copy_from = value.args[0]
        if length is None and copy_from is not None:
            copied = state_get(state, _len_key(copy_from.id))
            state = state_set(state, _len_key(name), copied)
        else:
            state = state_set(
                state,
                _len_key(name),
                Interval.constant(length) if length is not None else None,
            )
        return state_set(state, name, interval)

    # -- expression evaluation ----------------------------------------------

    def eval(self, expr: ast.expr, state) -> Interval:
        """The interval of ``expr`` in ``state`` (⊤ when unknown)."""
        constant = literal_number(expr)
        if constant is not None:
            return Interval.constant(constant)
        if isinstance(expr, ast.Name):
            return state_get(state, expr.id) or TOP
        if isinstance(expr, ast.BinOp):
            return _apply_binop(
                expr.op, self.eval(expr.left, state), self.eval(expr.right, state)
            )
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.USub):
                return self.eval(expr.operand, state).neg()
            if isinstance(expr.op, ast.UAdd):
                return self.eval(expr.operand, state)
            if isinstance(expr.op, ast.Not):
                return Interval(0.0, 1.0)
            return TOP
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.IfExp):
            return self.eval(expr.body, state).join(self.eval(expr.orelse, state))
        return TOP

    def _eval_call(self, call: ast.Call, state) -> Interval:
        name = call_name(call)
        tail = name.rsplit(".", 1)[-1] if name else ""
        args = call.args
        if tail == "len" and len(args) == 1:
            if isinstance(args[0], ast.Name):
                fact = state_get(state, _len_key(args[0].id))
                if fact is not None:
                    return fact
            return NON_NEGATIVE
        if tail == "abs" and len(args) == 1:
            return self.eval(args[0], state).abs()
        if tail in ("min", "max") and len(args) >= 2:
            intervals = [self.eval(arg, state) for arg in args]
            if tail == "min":
                return Interval(
                    min(i.lo for i in intervals), min(i.hi for i in intervals)
                )
            return Interval(
                max(i.lo for i in intervals), max(i.hi for i in intervals)
            )
        if tail == "float" and len(args) == 1:
            return self.eval(args[0], state)
        if tail in ("int", "round") and len(args) == 1:
            inner = self.eval(args[0], state)
            return Interval(_floor(inner.lo), _ceil(inner.hi))
        return TOP

    # -- branch refinement ---------------------------------------------------

    def refine_edge(self, block: BasicBlock, label: str, state):
        if state is None or block.test is None or label not in ("true", "false"):
            return state
        return _refine_test(self, block.test, label == "true", state)


def _refine_test(problem: ValueProblem, test: ast.expr, positive: bool, state):
    if isinstance(test, ast.Compare):
        pairs = list(zip([test.left] + test.comparators, test.ops, test.comparators))
        if positive:
            for left, op, right in pairs:
                state = _refine_compare(problem, left, op, right, state)
                if state is None:
                    return None
            return state
        if len(pairs) == 1:
            left, op, right = pairs[0]
            negated = _NEGATED_OPS.get(type(op))
            if negated is not None:
                return _refine_compare(problem, left, negated(), right, state)
        return state
    key = _refinable_key(test)
    if key is not None:
        current = state_get(state, key) or (
            NON_NEGATIVE if key.startswith("len:") else TOP
        )
        if positive:
            refined = _exclude_point(current, 0.0)
        else:
            refined = current.meet(Interval.constant(0.0))
        if refined is None:
            return None
        state = state_set(state, key, refined)
        if not key.startswith("len:"):
            # A truthy container has at least one element (``if not xs:
            # return`` IS the emptiness guard RL015 looks for).  Sound for
            # non-containers too: their ``len:`` fact is never consulted.
            length = state_get(state, _len_key(key)) or NON_NEGATIVE
            bound = (
                length.meet(Interval(1.0, math.inf))
                if positive
                else length.meet(Interval.constant(0.0))
            )
            # An infeasible meet must report the *edge* dead, not drop the
            # fact: state_set would silently widen the length to ⊤, and a
            # premature wide state that escapes into a loop can never be
            # narrowed back by joins.
            if bound is None:
                return None
            state = state_set(state, _len_key(key), bound)
        return state
    return state


_NEGATED_OPS = {
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

_SWAPPED_OPS = {
    ast.Lt: ast.Gt,
    ast.LtE: ast.GtE,
    ast.Gt: ast.Lt,
    ast.GtE: ast.LtE,
    ast.Eq: ast.Eq,
    ast.NotEq: ast.NotEq,
}


def _refine_compare(problem, left, op, right, state):
    state = _refine_one_side(problem, left, op, right, state)
    if state is None:
        return None
    swapped = _SWAPPED_OPS.get(type(op))
    if swapped is None:
        return state
    return _refine_one_side(problem, right, swapped(), left, state)


def _refine_one_side(problem, target, op, other, state):
    """Meet ``target``'s fact with the constraint ``target OP other``."""
    key = _refinable_key(target)
    if key is None:
        return state
    bound = problem.eval(other, state)
    current = state_get(state, key) or (
        NON_NEGATIVE if key.startswith("len:") else TOP
    )
    if isinstance(op, ast.Lt):
        constraint = Interval(-math.inf, bound.hi, False, True)
    elif isinstance(op, ast.LtE):
        constraint = Interval(-math.inf, bound.hi, False, bound.hi_open)
    elif isinstance(op, ast.Gt):
        constraint = Interval(bound.lo, math.inf, True, False)
    elif isinstance(op, ast.GtE):
        constraint = Interval(bound.lo, math.inf, bound.lo_open, False)
    elif isinstance(op, ast.Eq):
        constraint = bound
    elif isinstance(op, ast.NotEq):
        point = bound.as_constant()
        if point is None:
            return state
        refined = _exclude_point(current, point)
        if refined is None:
            return None
        return state_set(state, key, refined)
    else:
        return state
    refined = current.meet(constraint)
    if refined is None:
        return None  # infeasible edge: bottom
    return state_set(state, key, refined)


def _refinable_key(expr: ast.expr) -> str | None:
    """The state key a test expression constrains, if any."""
    if isinstance(expr, ast.Name):
        return expr.id
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.Name)
    ):
        return _len_key(expr.args[0].id)
    return None


def _exclude_point(interval: Interval, point: float) -> Interval | None:
    """Open a closed bound sitting exactly on ``point`` (for ``!=``)."""
    lo_open = interval.lo_open or interval.lo == point
    hi_open = interval.hi_open or interval.hi == point
    return Interval.make(interval.lo, interval.hi, lo_open, hi_open)


def _apply_binop(op: ast.operator, left: Interval, right: Interval) -> Interval:
    if isinstance(op, ast.Add):
        return left.add(right)
    if isinstance(op, ast.Sub):
        return left.sub(right)
    if isinstance(op, ast.Mult):
        return left.mul(right)
    if isinstance(op, ast.Div):
        return left.div(right)
    if isinstance(op, ast.FloorDiv):
        inner = left.div(right)
        return Interval(_floor(inner.lo), _floor(inner.hi))
    if isinstance(op, ast.Mod):
        if right.definitely_positive():
            return Interval(0.0, right.hi, False, True)
        return TOP
    return TOP


def _floor(value: float) -> float:
    return value if math.isinf(value) else float(math.floor(value))


def _ceil(value: float) -> float:
    return value if math.isinf(value) else float(math.ceil(value))


def _range_interval(call: ast.Call, eval_arg) -> Interval | None:
    """The loop-variable interval of ``for x in range(...)``, if provable."""
    if call_name(call) != "range" or call.keywords:
        return None
    args = [eval_arg(arg) for arg in call.args]
    if len(args) == 1:
        lo, hi = 0.0, args[0].hi - 1
    elif len(args) == 2:
        lo, hi = args[0].lo, args[1].hi - 1
    else:
        return None  # a step argument may run backwards
    made = Interval.make(lo, hi)
    return made if made is not None else None


def _literal_len(expr: ast.expr) -> int | None:
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        if any(isinstance(element, ast.Starred) for element in expr.elts):
            return None
        return len(expr.elts)
    if isinstance(expr, ast.Dict):
        if any(key is None for key in expr.keys):
            return None
        return len(expr.keys)
    return None


def value_solution(source, func) -> Solution:
    """The (cached) value-domain solution of one function in ``source``."""
    cache = source.solution_cache("values")
    solution = cache.get(id(func))
    if solution is None:
        solution = solve(source.cfg_for(func), ValueProblem(source))
        cache[id(func)] = solution
    return solution


def states_before_items(solution: Solution, block: BasicBlock):
    """``(item, state)`` pairs through a block, plus the state at its test.

    Returns ``(pairs, test_state)``; states may be ``None`` (unreachable).
    """
    pairs = list(zip(block.body, solution.states_through(block)))
    state = solution.state_into(block)
    for item in block.body:
        state = solution.problem.transfer_item(item, state)
    return pairs, state
