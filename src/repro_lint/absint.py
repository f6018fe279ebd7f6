"""Abstract interpretation over the CFG: value ranges and wire taint.

Two instances of the generic :mod:`repro_lint.dataflow` solver:

* :class:`ValueProblem` — constant propagation + the :class:`Interval`
  lattice of :mod:`repro_lint.domains`, with transfer functions for
  arithmetic, ``len()`` facts for sequences, and comparison refinement
  through ``refine_edge`` (a ``total > 0`` guard really narrows ``total``
  to ``(0, +inf)`` on the true edge).  RL015/RL016/RL017 read its states.

* :class:`TaintProblem` — a may-analysis of *wire* data (HTTP bodies,
  query strings, ingest payloads).  Within one function the labels are
  symbolic — ``"wire"`` for a direct source call, ``("param", i)`` for
  the i-th parameter, ``("call", key)`` for a call site's result — and
  :func:`resolve_labels` expands the call labels against function
  summaries, so the interprocedural fixpoint in
  :mod:`repro_lint.summaries` only moves small frozensets per round
  instead of re-running any dataflow.  Unknown callees contribute
  nothing, matching the summary engine's under-approximation discipline:
  absence of a fact keeps checkers quiet, it never invents findings.

Sanitizers follow the issue's contract: the typed wire parsers
(``mutation_from_json`` and the ``_optional_*``/``_require_*`` helpers)
return clean values, and an explicit range check on a tainted name
(``if idx < 0 or idx >= n: raise``, membership in a known container)
clears its labels on the refined edges.  Plain ``int()``/``float()`` are
*not* sanitizers — a cast bounds the type, not the range.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

from repro_lint.base import call_name, literal_number
from repro_lint.callgraph import CallSite, FunctionInfo, calls_in_item
from repro_lint.cfg import (
    BasicBlock,
    BlockItem,
    Header,
    WithEnter,
    WithExit,
    assigned_names,
    item_roots,
)
from repro_lint.dataflow import DataflowProblem, Solution, solve
from repro_lint.domains import (
    NON_NEGATIVE,
    TOP,
    Interval,
    join_value_states,
    state_get,
    state_kill,
    state_labels,
    state_set,
)

#: The one concrete taint label: data parsed off the wire, unvalidated.
WIRE = "wire"

#: Calls whose *result* is raw wire data, by bare/dotted name.
WIRE_SOURCE_NAMES = {"parse_qs", "urllib.parse.parse_qs"}
#: ...by attribute tail (``self._read_json_body()``, ``sock.recv()``).
WIRE_SOURCE_TAILS = {"_read_json_body", "recv", "recvfrom"}
#: ...by dotted suffix (``self.rfile`` is the HTTP request stream).
WIRE_SOURCE_SUFFIXES = ("rfile.read", "rfile.readline")

#: Typed strict parsers of the serve/ingest tier: their results are clean.
SANITIZER_TAILS = {
    "mutation_from_json",
    "_require_str",
    "_optional_role",
    "_attributes",
    "_optional_int",
    "_optional_float",
    "_query_from_json",
}

#: Attribute tails that pass their receiver's taint through to the result.
PROPAGATING_TAILS = {
    "get",
    "items",
    "keys",
    "values",
    "pop",
    "strip",
    "lstrip",
    "rstrip",
    "split",
    "rsplit",
    "splitlines",
    "lower",
    "upper",
    "decode",
    "encode",
    "copy",
}

#: Rate-valued keyword arguments.
RATE_KEYWORDS = {"rates", "default_rate", "epsilon", "rate", "damping"}
#: Methods whose sole positional argument is a transfer rate.
SET_RATE_TAILS = {"set_rate", "set_default_rate"}

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


def _positional_params(node) -> list[str]:
    params = list(node.args.posonlyargs) + list(node.args.args)
    if params and params[0].arg in ("self", "cls"):
        params = params[1:]
    return [arg.arg for arg in params]


# -- the value domain ---------------------------------------------------------


class ValueProblem(DataflowProblem):
    """Interval states for local names (plus ``len:`` facts for sequences).

    States are ``frozenset`` of ``(name, Interval)`` with at most one pair
    per name; a missing name is ⊤.  ``None`` is the distinguished bottom —
    an unreachable program point — so the solver's join over not-yet-
    visited predecessors does not destroy information.
    """

    direction = "forward"

    def __init__(self, source=None, call_ranges=None) -> None:
        #: The file whose CFG is solved: its traversals serve the transfer
        #: functions (only :meth:`eval` and refinement run without one).
        self.source = source
        #: optional ``call_ranges(node) -> Interval | None`` hook so the
        #: project phase can evaluate resolved callees' return ranges.
        self.call_ranges = call_ranges

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
        if self.call_ranges is not None:
            known = self.call_ranges(call)
            if known is not None:
                return known
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


# -- the taint domain ---------------------------------------------------------


class TaintProblem(DataflowProblem):
    """May-flow of symbolic taint labels through one function's locals.

    States are frozensets of ``(name, label)`` pairs — a name may carry
    many labels.  The empty set is bottom (nothing tainted), join is
    union, and the lattice is finite (labels come from the fixed set of
    parameters and call sites), so the solve always converges.
    """

    direction = "forward"

    def __init__(self, boundary: frozenset, source) -> None:
        self._boundary = boundary
        self.walk = source.walk

    def initial(self) -> frozenset:
        return frozenset()

    def boundary(self) -> frozenset:
        return self._boundary

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def transfer_item(self, item: BlockItem, state: frozenset) -> frozenset:
        if isinstance(item, Header):
            stmt = item.stmt
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                labels = taint_of(stmt.iter, state)
                for name in assigned_names(item, self.walk):
                    state = _retag(state, name, labels)
            return state
        if isinstance(item, WithEnter):
            labels = taint_of(item.item.context_expr, state)
            for name in assigned_names(item, self.walk):
                state = _retag(state, name, labels)
            return state
        if isinstance(item, WithExit):
            return state
        if isinstance(item, ast.Assign):
            labels = taint_of(item.value, state)
            for target in item.targets:
                state = _assign_target(state, target, labels)
            return state
        if isinstance(item, ast.AnnAssign) and item.value is not None:
            return _assign_target(state, item.target, taint_of(item.value, state))
        if isinstance(item, ast.AugAssign) and isinstance(item.target, ast.Name):
            extra = taint_of(item.value, state)
            return state | frozenset((item.target.id, label) for label in extra)
        for name in assigned_names(item, self.walk):
            state = _retag(state, name, frozenset())
        return state

    def refine_edge(self, block: BasicBlock, label: str, state: frozenset):
        if block.test is None or label not in ("true", "false"):
            return state
        return _sanitize_by_test(block.test, label == "true", state)


def _retag(state: frozenset, name: str, labels: frozenset) -> frozenset:
    kept = frozenset(pair for pair in state if pair[0] != name)
    return kept | frozenset((name, label) for label in labels)


def _assign_target(state, target: ast.expr, labels: frozenset) -> frozenset:
    if isinstance(target, ast.Name):
        return _retag(state, target.id, labels)
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            state = _assign_target(state, element, labels)
        return state
    if isinstance(target, ast.Starred):
        return _assign_target(state, target.value, labels)
    # Attribute/subscript stores: writing tainted data INTO a container
    # taints the container (may-analysis over the whole object).
    base = target
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        base = base.value
    if isinstance(base, ast.Name) and labels:
        return state | frozenset((base.id, label) for label in labels)
    return state


def taint_of(expr: ast.expr, state: frozenset) -> frozenset:
    """Symbolic labels an expression's value may carry in ``state``."""
    if isinstance(expr, ast.Name):
        return state_labels(state, expr.id)
    if isinstance(expr, ast.Constant):
        return frozenset()
    if isinstance(expr, ast.Call):
        return frozenset({("call", id(expr))})
    if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
        return taint_of(expr.value, state)
    if isinstance(expr, ast.BinOp):
        return taint_of(expr.left, state) | taint_of(expr.right, state)
    if isinstance(expr, ast.BoolOp):
        labels: frozenset = frozenset()
        for value in expr.values:
            labels |= taint_of(value, state)
        return labels
    if isinstance(expr, ast.UnaryOp):
        return taint_of(expr.operand, state)
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        labels = frozenset()
        for element in expr.elts:
            labels |= taint_of(element, state)
        return labels
    if isinstance(expr, ast.Dict):
        labels = frozenset()
        for key in expr.keys:
            if key is not None:
                labels |= taint_of(key, state)
        for value in expr.values:
            labels |= taint_of(value, state)
        return labels
    if isinstance(expr, ast.IfExp):
        return taint_of(expr.body, state) | taint_of(expr.orelse, state)
    if isinstance(expr, ast.JoinedStr):
        labels = frozenset()
        for value in expr.values:
            if isinstance(value, ast.FormattedValue):
                labels |= taint_of(value.value, state)
        return labels
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        labels = frozenset()
        for generator in expr.generators:
            labels |= taint_of(generator.iter, state)
        return labels
    if isinstance(expr, ast.Slice):
        labels = frozenset()
        for part in (expr.lower, expr.upper, expr.step):
            if part is not None:
                labels |= taint_of(part, state)
        return labels
    return frozenset()


def _sanitize_by_test(test: ast.expr, positive: bool, state: frozenset):
    """Drop a tainted name's labels when a test range-checks it.

    A relational comparison against untainted bounds counts on *both*
    edges (the surviving path of a ``raise``-guard is either one);
    membership in an untainted container counts on the edge where it
    holds; equality with a constant pins the value on its edge.
    """
    if not isinstance(test, ast.Compare) or not state:
        return state
    operands = [test.left] + list(test.comparators)
    ops = test.ops
    if all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in ops):
        edges_ok = True
    elif len(ops) == 1 and isinstance(ops[0], ast.In):
        edges_ok = positive
    elif len(ops) == 1 and isinstance(ops[0], ast.NotIn):
        edges_ok = not positive
    elif len(ops) == 1 and isinstance(ops[0], ast.Eq):
        edges_ok = positive and isinstance(test.comparators[0], ast.Constant)
    elif len(ops) == 1 and isinstance(ops[0], ast.NotEq):
        edges_ok = (not positive) and isinstance(test.comparators[0], ast.Constant)
    else:
        return state
    if not edges_ok:
        return state
    names = [
        operand.id
        for operand in operands
        if isinstance(operand, ast.Name) and state_labels(state, operand.id)
    ]
    if len(names) != 1:
        return state  # comparing two tainted values proves nothing
    checked = names[0]
    for operand in operands:
        if isinstance(operand, ast.Name) and operand.id == checked:
            continue
        if taint_of(operand, state):
            return state  # the bound itself is attacker-controlled
    return _retag(state, checked, frozenset())


# -- per-function taint facts -------------------------------------------------


@dataclass(frozen=True)
class CallTaint:
    """Symbolic argument taint observed at one call site."""

    name: str
    callees: tuple
    line: int
    pos: tuple
    kw: tuple  # ((keyword, labels), ...) — hashable, order of appearance
    recv: frozenset

    def kw_labels(self, keyword: str) -> frozenset:
        for name, labels in self.kw:
            if name == keyword:
                return labels
        return frozenset()

    def labels_for_param(self, index: int, param_names: tuple) -> frozenset:
        if index < len(self.pos):
            return self.pos[index]
        if index < len(param_names):
            return self.kw_labels(param_names[index])
        return frozenset()


@dataclass(frozen=True)
class SinkHit:
    """One syntactic sink with the symbolic labels flowing into it."""

    kind: str  # "path" | "offset" | "index" | "rate"
    line: int
    labels: frozenset
    detail: str


@dataclass
class TaintFacts:
    """Frozen intraprocedural groundwork for the summary fixpoint."""

    converged: bool = True
    param_names: tuple = ()
    return_labels: frozenset = frozenset()
    #: ``id(call node)`` -> :class:`CallTaint`.
    calls: dict = field(default_factory=dict)
    sinks: tuple = ()
    #: ``(call key, param index or None, keyword or None, line)`` of
    #: rate-valued arguments (for ``requires_unit_interval`` propagation).
    rate_args: tuple = ()


def gather_taint_facts(info: FunctionInfo, sites: list[CallSite]) -> TaintFacts:
    """One taint solve per function; everything later rounds need."""
    params = tuple(_positional_params(info.node))
    boundary = frozenset(
        (name, ("param", index)) for index, name in enumerate(params)
    )
    cfg = info.cfg()
    solution = solve(cfg, TaintProblem(boundary, info.source))
    if not solution.converged:
        return TaintFacts(converged=False, param_names=params)

    source = info.source
    assign_calls: dict[str, ast.Call] = {}
    for inner in source.walk_in_scope(info.node):
        if (
            isinstance(inner, ast.Assign)
            and len(inner.targets) == 1
            and isinstance(inner.targets[0], ast.Name)
            and isinstance(inner.value, ast.Call)
        ):
            assign_calls.setdefault(inner.targets[0].id, inner.value)

    site_by_call = {id(site.node): site for site in sites}
    calls: dict[int, CallTaint] = {}
    sinks: list[SinkHit] = []
    rate_args: list[tuple] = []
    return_labels: set = set()

    def record_item(item, state) -> None:
        for call in calls_in_item(source, item):
            _record_call(call, state, site_by_call, calls, rate_args)
        for root in item_roots(item):
            _record_sinks_under(source, root, state, assign_calls, sinks)
        if isinstance(item, ast.Return) and item.value is not None:
            return_labels.update(taint_of(item.value, state))

    for block in cfg.blocks:
        state = solution.state_into(block)
        for item in block.body:
            record_item(item, state)
            state = solution.problem.transfer_item(item, state)
        if block.test is not None:
            for call in calls_in_item(source, block.test):
                _record_call(call, state, site_by_call, calls, rate_args)

    return TaintFacts(
        converged=True,
        param_names=params,
        return_labels=frozenset(return_labels),
        calls=calls,
        sinks=tuple(sinks),
        rate_args=tuple(rate_args),
    )


def _record_call(call, state, site_by_call, calls, rate_args) -> None:
    key = id(call)
    if key in calls:
        return
    site = site_by_call.get(key)
    name = site.name if site is not None else call_name(call)
    recv = frozenset()
    if isinstance(call.func, ast.Attribute):
        recv = taint_of(call.func.value, state)
    taint = CallTaint(
        name=name,
        callees=site.callees if site is not None else (),
        line=call.lineno,
        pos=tuple(taint_of(arg, state) for arg in call.args),
        kw=tuple(
            (keyword.arg, taint_of(keyword.value, state))
            for keyword in call.keywords
            if keyword.arg is not None
        ),
        recv=recv,
    )
    # repro-lint: ignore[RL004] caller-owned accumulator, filled per site
    calls[key] = taint
    tail = name.rsplit(".", 1)[-1] if name else ""
    if tail in SET_RATE_TAILS and call.args:
        rate_args.append((key, len(call.args) - 1, None, call.lineno))
    for keyword in call.keywords:
        if keyword.arg in RATE_KEYWORDS:
            rate_args.append((key, None, keyword.arg, call.lineno))


#: Call tails whose argument at the given position is a file/buffer offset.
_OFFSET_ARG_TAILS = {"seek": 0, "unpack_from": 1}
#: Numpy-ish constructors: subscripts of their results are array indexing.
_ARRAY_CALL_TAILS = {"frombuffer", "zeros", "empty", "ones", "arange", "array"}


def _record_sinks_under(source, root, state, assign_calls, sinks) -> None:
    for node in source.walk_in_scope(root):
        if isinstance(node, ast.Call):
            name = call_name(node)
            tail = name.rsplit(".", 1)[-1] if name else ""
            position = _OFFSET_ARG_TAILS.get(tail)
            if position is not None and position < len(node.args):
                _add_sink(sinks, "offset", node, node.args[position], state,
                          f"{tail}() offset")
            for keyword in node.keywords:
                if keyword.arg == "offset":
                    _add_sink(sinks, "offset", node, keyword.value, state,
                              f"{tail}(offset=...)")
            if name in ("open", "os.open") and node.args:
                _add_sink(sinks, "path", node, node.args[0], state, f"{name}()")
            elif tail == "join" and name.endswith("path.join"):
                for arg in node.args:
                    _add_sink(sinks, "path", node, arg, state, "os.path.join()")
            elif tail == "Path":
                for arg in node.args:
                    _add_sink(sinks, "path", node, arg, state, "Path()")
            if tail in SET_RATE_TAILS and node.args:
                _add_sink(sinks, "rate", node, node.args[-1], state, f"{tail}()")
            for keyword in node.keywords:
                if keyword.arg in RATE_KEYWORDS:
                    _add_sink(sinks, "rate", node, keyword.value, state,
                              f"{tail}({keyword.arg}=...)")
        elif isinstance(node, ast.Subscript):
            base = node.value
            if not isinstance(base, ast.Name):
                continue
            origin = assign_calls.get(base.id)
            if origin is None:
                continue
            origin_tail = call_name(origin).rsplit(".", 1)[-1]
            if origin_tail not in _ARRAY_CALL_TAILS:
                continue
            if isinstance(node.slice, ast.Constant):
                continue
            _add_sink(sinks, "index", node, node.slice, state,
                      f"{base.id}[...] fancy index")


def _add_sink(sinks, kind, node, expr, state, detail) -> None:
    labels = taint_of(expr, state)
    if labels:
        sinks.append(SinkHit(kind=kind, line=node.lineno, labels=labels,
                             detail=detail))


# -- label resolution against summaries ---------------------------------------


def is_wire_source(name: str) -> bool:
    if name in WIRE_SOURCE_NAMES:
        return True
    tail = name.rsplit(".", 1)[-1] if name else ""
    if tail in WIRE_SOURCE_TAILS:
        return True
    return any(name.endswith(suffix) for suffix in WIRE_SOURCE_SUFFIXES)


def resolve_labels(
    labels: frozenset,
    facts: TaintFacts,
    summary_of,
    params_of,
    memo: dict | None = None,
) -> frozenset:
    """Expand symbolic labels to concrete ``"wire"`` / ``("param", i)``.

    ``summary_of(function_id)`` and ``params_of(function_id)`` look up the
    current round's callee summaries; ``memo`` caches per-site expansions
    within one resolution session (an in-progress site — a call reached
    through its own argument labels inside a loop — contributes nothing,
    the least-fixpoint under-approximation).
    """
    if memo is None:
        memo = {}
    resolved: set = set()
    for label in labels:
        if label == WIRE or (isinstance(label, tuple) and label[0] == "param"):
            resolved.add(label)
        elif isinstance(label, tuple) and label[0] == "call":
            resolved |= _resolve_call_label(
                label[1], facts, summary_of, params_of, memo
            )
    return frozenset(resolved)


def _resolve_call_label(key, facts, summary_of, params_of, memo) -> frozenset:
    cached = memo.get(key)
    if cached is not None:
        return cached
    if key in memo:  # in progress (value None): cycle through a loop
        return frozenset()
    # repro-lint: ignore[RL004] memo is the shared per-session cache
    memo[key] = None
    taint = facts.calls.get(key)
    result: frozenset = frozenset()
    if taint is not None:
        tail = taint.name.rsplit(".", 1)[-1] if taint.name else ""
        if is_wire_source(taint.name):
            result = frozenset({WIRE})
        elif tail in SANITIZER_TAILS:
            result = frozenset()
        else:
            collected: set = set()
            resolved_any = False
            for callee_id in taint.callees:
                summary = summary_of(callee_id)
                if summary is None:
                    continue
                resolved_any = True
                collected |= summary.returns_taint
                callee_params = params_of(callee_id)
                for index in summary.taint_param_to_return:
                    collected |= resolve_labels(
                        taint.labels_for_param(index, callee_params),
                        facts,
                        summary_of,
                        params_of,
                        memo,
                    )
            if not resolved_any and tail in PROPAGATING_TAILS:
                collected |= resolve_labels(
                    taint.recv, facts, summary_of, params_of, memo
                )
            result = frozenset(collected)
    # repro-lint: ignore[RL004] memo is the shared per-session cache
    memo[key] = result
    return result
