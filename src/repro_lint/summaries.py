"""Bottom-up function summaries over the project call graph.

One :class:`FunctionSummary` per ``def``, computed from the existing
CFG/dataflow machinery (PR 5) and composed along the call graph in SCC
order — the same summary-propagation shape as the paper's authority-flow
fixpoint, lifted from score vectors to program facts.  Summaries of callees
outside a strongly connected component are final before the component is
processed; members of one SCC (recursion, mutual recursion) iterate to a
local fixpoint, which terminates because every summary field is a finite
set growing monotonically.

What a summary carries (the facts RL010 and RL013 consume):

* **locks** — which instance locks are *held* at each call site (from the
  must-lockset analysis);
* **blocking** — whether the function may block: a direct primitive
  (``time.sleep``, ``subprocess.run``, socket/file I/O) or a
  residual-testing fixpoint loop, or any resolved callee that may block;
  with a witness chain for reporting;
* **resources** — whether the function returns a freshly acquired
  file/mmap/socket (so callers inherit ownership) and which of its
  parameters it reliably releases (so passing a resource to it counts as a
  release, not an escape);
* **exceptions** — exception names raised directly and the transitive
  propagated set (an over-approximation: handlers are not subtracted).

Value ranges and wire taint are not summarised: the value domain is
intraprocedural (:func:`repro_lint.absint.value_solution`), and wire input
is typed where it enters (``repro.serve.http_server``).

Unknown callees contribute nothing: every fact here is a *may* fact whose
absence keeps a checker quiet, so unresolved calls under-approximate and
never invent findings (RL010's escape analysis handles ownership transfer
to unknown callees separately, at the call site).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro_lint.base import call_name
from repro_lint.callgraph import (
    CallSite,
    FunctionInfo,
    Project,
    calls_in_function,
    calls_in_item,
)
from repro_lint.lockset import analyze_method_locksets, lock_attributes

#: Hard cap on fixpoint rounds inside one SCC — the lattice is finite so
#: real projects converge in 2–3 rounds; the cap only guards a logic bug.
MAX_SCC_ROUNDS = 50

#: Calls that block the calling thread, by exact dotted name.
BLOCKING_CALLS = {
    "time.sleep",
    "sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "select.select",
    "socket.create_connection",
    "urllib.request.urlopen",
    "urlopen",
    "open",
    "os.open",
    "os.fdopen",
    "mmap.mmap",
}

#: Attribute tails that block regardless of receiver (socket/path/event I/O).
BLOCKING_TAILS = {
    "accept",
    "recv",
    "recvfrom",
    "sendall",
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "wait",
}

#: Acquisition primitives RL010 tracks, dotted name -> resource kind.
ACQUIRE_CALLS = {
    "open": "file",
    "os.fdopen": "file",
    "mmap.mmap": "mmap",
    "socket.socket": "socket",
    "socket.create_server": "socket",
    "socket.create_connection": "socket",
    "tempfile.NamedTemporaryFile": "file",
    "tempfile.TemporaryFile": "file",
}

@dataclass(frozen=True)
class HeldCall:
    """One call site with the lockset certainly held when it executes."""

    node: ast.Call
    name: str
    callees: tuple[str, ...]
    #: Local lock attribute names (``_lock``) held at the call.
    held: frozenset
    line: int
    #: Whether the call itself is a blocking primitive.
    blocking: bool = False


#: One step of a witness chain: (function id, line in that function).
ChainStep = tuple[str, int]


@dataclass
class FunctionSummary:
    """Everything the interprocedural checkers know about one function."""

    function: str
    held_calls: tuple = ()
    #: (description, line) of direct blocking primitive calls.
    blocking_sites: tuple = ()
    has_fixpoint_loop: bool = False
    fixpoint_line: int = 0
    may_block: bool = False
    #: Chain to the first blocking witness; last step names the primitive.
    blocking_chain: tuple = ()
    blocking_reason: str = ""
    #: Resource kind the return value carries fresh ownership of, if any.
    returns_resource: str | None = None
    #: Parameter names this function reliably releases on every path it
    #: controls (``.close()``, ``with param:``, or a releasing callee).
    releases_params: frozenset = frozenset()
    #: Exception names raised by ``raise`` statements in the body.
    raises: frozenset = frozenset()
    #: Transitive raised set (handlers not subtracted — over-approximate).
    propagates: frozenset = frozenset()


class SummaryIndex:
    """Summaries by function id, plus fixpoint accounting for the tests."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.by_id: dict[str, FunctionSummary] = {}
        #: Rounds each SCC took to converge (property-tested to stay small).
        self.scc_rounds: list[int] = []
        self.converged: bool = True

    def get(self, function_id: str) -> FunctionSummary | None:
        return self.by_id.get(function_id)

    def __getitem__(self, function_id: str) -> FunctionSummary:
        return self.by_id[function_id]

    def __contains__(self, function_id: str) -> bool:
        return function_id in self.by_id

    def __len__(self) -> int:
        return len(self.by_id)


# -- direct (intraprocedural) facts -------------------------------------------


@dataclass
class _Facts:
    """Per-function groundwork shared by the summary fixpoint rounds."""

    site_by_call: dict
    held_calls: list
    blocking_sites: list
    has_fixpoint_loop: bool
    fixpoint_line: int
    raises: frozenset
    param_names: tuple
    direct_releases: set
    #: (callee ids, [(position, param name passed)]) for release closure.
    release_calls: list
    #: var -> first call assigned to it (returns-resource resolution).
    assign_calls: dict
    return_stmts: list


def _gather_facts(info: FunctionInfo, sites: list[CallSite]) -> _Facts:
    node = info.node
    source = info.source
    site_by_call = {id(site.node): site for site in sites}
    locks = (
        lock_attributes(source, info.class_node)
        if info.class_node is not None
        else frozenset()
    )

    held_calls: list[HeldCall] = []
    if locks:
        model = analyze_method_locksets(source, node, locks)
        for _block, item, state in model.held_at_items():
            if state is None:
                continue  # unreachable: the call never executes
            for call in calls_in_item(source, item):
                held_calls.append(_held_call(call, site_by_call, state))
        for block in model.cfg.blocks:
            if block.test is None:
                continue
            # the test runs after the body: the block's out-state
            state = model.solution.state_out_of(block)
            if state is None:
                continue
            for call in calls_in_item(source, block.test):
                held_calls.append(_held_call(call, site_by_call, state))
    else:
        for call in calls_in_function(source, node):
            held_calls.append(_held_call(call, site_by_call, frozenset()))

    fixpoint_line = _find_fixpoint_loop(source, node)
    raises = frozenset(_raised_names(source, node))
    param_names = tuple(arg.arg for arg in _positional_params(node))
    direct_releases, release_calls = _param_releases(
        source, node, param_names, site_by_call
    )

    assign_calls: dict[str, ast.Call] = {}
    return_stmts: list[ast.Return] = []
    for inner in source.walk_in_scope(node):
        if (
            isinstance(inner, ast.Assign)
            and len(inner.targets) == 1
            and isinstance(inner.targets[0], ast.Name)
            and isinstance(inner.value, ast.Call)
        ):
            assign_calls.setdefault(inner.targets[0].id, inner.value)
        elif isinstance(inner, ast.Return) and inner.value is not None:
            return_stmts.append(inner)

    return _Facts(
        site_by_call=site_by_call,
        held_calls=held_calls,
        blocking_sites=[
            (call.name, call.line) for call in held_calls if call.blocking
        ],
        has_fixpoint_loop=fixpoint_line > 0,
        fixpoint_line=fixpoint_line,
        raises=raises,
        param_names=param_names,
        direct_releases=direct_releases,
        release_calls=release_calls,
        assign_calls=assign_calls,
        return_stmts=return_stmts,
    )


def _held_call(
    call: ast.Call, site_by_call: dict, held: frozenset
) -> HeldCall:
    site = site_by_call.get(id(call))
    name = site.name if site is not None else call_name(call)
    return HeldCall(
        node=call,
        name=name,
        callees=site.callees if site is not None else (),
        held=held,
        line=call.lineno,
        blocking=is_blocking_call(call, name, held),
    )


def is_blocking_call(call: ast.Call, name: str, held: frozenset) -> bool:
    """Whether this call is a known blocking primitive.

    ``self.<cond>.wait()`` where ``<cond>`` is itself a *held* lock is the
    condition-variable idiom — waiting releases the lock — so it is exempt.
    """
    if name in BLOCKING_CALLS:
        return True
    tail = name.rsplit(".", 1)[-1] if name else ""
    if tail not in BLOCKING_TAILS:
        return False
    if tail == "wait" and isinstance(call.func, ast.Attribute):
        receiver = call.func.value
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and receiver.attr in held
        ):
            return False
    return True


#: Names that smell like a convergence residual or tolerance.
_RESIDUAL_NAME = re.compile(
    r"(?:^|_)(residual|resid|tol|tolerance|eps|epsilon|delta|diff|difference|"
    r"err|error|change|gap|norm)(?:$|_|\d)",
    re.IGNORECASE,
)

#: Call targets whose result is residual-like when compared (``abs(x - y)``).
_RESIDUAL_CALLS = {"abs"}

_COMPARISONS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def is_fixpoint_while(source, node: ast.While) -> bool:
    """Whether a ``while`` is a residual-testing fixpoint loop: its test
    orders a residual/tolerance-named value, or it is a ``while True``
    whose body breaks on such a test."""
    residual = _residual_compare_in(source, node.test)
    if residual is None and _is_while_true(node.test):
        residual = _residual_break_in(source, node.body)
    return residual is not None


def _is_while_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _residual_compare_in(source, expr: ast.expr) -> ast.Compare | None:
    """The first residual-style ordering comparison inside ``expr``."""
    for node in source.walk(expr):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], _COMPARISONS)
            and any(
                _is_residual_operand(side)
                for side in (node.left, node.comparators[0])
            )
        ):
            return node
    return None


def _residual_break_in(source, body: list[ast.stmt]) -> ast.Compare | None:
    """A residual comparison guarding a ``break`` in a ``while True`` body."""
    for stmt in body:
        for node in source.walk(stmt):
            if not isinstance(node, ast.If):
                continue
            compare = _residual_compare_in(source, node.test)
            if compare is None:
                continue
            if any(
                isinstance(inner, ast.Break)
                for branch_stmt in node.body
                for inner in source.walk(branch_stmt)
            ):
                return compare
    return None


def _is_residual_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return bool(_RESIDUAL_NAME.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_RESIDUAL_NAME.search(node.attr))
    if isinstance(node, ast.Call):
        name = call_name(node)
        short = name.rsplit(".", 1)[-1]
        return short in _RESIDUAL_CALLS or bool(_RESIDUAL_NAME.search(short))
    return False


def _find_fixpoint_loop(source, node) -> int:
    """Line of the first residual-testing ``while`` in the body, else 0."""
    for inner in source.walk_in_scope(node):
        if isinstance(inner, ast.While) and is_fixpoint_while(source, inner):
            return inner.lineno
    return 0


def _raised_names(source, node) -> list[str]:
    names = []
    for inner in source.walk_in_scope(node):
        if not isinstance(inner, ast.Raise) or inner.exc is None:
            continue
        exc = inner.exc
        if isinstance(exc, ast.Call):
            name = call_name(exc)
        elif isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = call_name(ast.Call(func=exc, args=[], keywords=[]))
        else:
            continue
        if name:
            names.append(name.rsplit(".", 1)[-1])
    return names


def _positional_params(node) -> list[ast.arg]:
    params = list(node.args.posonlyargs) + list(node.args.args)
    if params and params[0].arg in ("self", "cls"):
        params = params[1:]
    return params


RELEASE_TAILS = {"close"}
RELEASE_CALLS = {"os.close"}


def _param_releases(source, node, param_names: tuple, site_by_call: dict):
    """Directly released params + the call sites that may release more."""
    direct: set[str] = set()
    release_calls: list[tuple[tuple, list]] = []
    params = set(param_names)
    for inner in source.walk_in_scope(node):
        if isinstance(inner, (ast.With, ast.AsyncWith)):
            for item in inner.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id in params:
                    direct.add(expr.id)
                if (
                    isinstance(expr, ast.Call)
                    and call_name(expr).rsplit(".", 1)[-1] == "closing"
                    and expr.args
                    and isinstance(expr.args[0], ast.Name)
                    and expr.args[0].id in params
                ):
                    direct.add(expr.args[0].id)
        elif isinstance(inner, ast.Call):
            name = call_name(inner)
            if (
                isinstance(inner.func, ast.Attribute)
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id in params
                and inner.func.attr in RELEASE_TAILS
            ):
                direct.add(inner.func.value.id)
            elif (
                name in RELEASE_CALLS
                and inner.args
                and isinstance(inner.args[0], ast.Name)
                and inner.args[0].id in params
            ):
                direct.add(inner.args[0].id)
            else:
                site = site_by_call.get(id(inner))
                if site is not None and site.callees:
                    passed = [
                        (position, arg.id)
                        for position, arg in enumerate(inner.args)
                        if isinstance(arg, ast.Name) and arg.id in params
                    ]
                    if passed:
                        release_calls.append((site.callees, passed))
    return direct, release_calls


# -- the bottom-up fixpoint ----------------------------------------------------


def compute_summaries(project: Project) -> SummaryIndex:
    """Summaries for every function, SCC-ordered, fixpointed per SCC."""
    graph = project.graph
    index = SummaryIndex(project)
    facts: dict[str, _Facts] = {}
    for function_id in sorted(graph.functions):
        info = graph.functions[function_id]
        sites = graph.calls.get(function_id, [])
        facts[function_id] = _gather_facts(info, sites)
        index.by_id[function_id] = FunctionSummary(function=function_id)

    for component in graph.sccs():
        rounds = 0
        changed = True
        while changed and rounds < MAX_SCC_ROUNDS:
            changed = False
            rounds += 1
            for function_id in component:
                if _update_summary(function_id, facts, index.by_id):
                    changed = True
        index.scc_rounds.append(rounds)
        if changed:
            index.converged = False
    return index


def _update_summary(
    function_id: str, facts: dict, summaries: dict
) -> bool:
    """Recompute one function's summary from current callee summaries."""
    fact = facts[function_id]
    old = summaries[function_id]

    # The blocking chain is FROZEN at first discovery: inside an SCC, a
    # chain rebuilt every round can route through a member whose chain
    # routes back, prepending one step per round and never converging.  A
    # frozen chain stays a valid witness (its (function, line) steps don't
    # move), and freezing keeps every compared field monotone.
    may_block = bool(fact.blocking_sites) or fact.has_fixpoint_loop
    blocking_chain: tuple = ()
    blocking_reason = ""
    if fact.blocking_sites:
        name, line = fact.blocking_sites[0]
        blocking_chain = ((function_id, line),)
        blocking_reason = name
    elif fact.has_fixpoint_loop:
        blocking_chain = ((function_id, fact.fixpoint_line),)
        blocking_reason = "a residual-testing fixpoint loop"
    elif old.may_block:
        may_block = True
        blocking_chain = old.blocking_chain
        blocking_reason = old.blocking_reason

    releases = set(fact.direct_releases)
    for callee_ids, passed in fact.release_calls:
        for callee_id in callee_ids:
            callee = summaries.get(callee_id)
            if callee is None:
                continue
            callee_params = facts[callee_id].param_names if callee_id in facts else ()
            for position, param in passed:
                if (
                    position < len(callee_params)
                    and callee_params[position] in callee.releases_params
                ):
                    releases.add(param)

    propagates = set(fact.raises)

    for site in fact.held_calls:
        for callee_id in site.callees:
            callee = summaries.get(callee_id)
            if callee is None:
                continue
            propagates |= callee.propagates
            if callee.may_block and not may_block:
                may_block = True
                blocking_chain = ((function_id, site.line),) + callee.blocking_chain
                blocking_reason = callee.blocking_reason

    returns_resource = _returned_resource(fact, summaries)

    new = FunctionSummary(
        function=function_id,
        held_calls=tuple(fact.held_calls),
        blocking_sites=tuple(fact.blocking_sites),
        has_fixpoint_loop=fact.has_fixpoint_loop,
        fixpoint_line=fact.fixpoint_line,
        may_block=may_block,
        blocking_chain=blocking_chain,
        blocking_reason=blocking_reason,
        returns_resource=returns_resource,
        releases_params=frozenset(releases),
        raises=fact.raises,
        propagates=frozenset(propagates),
    )
    # Always store (held_calls and the other round-independent fields are
    # only present on the recomputed record); the change flag that drives
    # the SCC fixpoint considers the monotone fields alone.  The in-place
    # update IS the fixpoint: later functions in the SCC must see it.
    # repro-lint: ignore[RL004] shared accumulator across SCC rounds
    summaries[function_id] = new
    return not _fixpoint_fields_equal(old, new)


def _fixpoint_fields_equal(
    left: FunctionSummary, right: FunctionSummary
) -> bool:
    return (
        left.may_block == right.may_block
        and left.blocking_chain == right.blocking_chain
        and left.returns_resource == right.returns_resource
        and left.releases_params == right.releases_params
        and left.propagates == right.propagates
    )


def acquired_call_kind(
    call: ast.Call, site_by_call: dict, summaries: dict
) -> str | None:
    """Resource kind a call acquires: a primitive or a returning helper."""
    name = call_name(call)
    kind = ACQUIRE_CALLS.get(name)
    if kind is not None:
        return kind
    site = site_by_call.get(id(call))
    if site is not None:
        for callee_id in site.callees:
            summary = summaries.get(callee_id)
            if summary is not None and summary.returns_resource is not None:
                return summary.returns_resource
    return None


def _returned_resource(fact: _Facts, summaries: dict) -> str | None:
    for stmt in fact.return_stmts:
        value = stmt.value
        if isinstance(value, ast.Call):
            kind = acquired_call_kind(value, fact.site_by_call, summaries)
            if kind is not None:
                return kind
        elif isinstance(value, ast.Name):
            call = fact.assign_calls.get(value.id)
            if call is not None:
                kind = acquired_call_kind(call, fact.site_by_call, summaries)
                if kind is not None:
                    return kind
    return None
