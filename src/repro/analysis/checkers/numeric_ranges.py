"""RL016 — damping/transfer-rate provably out of range at a call site.

The paper's ranking guarantees hold only inside tight numeric ranges: the
damping factor ``d`` lives in the *open* unit interval (``d = 1.0`` never
converges, ``d = 0.0`` ignores the graph entirely), transfer rates in
``[0, 1]`` (Eq. 2's normalization), and convergence epsilons must be
strictly positive (Theorem 1's rate invariant).  This rule evaluates the
**interval** of whatever expression actually feeds a rate-valued position,
through constant propagation, arithmetic, branch refinement and (via the
summary fixpoint) the return ranges of resolved callees.

A finding means the entire interval lies **outside** the valid range — a
proof of misuse, not a heuristic: ``d = 1.0`` passed as ``damping=``,
``eps - eps`` as ``epsilon=``, a rate computed as ``1.0 + bonus`` with
``bonus ≥ 0``.  Values the analysis cannot bound stay quiet (⊤ overlaps
every range), preserving the suite's no-false-positives discipline.

Two shapes:

* a **direct rate position** — ``set_rate(..., x)`` /
  ``set_default_rate(x)`` positional tails, the rates dict of
  ``AuthorityTransferSchemaGraph(schema, {...})``, the vector of
  ``with_vector([...])`` and the ``rates=`` / ``default_rate=`` / ``rate=``
  / ``epsilon=`` / ``damping=`` keywords.  A dict literal is judged by its
  values, a list/tuple/set literal by its elements;
* an argument to a resolved callee that (per its summary's
  ``requires_unit_interval``) forwards the parameter into a rate position
  — the witness chain down to the sink lands in ``metadata["call_chain"]``.

A transfer rate above 1 is allowed in a function that also calls
``scaled_to_convergent`` or ``is_convergent``: an outgoing rate can exceed 1
on its way into the normalization that repairs it (Section 5.2).
"""

from __future__ import annotations

import ast
import math
from typing import Iterator

from repro.analysis.absint import (
    RATE_KEYWORDS,
    SET_RATE_TAILS,
    ValueProblem,
    states_before_items,
)
from repro.analysis.base import ProjectChecker, call_chain_metadata, register
from repro.analysis.callgraph import (
    FunctionInfo,
    Project,
    calls_in_item,
)
from repro.analysis.dataflow import solve
from repro.analysis.domains import UNIT, Interval
from repro.analysis.findings import Finding

#: keyword -> the interval a value in that position must stay inside.
_VALID_RANGES = {
    "damping": Interval(0.0, 1.0, True, True),
    "rate": UNIT,
    "rates": UNIT,
    "default_rate": UNIT,
    "epsilon": Interval(0.0, math.inf, True, False),
}

#: Transfer-rate kinds; a value above 1 of these is repairable by normalizing.
_RATE_KINDS = {"rate", "rates", "default_rate"}

#: Call tail -> index of a positional argument holding rates.
_POSITIONAL_RATES = {"AuthorityTransferSchemaGraph": 1, "with_vector": 0}

#: Calls that repair (or check) rates whose outgoing sum exceeds 1.
_NORMALIZERS = {"scaled_to_convergent", "is_convergent"}

_RANGE_TEXT = {
    "damping": "the open interval (0, 1)",
    "rate": "[0, 1]",
    "rates": "[0, 1]",
    "default_rate": "[0, 1]",
    "epsilon": "(0, +inf)",
}


@register
class NumericRangeChecker(ProjectChecker):
    code = "RL016"
    name = "rate-out-of-range"
    summary = (
        "damping/rate/epsilon argument whose interval is provably outside "
        "its valid range"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        graph = project.graph
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            sites = graph.calls.get(function_id, [])
            site_by_call = {id(site.node): site for site in sites}
            if not self._worth_solving(sites, summaries):
                continue
            solution = self._solve(info, site_by_call, summaries)
            if not solution.converged:
                continue
            normalizes = any(_tail(site.name) in _NORMALIZERS for site in sites)
            yield from self._check_function(
                project, info, function_id, solution, site_by_call, summaries,
                normalizes,
            )

    def _worth_solving(self, sites, summaries) -> bool:
        """Cheap syntactic gate: any rate-relevant call site at all?"""
        for site in sites:
            tail = _tail(site.name)
            if tail in SET_RATE_TAILS or tail in _POSITIONAL_RATES:
                return True
            if any(
                keyword.arg in RATE_KEYWORDS
                for keyword in site.node.keywords
            ):
                return True
            for callee_id in site.callees:
                summary = summaries.get(callee_id)
                if summary is not None and summary.requires_unit_interval:
                    return True
        return False

    def _solve(self, info: FunctionInfo, site_by_call, summaries):
        def call_ranges(call: ast.Call):
            site = site_by_call.get(id(call))
            if site is None:
                return None
            result = None
            for callee_id in site.callees:
                summary = summaries.get(callee_id)
                if summary is None or summary.return_range is None:
                    return None  # one unbounded target spoils the join
                result = (
                    summary.return_range
                    if result is None
                    else result.join(summary.return_range)
                )
            return result

        return solve(info.cfg(), ValueProblem(call_ranges=call_ranges))

    def _check_function(
        self, project, info, function_id, solution, site_by_call, summaries,
        normalizes,
    ) -> Iterator[Finding]:
        problem = solution.problem
        seen: set[int] = set()
        for block in info.cfg().blocks:
            pairs, test_state = states_before_items(solution, block)
            if block.test is not None:
                pairs = pairs + [(block.test, test_state)]
            for item, state in pairs:
                if state is None:
                    continue  # unreachable program point
                for call in calls_in_item(item):
                    if id(call) in seen:
                        continue
                    seen.add(id(call))
                    yield from self._check_call(
                        project,
                        info,
                        function_id,
                        call,
                        state,
                        problem,
                        site_by_call,
                        summaries,
                        normalizes,
                    )

    def _check_call(
        self,
        project,
        info,
        function_id,
        call: ast.Call,
        state,
        problem: ValueProblem,
        site_by_call,
        summaries,
        normalizes: bool,
    ) -> Iterator[Finding]:
        name = (
            site_by_call[id(call)].name
            if id(call) in site_by_call
            else ""
        )
        tail = _tail(name)
        if tail in SET_RATE_TAILS and call.args:
            yield from self._judge(
                project, info, call, call.args[-1], "rate",
                f"{tail}()", state, problem, (), normalizes,
            )
        position = _POSITIONAL_RATES.get(tail)
        if position is not None and position < len(call.args):
            yield from self._judge(
                project, info, call, call.args[position], "rates",
                f"{tail}()", state, problem, (), normalizes,
            )
        for keyword in call.keywords:
            if keyword.arg in _VALID_RANGES:
                yield from self._judge(
                    project, info, call, keyword.value, keyword.arg,
                    f"{tail or 'call'}({keyword.arg}=...)", state, problem, (),
                    normalizes,
                )
        site = site_by_call.get(id(call))
        if site is None:
            return
        for callee_id in site.callees:
            summary = summaries.get(callee_id)
            if summary is None or not summary.requires_unit_interval:
                continue
            callee_info = project.graph.functions.get(callee_id)
            params = (
                _positional_param_names(callee_info.node)
                if callee_info is not None
                else []
            )
            for index in sorted(summary.requires_unit_interval):
                arg = _argument_at(call, index, params)
                if arg is None:
                    continue
                chain = (
                    (function_id, call.lineno),
                ) + summary.unit_interval_witness.get(index, ())
                yield from self._judge(
                    project, info, call, arg, "rate",
                    f"{site.name}() (forwards into a rate position)",
                    state, problem, chain, normalizes,
                )

    def _judge(
        self, project, info, call, expr, kind, where, state, problem, chain,
        normalizes,
    ) -> Iterator[Finding]:
        valid = _VALID_RANGES[kind]
        for value in _rate_values(expr):
            interval = problem.eval(value, state)
            if interval.is_top() or interval.meet(valid) is not None:
                continue
            if normalizes and kind in _RATE_KINDS and interval.lo >= 1.0:
                continue
            metadata = {"kind": kind, "interval": repr(interval)}
            if chain:
                metadata["call_chain"] = call_chain_metadata(project, chain)
            yield self.finding_in(
                project,
                info,
                value if hasattr(value, "lineno") else call,
                f"this {kind} argument to {where} is provably "
                f"{interval!r}, entirely outside the valid range "
                f"{_RANGE_TEXT[kind]} — the ranking invariants the paper "
                "proves do not hold for it.",
                f"keep the value inside {_RANGE_TEXT[kind]} (or normalize it "
                "before the call).",
                metadata=metadata,
            )


def _tail(name: str) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def _rate_values(expr: ast.expr) -> list[ast.expr]:
    """The expressions a rate position holds: dict values, literal elements."""
    if isinstance(expr, ast.Dict):
        return [v for value in expr.values for v in _rate_values(value)]
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        return [v for element in expr.elts for v in _rate_values(element)]
    return [expr]


def _positional_param_names(node) -> list[str]:
    params = list(node.args.posonlyargs) + list(node.args.args)
    if params and params[0].arg in ("self", "cls"):
        params = params[1:]
    return [arg.arg for arg in params]


def _argument_at(call: ast.Call, index: int, params: list[str]):
    if index < len(call.args):
        return call.args[index]
    if index < len(params):
        for keyword in call.keywords:
            if keyword.arg == params[index]:
                return keyword.value
    return None
