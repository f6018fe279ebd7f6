"""RL011 — lock ordering and lock hazards that appear through call chains.

RL007 sees one method at a time: its guarded accesses stop at the call
boundary.  This rule composes the per-method lockset facts along the call
graph via function summaries, catching three shapes:

* **deadlock cycles** — two methods taking the same two locks in opposite
  orders, directly (``with self._a_lock: with self._b_lock:``) or because
  ``A`` acquires ``self._a_lock`` and then calls a helper that
  (transitively) acquires ``self._b_lock``.  The intra-method order edges
  and the edges from *calls under a held lock* form one global graph over
  qualified ``module.Class.lock`` names.  An intra-method edge on a cycle is
  reported once per (held, acquired) pair, except in a constructor (no
  second thread can hold an object's locks before it is built); a
  call-chain edge once per pair of locks.
* **self-deadlock re-acquisition** — calling a method that acquires a
  non-reentrant ``threading.Lock`` the caller already holds.  The thread
  blocks on itself; no second thread needed.
* **unheld ``*_locked`` helpers** — the naming convention promises "caller
  holds the lock", and RL007 therefore skips those helpers' guarded
  accesses.  This rule closes the loophole: every call site of a
  ``*_locked`` method is checked against the must-lockset actually held
  there, with the requirement propagated through intermediate ``*_locked``
  callers.

Findings carry ``metadata["call_chain"]`` (rendered by the SARIF reporter
as ``codeFlows``) so the reviewer sees the path, not just the endpoint.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import (
    ProjectChecker,
    call_chain_metadata,
    call_name,
    is_self_attribute,
    register,
)
from repro.analysis.callgraph import Project
from repro.analysis.findings import Finding
from repro.analysis.lockset import (
    CONSTRUCTORS,
    analyze_method_locksets,
    lock_attributes,
)
from repro.analysis.summaries import SummaryIndex


@register
class InterproceduralLockChecker(ProjectChecker):
    code = "RL011"
    name = "interprocedural-lock-order"
    summary = (
        "lock-order deadlock cycle, self-deadlock re-acquisition, or unheld "
        "*_locked helper"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        yield from self._check_order_cycles(project, summaries)
        yield from self._check_reacquisition(project, summaries)
        yield from self._check_locked_helpers(project, summaries)

    # -- deadlock cycles over the merged order graph --------------------------

    def _check_order_cycles(
        self, project: Project, summaries: SummaryIndex
    ) -> Iterator[Finding]:
        graph = project.graph
        edges: list[dict] = []

        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            if info.class_node is None:
                continue
            locks = lock_attributes(info.source, info.class_node)
            if not locks:
                continue
            qualify = _qualifier(info)
            model = analyze_method_locksets(info.cfg(), locks)
            for order in model.order_edges:
                edges.append(
                    {
                        "held": qualify(order.held),
                        "acquired": qualify(order.acquired),
                        "function": function_id,
                        "node": order.node,
                        "chain": ((function_id, order.node.lineno),),
                        "local": order,
                    }
                )

            summary = summaries.get(function_id)
            if summary is None:
                continue
            for site in summary.held_calls:
                if not site.held:
                    continue
                for callee_id in site.callees:
                    callee = summaries.get(callee_id)
                    if callee is None:
                        continue
                    for acquired in sorted(callee.locks_acquired_transitive):
                        held_qualified = {qualify(h) for h in site.held}
                        if acquired in held_qualified:
                            continue  # re-acquisition, handled separately
                        tail = callee.acquire_witness.get(acquired, ())
                        for held in sorted(held_qualified):
                            edges.append(
                                {
                                    "held": held,
                                    "acquired": acquired,
                                    "function": function_id,
                                    "node": site.node,
                                    "chain": ((function_id, site.line),)
                                    + tail,
                                    "local": None,
                                }
                            )

        adjacency: dict[str, set[str]] = {}
        for edge in edges:
            adjacency.setdefault(edge["held"], set()).add(edge["acquired"])

        def reaches(start: str, goal: str) -> bool:
            seen: set[str] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node == goal:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            return False

        # An intra-method cycle is reported at each of its opposite-order
        # sites, a call-chain cycle once per lock pair.
        reported: set[tuple[str, str, bool]] = set()
        for edge in edges:
            info = project.graph.functions[edge["function"]]
            local = edge["local"]
            if local is not None and info.name in CONSTRUCTORS:
                continue
            key = (edge["held"], edge["acquired"], local is None)
            if key in reported or (
                local is None and (key[1], key[0], True) in reported
            ):
                continue
            if not reaches(edge["acquired"], edge["held"]):
                continue
            reported.add(key)
            if local is not None:
                message = (
                    f"'self.{local.acquired}' is acquired while "
                    f"'self.{local.held}' is held in '{info.qualname}', but "
                    "the class also acquires these locks in the opposite "
                    "order — a lock-ordering cycle that can deadlock."
                )
                suggestion = (
                    "pick one global acquisition order for the class's locks "
                    "(document it next to their definitions) or merge the "
                    "critical sections."
                )
            else:
                message = (
                    f"'{info.qualname}' holds '{edge['held']}' while a call "
                    f"chain acquires '{edge['acquired']}', but the order "
                    "graph also lets the locks be taken in the opposite "
                    "order — a two-thread deadlock."
                )
                suggestion = (
                    "pick one global acquisition order for the two locks and "
                    "restructure the chain that violates it."
                )
            yield self.finding_in(
                project,
                info,
                edge["node"],
                message,
                suggestion,
                metadata={
                    "held": edge["held"],
                    "acquired": edge["acquired"],
                    "call_chain": call_chain_metadata(project, edge["chain"]),
                },
            )

    # -- self-deadlock: re-acquiring a held non-reentrant lock ----------------

    def _check_reacquisition(
        self, project: Project, summaries: SummaryIndex
    ) -> Iterator[Finding]:
        graph = project.graph
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            summary = summaries.get(function_id)
            if summary is None or info.class_node is None:
                continue
            plain = _non_reentrant_locks(info.source, info.class_node)
            if not plain:
                continue
            qualify = _qualifier(info)
            for site in summary.held_calls:
                held_plain = {
                    qualify(lock): lock
                    for lock in site.held
                    if lock in plain
                }
                if not held_plain:
                    continue
                for callee_id in site.callees:
                    callee = summaries.get(callee_id)
                    if callee is None:
                        continue
                    for qualified, local in sorted(held_plain.items()):
                        if qualified not in callee.locks_acquired_transitive:
                            continue
                        chain = ((function_id, site.line),) + tuple(
                            callee.acquire_witness.get(qualified, ())
                        )
                        yield self.finding_in(
                            project,
                            info,
                            site.node,
                            f"'{info.qualname}' calls '{site.name}' while "
                            f"holding 'self.{local}', and the callee "
                            f"(transitively) re-acquires it — 'threading."
                            "Lock' is not reentrant, so the thread deadlocks "
                            "on itself.",
                            f"release 'self.{local}' before the call, use "
                            "the callee's '*_locked' variant, or make the "
                            "lock an RLock deliberately.",
                            metadata={
                                "lock": qualified,
                                "call_chain": call_chain_metadata(
                                    project, chain
                                ),
                            },
                        )

    # -- *_locked helpers called without the lock -----------------------------

    def _check_locked_helpers(
        self, project: Project, summaries: SummaryIndex
    ) -> Iterator[Finding]:
        graph = project.graph
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            summary = summaries.get(function_id)
            if summary is None:
                continue
            if info.name in CONSTRUCTORS or info.name.endswith("_locked"):
                continue  # exempt callers: summaries propagate through them
            for site in summary.held_calls:
                for callee_id in site.callees:
                    callee = summaries.get(callee_id)
                    if callee is None or not callee.locks_required:
                        continue
                    if not _same_class(graph, function_id, callee_id):
                        continue
                    for lock in sorted(callee.locks_required - site.held):
                        chain = ((function_id, site.line),) + tuple(
                            callee.required_witness.get(lock, ())
                        )
                        yield self.finding_in(
                            project,
                            info,
                            site.node,
                            f"'{info.qualname}' calls '{site.name}', which "
                            f"touches state guarded by 'self.{lock}', but "
                            "the lockset at this call does not include it.",
                            f"wrap the call in 'with self.{lock}:' or hoist "
                            "it into a region that already holds the lock.",
                            metadata={
                                "lock": lock,
                                "call_chain": call_chain_metadata(
                                    project, chain
                                ),
                            },
                        )


def _qualifier(info):
    owner = info.class_name or info.qualname
    prefix = f"{info.module}.{owner}."

    def qualify(lock: str) -> str:
        return prefix + lock

    return qualify


def _same_class(graph, caller_id: str, callee_id: str) -> bool:
    caller = graph.functions[caller_id]
    callee = graph.functions[callee_id]
    return (
        caller.class_node is not None
        and caller.class_node is callee.class_node
    )


_PLAIN_LOCK_FACTORIES = {"threading.Lock", "Lock"}


def _non_reentrant_locks(source, class_node: ast.ClassDef) -> set:
    """Lock attributes assigned from plain ``threading.Lock()`` factories."""
    plain: set = set()
    for method in class_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name not in CONSTRUCTORS:
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if call_name(node.value) not in _PLAIN_LOCK_FACTORIES:
                continue
            for target in node.targets:
                if is_self_attribute(target):
                    plain.add(target.attr)
    return plain & lock_attributes(source, class_node)
