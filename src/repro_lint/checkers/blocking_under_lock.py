"""RL013 — blocking work reachable while an instance lock is held.

The serve tier's locks fence microsecond-scale state: cache maps, staleness
flags, store generations.  Any thread that sleeps, forks a subprocess, hits
the filesystem/network, or runs a power-iteration fixpoint while holding
one stalls every request thread behind it — the latency cliff appears only
under load, never in unit tests.

Three shapes, all over the must-lockset of :mod:`repro_lint.lockset` so
conditionally-held locks are handled path-sensitively:

* a **blocking primitive called directly** under a held lock
  (``time.sleep``, ``subprocess.run``, ``open``, ``sock.accept``…);
* a **callee that may block**, transitively, via its summary — the witness
  call chain down to the primitive lands in ``metadata["call_chain"]``;
* a **residual-testing fixpoint loop**
  (:func:`repro_lint.summaries.is_fixpoint_while` — convergence solves
  are the most expensive thing this codebase does) in the region.

``self.<cond>.wait()`` on a held condition variable is exempt — waiting
*releases* the lock, that is the point of the idiom.  ``*_locked`` helpers
are still checked (their caller holds the lock by contract, which is
exactly why blocking inside them is a finding); constructors are not (no
concurrent aliases exist yet).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import ProjectChecker, call_chain_metadata, register
from repro_lint.callgraph import Project
from repro_lint.cfg import Header
from repro_lint.findings import Finding
from repro_lint.lockset import (
    CONSTRUCTORS,
    analyze_method_locksets,
    lock_attributes,
)
from repro_lint.summaries import SummaryIndex, is_fixpoint_while


@register
class BlockingUnderLockChecker(ProjectChecker):
    code = "RL013"
    name = "blocking-under-lock"
    summary = (
        "I/O, subprocess, sleep or fixpoint solve reachable while a lock "
        "is held"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        graph = project.graph
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            if info.name in CONSTRUCTORS:
                continue
            summary = summaries.get(function_id)
            if summary is None:
                continue
            yield from self._check_held_calls(
                project, info, function_id, summary, summaries
            )
            yield from self._check_fixpoint_regions(project, info)

    def _check_held_calls(
        self, project, info, function_id, summary, summaries: SummaryIndex
    ) -> Iterator[Finding]:
        for site in summary.held_calls:
            if not site.held:
                continue
            held = _describe_locks(site.held)
            if site.blocking:
                yield self.finding_in(
                    project,
                    info,
                    site.node,
                    f"'{site.name}' blocks while '{info.qualname}' holds "
                    f"{held}; every thread contending for the lock stalls "
                    "behind this call.",
                    "move the blocking work outside the 'with' block and "
                    "publish its result under the lock.",
                    metadata={
                        "locks": sorted(site.held),
                        "blocking": site.name,
                    },
                )
                continue
            for callee_id in site.callees:
                callee = summaries.get(callee_id)
                if callee is None or not callee.may_block:
                    continue
                chain = ((function_id, site.line),) + tuple(
                    callee.blocking_chain
                )
                yield self.finding_in(
                    project,
                    info,
                    site.node,
                    f"'{site.name}' may block (it reaches "
                    f"{callee.blocking_reason or 'blocking work'}) while "
                    f"'{info.qualname}' holds {held}.",
                    "hoist the call out of the locked region, or split the "
                    "callee so its blocking part runs unlocked.",
                    metadata={
                        "locks": sorted(site.held),
                        "blocking": callee.blocking_reason,
                        "call_chain": call_chain_metadata(project, chain),
                    },
                )
                break  # one finding per call site is enough

    def _check_fixpoint_regions(self, project, info) -> Iterator[Finding]:
        if info.class_node is None:
            return
        locks = lock_attributes(info.source, info.class_node)
        if not locks:
            return
        model = analyze_method_locksets(info.source, info.node, locks)
        reported: set = set()
        for _block, item, state in model.held_at_items():
            if not state or not isinstance(item, Header):
                continue
            stmt = item.stmt
            if not isinstance(stmt, ast.While):
                continue
            if not is_fixpoint_while(info.source, stmt):
                continue
            if id(stmt) in reported:
                continue
            reported.add(id(stmt))
            yield self.finding_in(
                project,
                info,
                stmt,
                f"a residual-testing fixpoint loop runs while "
                f"'{info.qualname}' holds {_describe_locks(state)} — "
                "convergence time is unbounded from the lock's point of "
                "view.",
                "solve outside the lock and swap the converged result in "
                "under it.",
                metadata={"locks": sorted(state)},
            )


def _describe_locks(held) -> str:
    names = ", ".join(f"'self.{lock}'" for lock in sorted(held))
    return names
