"""RL012 — serve-tier cache keys missing the rate-fingerprint/epoch fence.

PR 7's hardest bug class: a result cached under a key that does not encode
*everything* the answer depends on keeps serving stale authority scores
after the thing it omitted changes.  The serve tier's contract is that any
query-shaped cache key carries both

* the **rate fingerprint** (``rates_fingerprint`` / ``make_key``) — answers
  change when feedback reformulation retunes transfer rates, and
* the **ingest epoch** (a ``("epoch", …)`` component) — answers change when
  live mutations refresh the precomputed vectors.

This rule finds every cache sink (``….get(key)`` / ``….put(key, …)`` on a
receiver whose name contains ``cache``), reconstructs which fingerprint
components may flow into the key expression — through assignments, tuple
concatenation and project helpers via their summaries' ``cache_key_tags``
(so a key built by a helper function still counts) — and flags keys that
carry query/rate components but can *never* carry the epoch (or vice
versa).  The flow analysis is a may-union over paths, so the accepted
shape, where the epoch component is appended only when ingest is enabled,
stays clean; only keys with **no** path adding the component are findings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import ProjectChecker, register
from repro_lint.callgraph import Project
from repro_lint.findings import Finding
from repro_lint.summaries import (
    expression_tags,
    make_callee_tags,
    solve_key_tags,
)

#: Components every query-shaped key must carry.  The store generation
#: ("gen") is deliberately *not* accepted as the epoch fence: it only moves
#: on store-backed slab swaps, while in-memory ingest refreshes bump the
#: epoch alone — a key carrying gen but not epoch still serves stale
#: answers on the in-memory path.
_QUERY_TAGS = frozenset({"query", "rates"})
_EPOCH_TAGS = frozenset({"epoch"})


@register
class CacheKeyFencingChecker(ProjectChecker):
    code = "RL012"
    name = "cache-key-fencing"
    summary = (
        "serve-tier cache key misses the rate-fingerprint or ingest-epoch "
        "component"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        graph = project.graph
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            sinks = _cache_sinks(info.source, info.node)
            if not sinks:
                continue
            site_by_call = {
                id(site.node): site
                for site in graph.calls.get(function_id, [])
            }
            callee_tags = make_callee_tags(site_by_call, summaries.by_id)
            solution = solve_key_tags(info, callee_tags)
            reported: set = set()
            cfg = info.cfg()
            sink_ids = {id(call): (call, receiver) for call, receiver in sinks}
            for block in cfg.blocks:
                states = solution.states_through(block)
                pairs = list(zip(block.body, states))
                if block.test is not None:
                    pairs.append((block.test, solution.state_out_of(block)))
                for item, state in pairs:
                    for call, receiver in _sinks_in_item(
                        info.source, item, sink_ids
                    ):
                        tags = expression_tags(
                            call.args[0], state, callee_tags
                        )
                        if not tags & _QUERY_TAGS:
                            continue  # not a query-shaped key
                        missing = []
                        if "rates" not in tags:
                            missing.append("rate fingerprint")
                        if not tags & _EPOCH_TAGS:
                            missing.append("ingest epoch")
                        if not missing:
                            continue
                        dedup = (receiver, tuple(missing))
                        if dedup in reported:
                            continue
                        reported.add(dedup)
                        yield self.finding_in(
                            project,
                            info,
                            call,
                            f"cache key used at '{receiver}."
                            f"{call.func.attr}' in '{info.qualname}' never "
                            f"carries the {' or the '.join(missing)}: "
                            "entries will keep serving stale scores after "
                            f"{_staleness_cause(missing)}.",
                            "append the missing component(s) to the key — "
                            "e.g. 'key += ((\"epoch\", staleness[\"epoch\"]"
                            "),)' next to the existing fingerprint parts.",
                            metadata={
                                "key_tags": sorted(tags),
                                "missing": list(missing),
                            },
                        )


def _staleness_cause(missing: list) -> str:
    causes = []
    if "rate fingerprint" in missing:
        causes.append("a feedback reformulation changes the rates")
    if "ingest epoch" in missing:
        causes.append("an ingest refresh republishes the vectors")
    return " or ".join(causes)


def _cache_sinks(source, func_node) -> list:
    """``(call, receiver_name)`` for every cache get/put in the function."""
    sinks = []
    for node in source.walk_in_scope(func_node):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "get",
            "put",
        ):
            continue
        receiver = _dotted(func.value)
        if receiver and "cache" in receiver.lower():
            sinks.append((node, receiver))
    return sinks


def _sinks_in_item(source, item, sink_ids: dict):
    """The registered cache sinks occurring inside one CFG block item."""
    roots: list[ast.AST] = []
    if isinstance(item, (ast.stmt, ast.expr)):
        roots = [item]
    else:
        stmt = getattr(item, "stmt", None)
        if stmt is not None and not isinstance(
            stmt, (ast.With, ast.AsyncWith, ast.For, ast.AsyncFor)
        ):
            roots = []
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            roots = [stmt.iter]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            roots = [with_item.context_expr for with_item in stmt.items]
    found = []
    for root in roots:
        for node in source.walk(root):
            entry = sink_ids.get(id(node))
            if entry is not None:
                found.append(entry)
    return found


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return ""
    return ".".join(reversed(parts))
