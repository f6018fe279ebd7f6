"""RL010 — a file/mmap/socket acquired on a path that can exit unreleased.

The multi-process serving tier owns real OS resources: the slab store mmaps
score files, the prefork cluster opens listener sockets, the ingest path
writes generation files.  A helper that opens one and loses it on an early
``return`` or an exception edge leaks a descriptor per call — invisible in
tests, fatal under sustained traffic.

The rule tracks each acquisition — a call to a known primitive (``open``,
``mmap.mmap``, ``socket.socket``…) *or* to a project helper whose summary
says it returns a fresh resource — forward through the CFG from the
assignment.  A path that reaches the function exit while the resource is
still live is a finding.  Ownership transfers end tracking conservatively:

* ``var.close()`` / ``os.close(var)`` / ``with var:`` / passing ``var`` to a
  callee that releases that parameter -> **released**;
* returning/raising/yielding ``var``, storing it into an attribute,
  container or another name, or passing it to any other call -> **escaped**
  (someone else owns it now; not this function's leak);
* rebinding ``var`` -> tracking stops (the old value's fate is unknowable
  without heap modelling, and guessing would invent findings).

Method calls *on* the resource (``sock.bind(...)``, ``handle.seek(...)``)
are plain uses and keep it live.  Exception edges count as exits — the
``try/finally`` or ``with`` shape that actually protects the resource
changes the CFG and satisfies the rule structurally, not via annotations.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import ProjectChecker, SourceFile, call_name, register
from repro_lint.callgraph import Project
from repro_lint.cfg import ControlFlowGraph, Header, WithEnter, WithExit
from repro_lint.findings import Finding
from repro_lint.summaries import (
    ACQUIRE_CALLS,
    RELEASE_CALLS,
    RELEASE_TAILS,
    acquired_call_kind,
)


@register
class ResourceLifecycleChecker(ProjectChecker):
    code = "RL010"
    name = "resource-lifecycle"
    summary = (
        "file/mmap/socket acquired on a path that can exit without release"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        graph = project.graph
        def params_of(callee_id: str) -> tuple:
            info = graph.functions.get(callee_id)
            if info is None:
                return ()
            from repro_lint.summaries import _positional_params

            return tuple(arg.arg for arg in _positional_params(info.node))

        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            site_by_call = {
                id(site.node): site
                for site in graph.calls.get(function_id, [])
            }
            cfg = info.cfg()
            for block in cfg.blocks:
                for position, item in enumerate(block.body):
                    acquired = _acquisition(item, site_by_call, summaries.by_id)
                    if acquired is None:
                        continue
                    var, kind = acquired
                    if _leaks(
                        info.source, cfg, block.index, position + 1, var,
                        site_by_call, summaries.by_id, params_of,
                    ):
                        helper = ""
                        if call_name(item.value) not in _PRIMITIVE_NAMES:
                            helper = (
                                f" (acquired via '{call_name(item.value)}')"
                            )
                        yield self.finding_in(
                            project,
                            info,
                            item,
                            f"'{var}' holds a fresh {kind}{helper} but some "
                            f"path through '{info.qualname}' reaches the "
                            "function exit without releasing it.",
                            f"close '{var}' in a 'finally:' (or hold it in a "
                            "'with' block), or hand ownership to the caller "
                            "explicitly.",
                            metadata={"resource": kind, "variable": var},
                        )


_PRIMITIVE_NAMES = frozenset(ACQUIRE_CALLS)


def _acquisition(item, site_by_call, summaries):
    """``(variable, kind)`` when ``item`` binds a fresh resource to a name."""
    if (
        isinstance(item, ast.Assign)
        and len(item.targets) == 1
        and isinstance(item.targets[0], ast.Name)
        and isinstance(item.value, ast.Call)
    ):
        kind = acquired_call_kind(item.value, site_by_call, summaries)
        if kind is not None:
            return item.targets[0].id, kind
    return None


def _leaks(
    source: SourceFile,
    cfg: ControlFlowGraph,
    start_block: int,
    start_position: int,
    var: str,
    site_by_call: dict,
    summaries: dict,
    params_of,
) -> bool:
    """Whether some CFG path from the acquisition exits with ``var`` live."""
    work = [(start_block, start_position)]
    seen: set[int] = set()
    while work:
        block_index, position = work.pop()
        block = cfg.blocks[block_index]
        status = "live"
        for item in block.body[position:]:
            status = _transfer(
                source, item, var, site_by_call, summaries, params_of
            )
            if status != "live":
                break
        if status != "live":
            continue
        for edge in cfg.successors(block):
            if edge.target == cfg.exit.index:
                return True
            if edge.target not in seen:
                seen.add(edge.target)
                work.append((edge.target, 0))
    return False


def _transfer(
    source: SourceFile,
    item,
    var: str,
    site_by_call: dict,
    summaries: dict,
    params_of,
) -> str:
    """``live`` / ``released`` / ``escaped`` for one block item."""
    if isinstance(item, WithEnter):
        expr = item.item.context_expr
        if isinstance(expr, ast.Name) and expr.id == var:
            return "released"  # __exit__ closes files/sockets/mmaps
        return "escaped" if _mentions(source, expr, var) else "live"
    if isinstance(item, WithExit):
        return "live"
    if isinstance(item, Header):
        stmt = item.stmt
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return "escaped" if _mentions(source, stmt.iter, var) else "live"
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return "live"  # its WithEnter items carry the transfer
        return "live"
    if isinstance(item, ast.Return):
        if item.value is not None and _mentions(source, item.value, var):
            return "escaped"
        return "live"
    if isinstance(item, ast.Raise):
        mentioned = any(
            _mentions(source, part, var)
            for part in (item.exc, item.cause)
            if part is not None
        )
        return "escaped" if mentioned else "live"
    if isinstance(item, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            item.targets if isinstance(item, ast.Assign) else [item.target]
        )
        rebinds = any(
            isinstance(target, ast.Name) and target.id == var
            for target in targets
        )
        value = item.value
        if value is not None and _mentions(source, value, var):
            # Resource value stored somewhere else: new owner.
            outcome = _call_transfer(
                source, value, var, site_by_call, summaries, params_of
            )
            if outcome is not None:
                return outcome if not rebinds else "escaped"
            return "escaped"
        if rebinds:
            return "escaped"  # old value's fate unknown: stop quietly
        return "live"
    if isinstance(item, ast.Expr):
        outcome = _call_transfer(
            source, item.value, var, site_by_call, summaries, params_of
        )
        if outcome is not None:
            return outcome
        return "escaped" if _mentions(source, item.value, var) else "live"
    if isinstance(item, ast.stmt):
        return "escaped" if _mentions(source, item, var) else "live"
    return "live"


def _call_transfer(
    source: SourceFile,
    expr,
    var: str,
    site_by_call: dict,
    summaries: dict,
    params_of,
):
    """Classify a call expression w.r.t. ``var``, or ``None`` if not a call."""
    if not isinstance(expr, ast.Call):
        return None
    name = call_name(expr)
    func = expr.func
    # A method on the resource itself: release tails end it, others use it.
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == var
    ):
        if func.attr in RELEASE_TAILS:
            return "released"
        args_touch = any(
            _mentions(source, arg, var) for arg in expr.args
        ) or any(_mentions(source, kw.value, var) for kw in expr.keywords)
        return "escaped" if args_touch else "live"
    if (
        name in RELEASE_CALLS
        and expr.args
        and isinstance(expr.args[0], ast.Name)
        and expr.args[0].id == var
    ):
        return "released"
    # var passed positionally to a single resolved callee that releases it.
    site = site_by_call.get(id(expr))
    if site is not None and len(site.callees) == 1:
        summary = summaries.get(site.callees[0])
        if summary is not None:
            for position, arg in enumerate(expr.args):
                if isinstance(arg, ast.Name) and arg.id == var:
                    params = params_of(site.callees[0])
                    if (
                        position < len(params)
                        and params[position] in summary.releases_params
                    ):
                        return "released"
    if _mentions(source, expr, var):
        return "escaped"
    return "live"


def _mentions(source: SourceFile, node: ast.AST, var: str) -> bool:
    return any(
        isinstance(inner, ast.Name) and inner.id == var
        for inner in source.walk(node)
    )
