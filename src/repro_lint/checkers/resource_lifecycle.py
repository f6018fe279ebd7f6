"""RL010 — a file/mmap/socket acquired on a path that can exit unreleased.

The multi-process serving tier owns real OS resources: the slab store mmaps
score files, the prefork cluster opens listener sockets, the ingest path
writes generation files.  A helper that opens one and loses it on an early
``return`` or an exception edge leaks a descriptor per call — invisible in
tests, fatal under sustained traffic.

The rule tracks each acquisition — a call to a primitive in
:data:`ACQUIRE_CALLS` (``open``, ``mmap.mmap``, ``socket.socket``…) bound
to a name — forward through the function's CFG from the assignment.  A
path that reaches the function exit while the resource is still live is a
finding.  Ownership transfers end tracking conservatively:

* ``var.close()`` / ``os.close(var)`` / ``with var:`` -> **released**;
* returning/raising/yielding ``var``, storing it into an attribute,
  container or another name, or passing it to any call -> **escaped**
  (someone else owns it now; not this function's leak);
* rebinding ``var`` -> tracking stops (the old value's fate is unknowable
  without heap modelling, and guessing would invent findings).

Method calls *on* the resource (``sock.bind(...)``, ``handle.seek(...)``)
are plain uses and keep it live.  Exception edges count as exits — the
``try/finally`` or ``with`` shape that actually protects the resource
changes the CFG and satisfies the rule structurally, not via annotations.

The rule is per function: no helper in ``src/repro`` returns a fresh
resource (``tests/test_layering.py`` keeps it so), so an acquisition is
always one of these primitives.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import Checker, SourceFile, call_name, register
from repro_lint.cfg import ControlFlowGraph, Header, WithEnter, WithExit
from repro_lint.findings import Finding

#: Acquisition primitives, dotted name -> resource kind.
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
#: A method of the resource, or a function of it, that releases it.
RELEASE_TAILS = {"close"}
RELEASE_CALLS = {"os.close"}


@register
class ResourceLifecycleChecker(Checker):
    code = "RL010"
    name = "resource-lifecycle"
    summary = (
        "file/mmap/socket acquired on a path that can exit without release"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        qualnames: dict[int, str] = {}
        for function in source.functions():
            cfg = source.cfg_for(function)
            for block in cfg.blocks:
                for position, item in enumerate(block.body):
                    acquired = _acquisition(item)
                    if acquired is None:
                        continue
                    var, kind = acquired
                    if not _leaks(source, cfg, block.index, position + 1, var):
                        continue
                    if not qualnames:
                        qualnames = _qualnames(source.tree)
                    yield self.finding(
                        source,
                        item,
                        f"'{var}' holds a fresh {kind} but some path through "
                        f"'{qualnames[id(function)]}' reaches the function "
                        "exit without releasing it.",
                        f"close '{var}' in a 'finally:' (or hold it in a "
                        "'with' block), or hand ownership to the caller "
                        "explicitly.",
                        metadata={"resource": kind, "variable": var},
                    )


def _qualnames(tree: ast.Module) -> dict[int, str]:
    """``Class.method`` / ``outer.<locals>.inner`` by function node id."""
    names: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[id(child)] = f"{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def _acquisition(item) -> tuple[str, str] | None:
    """``(variable, kind)`` when ``item`` binds a fresh resource to a name."""
    if (
        isinstance(item, ast.Assign)
        and len(item.targets) == 1
        and isinstance(item.targets[0], ast.Name)
        and isinstance(item.value, ast.Call)
    ):
        kind = ACQUIRE_CALLS.get(call_name(item.value))
        if kind is not None:
            return item.targets[0].id, kind
    return None


def _leaks(
    source: SourceFile,
    cfg: ControlFlowGraph,
    start_block: int,
    start_position: int,
    var: str,
) -> bool:
    """Whether some CFG path from the acquisition exits with ``var`` live."""
    work = [(start_block, start_position)]
    seen: set[int] = set()
    while work:
        block_index, position = work.pop()
        block = cfg.blocks[block_index]
        status = "live"
        for item in block.body[position:]:
            status = _transfer(source, item, var)
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


def _transfer(source: SourceFile, item, var: str) -> str:
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
            outcome = _call_transfer(source, value, var)
            if outcome is not None:
                return outcome if not rebinds else "escaped"
            return "escaped"
        if rebinds:
            return "escaped"  # old value's fate unknown: stop quietly
        return "live"
    if isinstance(item, ast.Expr):
        outcome = _call_transfer(source, item.value, var)
        if outcome is not None:
            return outcome
        return "escaped" if _mentions(source, item.value, var) else "live"
    if isinstance(item, ast.stmt):
        return "escaped" if _mentions(source, item, var) else "live"
    return "live"


def _call_transfer(source: SourceFile, expr, var: str):
    """Classify a call expression w.r.t. ``var``, or ``None`` if not a call."""
    if not isinstance(expr, ast.Call):
        return None
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
        call_name(expr) in RELEASE_CALLS
        and expr.args
        and isinstance(expr.args[0], ast.Name)
        and expr.args[0].id == var
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
