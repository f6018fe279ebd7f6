"""Intraprocedural control-flow graphs over Python AST.

:func:`build_cfg` turns one function body into a :class:`ControlFlowGraph`
of :class:`BasicBlock`\\ s connected by labeled :class:`Edge`\\ s.  The graph
is what the flow-sensitive checker (RL007) and the generic solver in
:mod:`repro_lint.dataflow` consume; the per-node visitors (RL001, RL002,
RL004, RL005) never need it, which is why
:meth:`repro_lint.base.SourceFile.cfg_for` builds CFGs lazily, per
function, on first request.

Shape of the graph
------------------

* every *simple* statement lands in exactly one block's :attr:`BasicBlock.body`;
* every *compound* statement (``if``/``while``/``for``/``try``/``with``) is
  represented by one :class:`Header` marker in exactly one block — the point
  where its test/iterator/context expressions are evaluated;
* ``with`` bodies are bracketed by :class:`WithEnter`/:class:`WithExit`
  markers (one pair per ``with`` item) so lock-region analyses see acquire
  and release as ordinary transfer points — including the synthetic releases
  emitted on ``break``/``continue``/``return``/``raise`` paths that leave the
  ``with`` early;
* boolean short-circuit tests are decomposed: ``if a and b:`` becomes two
  condition blocks, each with its own ``true``/``false`` edges, so a
  dataflow instance can refine state per conjunct;
* ``try`` bodies over-approximate exceptions: every block created inside the
  body gets an ``except`` edge to every handler entry (plus ``raise`` edges
  to the innermost handlers), which is sound for the may/must analyses here;
* one distinguished exit block collects ``return``/``raise``/fall-off edges.

The coverage contract — every statement of the function, nested functions
excluded, appears exactly once across ``body`` items and ``Header`` markers —
is what the hypothesis property suite pins down.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Union

#: Edge labels.  ``true``/``false`` leave a block with a ``test`` (or a
#: ``for`` header: ``true`` = next item, ``false`` = exhausted); ``next`` is
#: unconditional fall-through; ``except`` over-approximates an exception.
EDGE_LABELS = ("next", "true", "false", "except")


@dataclass(frozen=True)
class Edge:
    """One directed edge between blocks, by index."""

    source: int
    target: int
    label: str = "next"


class Header:
    """The evaluation point of a compound statement's header.

    For ``if``/``while`` the header evaluates the (first leaf of the) test;
    for ``for`` it advances the iterator and binds the target; for ``with``
    it evaluates the context expressions; for ``try`` it is a no-op anchor.
    """

    __slots__ = ("stmt",)

    def __init__(self, stmt: ast.stmt) -> None:
        self.stmt = stmt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Header({type(self.stmt).__name__}@{self.stmt.lineno})"


class WithEnter:
    """A context manager was entered (its ``__enter__`` ran)."""

    __slots__ = ("stmt", "item")

    def __init__(self, stmt: ast.With | ast.AsyncWith, item: ast.withitem) -> None:
        self.stmt = stmt
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WithEnter(@{self.stmt.lineno})"


class WithExit:
    """A context manager was exited (its ``__exit__`` ran)."""

    __slots__ = ("stmt", "item")

    def __init__(self, stmt: ast.With | ast.AsyncWith, item: ast.withitem) -> None:
        self.stmt = stmt
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WithExit(@{self.stmt.lineno})"


#: What a block's ``body`` list may hold.
BlockItem = Union[ast.stmt, Header, WithEnter, WithExit]


@dataclass
class BasicBlock:
    """A straight-line run of block items, optionally ending in a branch."""

    index: int
    body: list[BlockItem] = field(default_factory=list)
    #: The branch condition evaluated after ``body`` (``None`` when the block
    #: ends unconditionally or at a ``for`` header, which has no test expr).
    test: ast.expr | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BasicBlock({self.index}, {len(self.body)} items)"


class ControlFlowGraph:
    """Blocks + edges of one function; entry is block 0, exit is dedicated."""

    def __init__(self, func: ast.AST | None = None) -> None:
        self.func = func
        self.blocks: list[BasicBlock] = []
        self.edges: list[Edge] = []
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}
        self.entry = self._new_block()
        self.exit = self._new_block()

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        self._succ[block.index] = []
        self._pred[block.index] = []
        return block

    def add_edge(self, source: int, target: int, label: str = "next") -> None:
        if label not in EDGE_LABELS:
            raise ValueError(f"unknown edge label {label!r}")
        edge = Edge(source, target, label)
        if edge in self._succ[source]:
            return
        self.edges.append(edge)
        self._succ[source].append(edge)
        self._pred[target].append(edge)

    def successors(self, block: BasicBlock | int) -> list[Edge]:
        index = block.index if isinstance(block, BasicBlock) else block
        return list(self._succ[index])

    def predecessors(self, block: BasicBlock | int) -> list[Edge]:
        index = block.index if isinstance(block, BasicBlock) else block
        return list(self._pred[index])

    def covered_statements(self) -> list[ast.stmt]:
        """Every statement the graph covers, in no particular order.

        Simple statements appear as block items; compound statements appear
        through their :class:`Header` marker.  The property suite asserts
        this list matches the function's own statements exactly once each.
        """
        covered: list[ast.stmt] = []
        for block in self.blocks:
            for item in block.body:
                if isinstance(item, Header):
                    covered.append(item.stmt)
                elif isinstance(item, ast.stmt):
                    covered.append(item)
        return covered

    def walk_items(self) -> Iterator[tuple[BasicBlock, int, BlockItem]]:
        """Every ``(block, position, item)`` triple across the graph."""
        for block in self.blocks:
            for position, item in enumerate(block.body):
                yield block, position, item


#: Compound statements that get a Header marker of their own.
_COMPOUND = (
    ast.If,
    ast.While,
    ast.For,
    ast.AsyncFor,
    ast.Try,
    ast.With,
    ast.AsyncWith,
)
if hasattr(ast, "TryStar"):  # pragma: no cover - 3.11+
    _COMPOUND = _COMPOUND + (ast.TryStar,)


class _Frame:
    """Builder state for one enclosing loop: jump targets + with depth."""

    __slots__ = ("head", "after", "with_depth")

    def __init__(self, head: int, after: int, with_depth: int) -> None:
        self.head = head
        self.after = after
        self.with_depth = with_depth


class _Builder:
    def __init__(self, func: ast.AST | None) -> None:
        self.cfg = ControlFlowGraph(func)
        self.current = self.cfg.entry
        #: innermost-last stack of enclosing loops.
        self.loops: list[_Frame] = []
        #: innermost-last stack of handler-entry block index lists.
        self.handlers: list[list[int]] = []
        #: innermost-last stack of open ``with`` items (for early exits).
        self.withs: list[tuple[ast.With | ast.AsyncWith, ast.withitem]] = []

    # -- plumbing ----------------------------------------------------------

    def _start_block(self) -> BasicBlock:
        """A fresh block that becomes current (no implicit edge)."""
        self.current = self.cfg._new_block()
        return self.current

    def _goto(self, target: int, label: str = "next") -> None:
        self.cfg.add_edge(self.current.index, target, label)

    def _emit_with_exits(self, down_to: int) -> None:
        """Synthetic releases for every ``with`` open above ``down_to``."""
        for stmt, item in reversed(self.withs[down_to:]):
            self.current.body.append(WithExit(stmt, item))

    def _raise_targets(self) -> list[tuple[int, str]]:
        """Where a raise can land: innermost handlers, else the exit block."""
        if self.handlers:
            return [(index, "except") for index in self.handlers[-1]]
        return [(self.cfg.exit.index, "next")]

    # -- statements --------------------------------------------------------

    def build_body(self, statements: list[ast.stmt]) -> None:
        for stmt in statements:
            self.build_statement(stmt)

    def build_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._build_if(stmt)
        elif isinstance(stmt, ast.While):
            self._build_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._build_for(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._build_with(stmt)
        elif isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            self._build_try(stmt)
        elif isinstance(stmt, ast.Return):
            self.current.body.append(stmt)
            self._emit_with_exits(0)
            self._goto(self.cfg.exit.index)
            self._start_block()
        elif isinstance(stmt, ast.Raise):
            self.current.body.append(stmt)
            self._emit_with_exits(0)
            for target, label in self._raise_targets():
                self._goto(target, label)
            self._start_block()
        elif isinstance(stmt, ast.Break):
            self.current.body.append(stmt)
            if self.loops:
                frame = self.loops[-1]
                self._emit_with_exits(frame.with_depth)
                self._goto(frame.after)
            else:  # break outside a loop: syntactically invalid, stay sound
                self._goto(self.cfg.exit.index)
            self._start_block()
        elif isinstance(stmt, ast.Continue):
            self.current.body.append(stmt)
            if self.loops:
                frame = self.loops[-1]
                self._emit_with_exits(frame.with_depth)
                self._goto(frame.head)
            else:
                self._goto(self.cfg.exit.index)
            self._start_block()
        else:
            # Simple statement (incl. nested FunctionDef/ClassDef, treated
            # as atomic definitions — their bodies get their own CFGs).
            self.current.body.append(stmt)

    # -- branches and short-circuit ----------------------------------------

    def _build_test(self, test: ast.expr, on_true: int, on_false: int) -> None:
        """Wire ``test`` from the current block, decomposing short-circuit.

        Leaves the builder on a fresh (unreachable-from-here) block; callers
        continue from their own join points.
        """
        if isinstance(test, ast.BoolOp) and isinstance(test.op, (ast.And, ast.Or)):
            values = list(test.values)
            for position, value in enumerate(values):
                last = position == len(values) - 1
                if last:
                    self._build_test(value, on_true, on_false)
                    return
                next_block = self.cfg._new_block()
                if isinstance(test.op, ast.And):
                    # value false -> whole test false; true -> next conjunct.
                    self._build_test(value, next_block.index, on_false)
                else:
                    self._build_test(value, on_true, next_block.index)
                self.current = next_block
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._build_test(test.operand, on_false, on_true)
            return
        self._build_leaf_test(test, on_true, on_false)

    def _build_leaf_test(self, test: ast.expr, on_true: int, on_false: int) -> None:
        self.current.test = test
        self._goto(on_true, "true")
        self._goto(on_false, "false")
        self._start_block()

    def _build_if(self, stmt: ast.If) -> None:
        self.current.body.append(Header(stmt))
        then_entry = self.cfg._new_block()
        else_entry = self.cfg._new_block()
        after = self.cfg._new_block()
        self._build_test(stmt.test, then_entry.index, else_entry.index)

        self.current = then_entry
        self.build_body(stmt.body)
        self._goto(after.index)

        self.current = else_entry
        self.build_body(stmt.orelse)
        self._goto(after.index)

        self.current = after

    def _build_while(self, stmt: ast.While) -> None:
        head = self.cfg._new_block()
        body_entry = self.cfg._new_block()
        orelse_entry = self.cfg._new_block()
        after = self.cfg._new_block()
        self._goto(head.index)

        self.current = head
        self.current.body.append(Header(stmt))
        self._build_test(stmt.test, body_entry.index, orelse_entry.index)

        self.loops.append(_Frame(head.index, after.index, len(self.withs)))
        self.current = body_entry
        self.build_body(stmt.body)
        self._goto(head.index)
        self.loops.pop()

        self.current = orelse_entry
        self.build_body(stmt.orelse)
        self._goto(after.index)

        self.current = after

    def _build_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        head = self.cfg._new_block()
        body_entry = self.cfg._new_block()
        orelse_entry = self.cfg._new_block()
        after = self.cfg._new_block()
        self._goto(head.index)

        self.current = head
        # The header advances the iterator and binds the loop target.
        self.current.body.append(Header(stmt))
        self._goto(body_entry.index, "true")
        self._goto(orelse_entry.index, "false")

        self.loops.append(_Frame(head.index, after.index, len(self.withs)))
        self.current = body_entry
        self.build_body(stmt.body)
        self._goto(head.index)
        self.loops.pop()

        self.current = orelse_entry
        self.build_body(stmt.orelse)
        self._goto(after.index)

        self.current = after

    def _build_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        self.current.body.append(Header(stmt))
        for item in stmt.items:
            self.current.body.append(WithEnter(stmt, item))
            self.withs.append((stmt, item))
        self.build_body(stmt.body)
        for item in reversed(stmt.items):
            self.current.body.append(WithExit(stmt, item))
            self.withs.pop()

    def _build_try(self, stmt: ast.Try) -> None:
        after = self.cfg._new_block()
        handler_entries = [self.cfg._new_block() for _ in stmt.handlers]

        # Anchor the Try header, then isolate the protected body in fresh
        # blocks so except edges never claim statements before the try.
        self.current.body.append(Header(stmt))
        body_entry = self.cfg._new_block()
        self._goto(body_entry.index)
        self.current = body_entry

        self.handlers.append([block.index for block in handler_entries])
        first_body_block = len(self.cfg.blocks) - 1
        self.build_body(stmt.body)
        last_body_block = len(self.cfg.blocks)
        self.handlers.pop()

        # Over-approximate: any block of the protected body may raise into
        # any handler.  (Blocks of nested structures are included — they run
        # under the same protection.)
        for index in range(first_body_block, last_body_block):
            for handler_block in handler_entries:
                self.cfg.add_edge(index, handler_block.index, "except")

        else_entry = self.cfg._new_block()
        self._goto(else_entry.index)

        self.current = else_entry
        self.build_body(stmt.orelse)
        finally_entry = self.cfg._new_block()
        self._goto(finally_entry.index)

        for handler, entry in zip(stmt.handlers, handler_entries):
            self.current = entry
            self.build_body(handler.body)
            self._goto(finally_entry.index)

        self.current = finally_entry
        self.build_body(stmt.finalbody)
        self._goto(after.index)

        self.current = after


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module | list[ast.stmt],
) -> ControlFlowGraph:
    """The control-flow graph of one function body (or statement list)."""
    if isinstance(func, list):
        statements, node = func, None
    else:
        statements, node = func.body, func
    builder = _Builder(node)
    builder.build_body(statements)
    builder._goto(builder.cfg.exit.index)
    return builder.cfg


def item_roots(item: BlockItem) -> list[ast.AST]:
    """The expressions a block item evaluates, as AST roots to walk.

    A statement is its own root; a ``for`` header contributes its iterator
    and a ``with`` header its context expressions; ``if``/``while``/``try``
    headers contribute nothing (their tests live on the condition blocks),
    and neither do enter/exit markers (the ``with`` header carried them).
    """
    if isinstance(item, Header):
        stmt = item.stmt
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [with_item.context_expr for with_item in stmt.items]
        return []
    if isinstance(item, (WithEnter, WithExit)):
        return []
    return [item]


def assigned_names(item: BlockItem, walk=ast.walk) -> set[str]:
    """Local names a block item defines (assignments, loop/with targets).

    ``walk`` traverses a target; the linter passes its source file's
    memoised :meth:`~repro_lint.base.SourceFile.walk`.
    """
    names: set[str] = set()
    if isinstance(item, Header):
        stmt = item.stmt
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            names.update(_target_names(stmt.target, walk))
        return names
    if isinstance(item, WithEnter):
        if item.item.optional_vars is not None:
            names.update(_target_names(item.item.optional_vars, walk))
        return names
    if isinstance(item, WithExit):
        return names
    if isinstance(item, ast.Assign):
        for target in item.targets:
            names.update(_target_names(target, walk))
    elif isinstance(item, (ast.AugAssign, ast.AnnAssign)):
        names.update(_target_names(item.target, walk))
    elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.add(item.name)
    elif isinstance(item, (ast.Import, ast.ImportFrom)):
        for alias in item.names:
            bound = alias.asname or alias.name.split(".")[0]
            names.add(bound)
    return names


def _target_names(target: ast.expr, walk) -> set[str]:
    """Plain names bound by an assignment target (no attributes/subscripts)."""
    names: set[str] = set()
    for node in walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    return names
