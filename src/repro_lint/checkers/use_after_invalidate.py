"""RL009 — reads of a cached attribute on a path after its invalidation.

The serving layer invalidates caches by assigning ``None`` (or calling
``.clear()``) and rebuilding lazily.  The hazard: a path that *reads* the
attribute after the invalidation without passing a rebuild first::

    def rebuild(self):
        self._view = None           # invalidate
        if self.config.precompute:
            self._view = build()    # rebuild on this path only
        return self._view.render()  # None on the other path -> crash

A forward may-analysis over the function's CFG tracks, per attribute, the
invalidation sites that may still be "live" at each point.  Any non-``None``
assignment rebuilds the attribute (kills the fact); branch refinement
understands the lazy-rebuild idiom — on the ``false`` edge of
``self._x is None`` (and the ``true`` edge of ``is not None`` or a bare
truthiness test) the attribute is known rebuilt, so::

    if self._view is None:
        self._view = build()
    return self._view               # fine on both edges

never fires.  Reads that *are* the None-test themselves are exempt: testing
an invalidated attribute is how code recovers, not a bug.  Findings carry
the invalidation line(s) in ``metadata["invalidated_at"]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.base import Checker, SourceFile, is_self_attribute, register
from repro_lint.cfg import BasicBlock, BlockItem, item_roots
from repro_lint.dataflow import DataflowProblem, solve
from repro_lint.findings import Finding


class _InvalidationProblem(DataflowProblem):
    """May-analysis: frozenset of ``(attr, invalidation_line)`` facts."""

    direction = "forward"

    def __init__(self, source: SourceFile) -> None:
        self.source = source

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def transfer_item(self, item: BlockItem, state: frozenset) -> frozenset:
        if isinstance(item, ast.stmt):
            for attr, lineno in _clear_calls(self.source, item):
                state = _kill(state, attr) | {(attr, lineno)}
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if not is_self_attribute(target):
                    continue
                attr = target.attr  # type: ignore[union-attr]
                state = _kill(state, attr)
                if _is_none(item.value):
                    state = state | {(attr, item.lineno)}
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            if is_self_attribute(item.target):
                attr = item.target.attr  # type: ignore[union-attr]
                state = _kill(state, attr)
                if _is_none(item.value):
                    state = state | {(attr, item.lineno)}
        elif isinstance(item, ast.AugAssign):
            if is_self_attribute(item.target):
                state = _kill(state, item.target.attr)  # type: ignore[union-attr]
        elif isinstance(item, ast.Delete):
            for target in item.targets:
                if is_self_attribute(target):
                    attr = target.attr  # type: ignore[union-attr]
                    state = _kill(state, attr) | {(attr, item.lineno)}
        return state

    def refine_edge(
        self, block: BasicBlock, label: str, state: frozenset
    ) -> frozenset:
        """Branch knowledge: the edge on which the attribute is not None."""
        if block.test is None or label not in ("true", "false"):
            return state
        attr, rebuilt_on = _none_test(block.test)
        if attr is not None and label == rebuilt_on:
            return _kill(state, attr)
        return state


def _kill(state: frozenset, attr: str) -> frozenset:
    return frozenset(fact for fact in state if fact[0] != attr)


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _clear_calls(source: SourceFile, stmt: ast.stmt) -> list[tuple[str, int]]:
    """``self.<attr>.clear()`` invalidations anywhere in a statement."""
    cleared = []
    for node in source.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
            and is_self_attribute(node.func.value)
        ):
            cleared.append((node.func.value.attr, node.lineno))  # type: ignore[union-attr]
    return cleared


def _none_test(test: ast.expr) -> tuple[str | None, str]:
    """(attr, edge-label-on-which-it-is-rebuilt) for recognised guards.

    ``self._x is None`` -> not-None on the ``false`` edge;
    ``self._x is not None`` -> not-None on the ``true`` edge;
    bare ``self._x`` truthiness -> not-None on the ``true`` edge.
    (``not self._x`` needs no case: the CFG builder stores the operand as
    the leaf test and swaps the edges.)
    """
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and is_self_attribute(test.left)
        and _is_none(test.comparators[0])
    ):
        attr = test.left.attr  # type: ignore[union-attr]
        return attr, "false" if isinstance(test.ops[0], ast.Is) else "true"
    if is_self_attribute(test):
        return test.attr, "true"  # type: ignore[union-attr]
    return None, ""


@register
class UseAfterInvalidateChecker(Checker):
    code = "RL009"
    name = "use-after-invalidate"
    summary = (
        "cached attribute read on a path after being set to None/cleared "
        "with no rebuild in between"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in source.functions():
            if not _invalidates_anything(source, func):
                continue
            cfg = source.cfg_for(func)
            problem = _InvalidationProblem(source)
            solution = solve(cfg, problem)
            if not solution.converged:
                continue
            for block in cfg.blocks:
                states = solution.states_through(block)
                for item, state in zip(block.body, states):
                    if not state:
                        continue
                    # The state *during* the item: facts this very item
                    # introduces do not apply to its own reads (the RHS of
                    # `self._x = None` runs before the store).
                    reads = _reads_in_roots(source, item_roots(item))
                    for access in reads:
                        yield from self._flag(source, func, access, state)
                if block.test is not None and not is_self_attribute(block.test):
                    # Reads inside a branch condition (the bare-truthiness
                    # and is-None guard shapes are exempt recovery idioms).
                    state = solution.state_out_of(block)
                    if state:
                        for access in _reads_in_roots(source, [block.test]):
                            yield from self._flag(source, func, access, state)

    def _flag(
        self,
        source: SourceFile,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        access: ast.Attribute,
        state: frozenset,
    ) -> Iterator[Finding]:
        lines = sorted({line for attr, line in state if attr == access.attr})
        if not lines:
            return
        where = ", ".join(f"line {line}" for line in lines)
        yield self.finding(
            source,
            access,
            f"'self.{access.attr}' may still be invalidated (set to "
            f"None/cleared at {where}) on a path reaching this read in "
            f"'{func.name}' with no rebuild in between.",
            f"rebuild 'self.{access.attr}' before the read on every path, "
            "or guard the read with an 'is None' check that rebuilds.",
            metadata={"invalidated_at": lines},
        )


def _invalidates_anything(source: SourceFile, func: ast.AST) -> bool:
    """Cheap pre-scan so clean functions never pay for a CFG + solve."""
    for node in source.walk(func):
        if isinstance(node, ast.Assign) and _is_none(node.value):
            if any(is_self_attribute(target) for target in node.targets):
                return True
        elif isinstance(node, ast.Delete):
            if any(is_self_attribute(target) for target in node.targets):
                return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
            and is_self_attribute(node.func.value)
        ):
            return True
    return False


def _reads_in_roots(
    source: SourceFile, roots: list[ast.AST]
) -> list[ast.Attribute]:
    """Loads of ``self.<attr>`` under ``roots``, minus None-test operands."""
    exempt: set[int] = set()
    reads: list[ast.Attribute] = []
    for root in roots:
        for node in source.walk(root):
            if (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and _is_none(node.comparators[0])
            ):
                exempt.add(id(node.left))
    for root in roots:
        for node in source.walk(root):
            if (
                is_self_attribute(node)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in exempt
            ):
                reads.append(node)
    return reads
