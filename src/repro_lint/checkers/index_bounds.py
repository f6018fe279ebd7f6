"""RL017 — provably negative or overflowing index/offset into flat storage.

The storage tier is flat memory: slab files addressed by byte offset,
CSR-style arrays addressed by computed positions.  Python list semantics
(negative wraps, ``IndexError`` past the end) do not protect these —
``seek`` to a negative offset raises mid-request, ``unpack_from`` past the
buffer corrupts the read, and a numpy fancy index computed one element
too far throws under load with a traceback pointing far from the bug.

Flagged, using the value instance of the abstract interpreter
(:mod:`repro_lint.absint` — constants, arithmetic, ``range`` loop
bounds and branch refinement all participate):

* a **computed index into an array-origin name** (assigned from
  ``frombuffer``/``zeros``/``empty``/… ) whose interval is provably
  negative — a literal ``arr[-1]`` is the accepted Python idiom and never
  flags, a wraparound the author *computed into* is a bug;
* an index **provably past a known length**: the interpreter tracks exact
  ``len()`` facts for literal containers, so ``xs = [a, b, c]; xs[i]``
  with ``i ∈ [3, …)`` (or a literal ``xs[3]``) is out of bounds;
* a **provably negative offset** to ``seek(offset)`` (single-argument
  form — with an explicit ``whence`` a negative offset is legitimate),
  ``unpack_from(fmt, buf, offset)`` or an ``offset=`` keyword.

Everything unprovable stays quiet: ⊤ intervals, unknown lengths and
refined-away branches produce no finding, so the rule only speaks when
the arithmetic itself convicts the code.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.absint import _len_key, states_before_items, value_solution
from repro_lint.base import (
    Checker,
    SourceFile,
    call_name,
    literal_number,
    register,
)
from repro_lint.cfg import item_roots
from repro_lint.domains import state_get
from repro_lint.findings import Finding

#: Call tails whose argument at the given position is a file/buffer offset.
_OFFSET_ARG_TAILS = {"seek": 0, "unpack_from": 1}
#: Numpy-ish constructors: subscripts of their results are array indexing.
_ARRAY_CALL_TAILS = {"frombuffer", "zeros", "empty", "ones", "arange", "array"}


@register
class IndexBoundsChecker(Checker):
    code = "RL017"
    name = "index-out-of-bounds"
    summary = (
        "index/offset into slab or array storage that is provably negative "
        "or past a known length"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in source.functions():
            yield from self._check_function(source, func)

    def _check_function(self, source: SourceFile, func) -> Iterator[Finding]:
        array_names = _array_origin_names(source, func)
        if not _worth_solving(source, func):
            return
        solution = value_solution(source, func)
        if not solution.converged:
            return
        problem = solution.problem
        seen: set[int] = set()
        for block in source.cfg_for(func).blocks:
            pairs, test_state = states_before_items(solution, block)
            roots = [
                (root, state)
                for item, state in pairs
                for root in item_roots(item)
            ]
            if block.test is not None:
                roots.append((block.test, test_state))
            for root, state in roots:
                if state is None:
                    continue  # unreachable program point
                for node in source.walk_in_scope(root):
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                    if isinstance(node, ast.Subscript):
                        yield from self._check_subscript(
                            source, node, state, problem, array_names
                        )
                    elif isinstance(node, ast.Call):
                        yield from self._check_offsets(
                            source, node, state, problem
                        )

    def _check_subscript(
        self, source, node: ast.Subscript, state, problem, array_names
    ) -> Iterator[Finding]:
        base = node.value
        if not isinstance(base, ast.Name) or isinstance(node.slice, ast.Slice):
            return
        length = state_get(state, _len_key(base.id))
        exact = length.as_constant() if length is not None else None
        literal = literal_number(node.slice)
        if literal is not None:
            # Literal indexes only flag against a *known* length — negative
            # literals are the idiomatic tail access.
            if exact is not None and (literal >= exact or literal < -exact):
                yield self.finding(
                    source,
                    node,
                    f"index {int(literal)} is out of bounds for "
                    f"'{base.id}', whose length is provably "
                    f"{int(exact)}.",
                    "fix the index or the container construction; this "
                    "raises IndexError on every execution of the path.",
                    metadata={"index": int(literal), "length": int(exact)},
                )
            return
        interval = problem.eval(node.slice, state)
        if interval.definitely_negative() and base.id in array_names:
            yield self.finding(
                source,
                node,
                f"computed index into array '{base.id}' is provably "
                f"negative ({interval!r}) — on slab/CSR storage a "
                "wrapped read addresses the wrong record.",
                "clamp or validate the index before subscripting (an "
                "explicit 'if i < 0' guard lets the analysis prove it "
                "non-negative).",
                metadata={"interval": repr(interval)},
            )
        elif exact is not None and interval.definitely_at_least(exact):
            yield self.finding(
                source,
                node,
                f"index into '{base.id}' is provably at least "
                f"{interval.lo!r} but the container's length is "
                f"{int(exact)} — out of bounds on every path reaching "
                "here.",
                "bound the index below the container length.",
                metadata={"interval": repr(interval), "length": int(exact)},
            )

    def _check_offsets(
        self, source, node: ast.Call, state, problem
    ) -> Iterator[Finding]:
        name = call_name(node)
        tail = name.rsplit(".", 1)[-1] if name else ""
        offsets: list[ast.expr] = []
        position = _OFFSET_ARG_TAILS.get(tail)
        if position is not None and position < len(node.args):
            # seek(offset, whence) with an explicit whence legitimately
            # takes negative offsets (relative seeks); only judge the
            # absolute single-argument form.
            if not (tail == "seek" and len(node.args) > 1):
                offsets.append(node.args[position])
        for keyword in node.keywords:
            if keyword.arg == "offset":
                offsets.append(keyword.value)
        for expr in offsets:
            interval = problem.eval(expr, state)
            if interval.definitely_negative():
                yield self.finding(
                    source,
                    expr,
                    f"offset passed to {tail}() is provably negative "
                    f"({interval!r}) — flat-storage offsets must be "
                    "non-negative byte positions.",
                    "validate the offset against the slab layout before "
                    "the call.",
                    metadata={"interval": repr(interval)},
                )


def _array_origin_names(source: SourceFile, func) -> set[str]:
    """Names first assigned from a numpy-ish array constructor."""
    names: set[str] = set()
    for node in source.walk_in_scope(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and call_name(node.value).rsplit(".", 1)[-1] in _ARRAY_CALL_TAILS
        ):
            names.add(node.targets[0].id)
    return names


def _worth_solving(source: SourceFile, func) -> bool:
    """Cheap gate: any subscript or offset-taking call in the body?"""
    for node in source.walk_in_scope(func):
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Name
        ):
            return True
        if isinstance(node, ast.Call):
            tail = call_name(node).rsplit(".", 1)[-1]
            if tail in _OFFSET_ARG_TAILS or any(
                keyword.arg == "offset" for keyword in node.keywords
            ):
                return True
    return False
