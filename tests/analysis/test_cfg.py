"""CFG construction: structural fixtures + the statement-coverage property.

The coverage contract is the foundation the flow-sensitive checkers stand
on: every statement of a function (nested ``def``/``class`` bodies
excluded) appears exactly once across block bodies and ``Header`` markers.
Hypothesis generates arbitrarily nested ``if``/``while``/``for``/``try``/
``with`` bodies and the property pins the contract down.
"""

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro_lint.cfg import (
    Header,
    WithEnter,
    WithExit,
    assigned_names,
    build_cfg,
)


def parse_func(code: str) -> ast.FunctionDef:
    module = ast.parse(textwrap.dedent(code))
    func = module.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func


def own_statements(func: ast.FunctionDef) -> list[ast.stmt]:
    """Every statement of ``func``, not descending into nested defs."""

    def walk(body):
        for stmt in body:
            yield stmt
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for name in ("body", "orelse", "finalbody"):
                yield from walk(getattr(stmt, name, []) or [])
            for handler in getattr(stmt, "handlers", []) or []:
                yield from walk(handler.body)

    return list(walk(func.body))


def assert_covered_exactly_once(func: ast.FunctionDef) -> None:
    cfg = build_cfg(func)
    covered = cfg.covered_statements()
    expected = own_statements(func)
    assert len(covered) == len(expected)
    assert {id(stmt) for stmt in covered} == {id(stmt) for stmt in expected}


class TestStructure:
    def test_straight_line_is_entry_to_exit(self):
        cfg = build_cfg(parse_func("def f():\n    x = 1\n    return x\n"))
        assert cfg.entry.index == 0
        assert cfg.exit.index == 1
        assert len(cfg.entry.body) == 2  # both statements in the entry block
        labels = [edge.label for edge in cfg.successors(cfg.entry)]
        assert labels == ["next"]

    def test_if_gets_true_and_false_edges(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(a):
                    if a:
                        x = 1
                    else:
                        x = 2
                    return x
                """
            )
        )
        (test_block,) = [b for b in cfg.blocks if b.test is not None]
        assert isinstance(test_block.test, ast.Name)
        assert sorted(e.label for e in cfg.successors(test_block)) == [
            "false",
            "true",
        ]

    def test_short_circuit_and_becomes_two_condition_blocks(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(a, b):
                    if a and b:
                        return 1
                    return 2
                """
            )
        )
        tests = [b for b in cfg.blocks if b.test is not None]
        assert len(tests) == 2
        names = sorted(t.test.id for t in tests)
        assert names == ["a", "b"]

    def test_nested_boolop_decomposes_fully(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(a, b, c):
                    if (a or b) and c:
                        return 1
                    return 2
                """
            )
        )
        tests = [b for b in cfg.blocks if b.test is not None]
        assert sorted(t.test.id for t in tests) == ["a", "b", "c"]

    def test_not_swaps_edge_targets(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(a):
                    if not a:
                        x = 1
                    else:
                        y = 2
                    return 0
                """
            )
        )
        # The leaf test is the bare `a`; its *false* edge must lead to the
        # branch assigning x (the `not a` true-branch).
        (test_block,) = [b for b in cfg.blocks if b.test is not None]
        assert isinstance(test_block.test, ast.Name) and test_block.test.id == "a"
        by_label = {e.label: e.target for e in cfg.successors(test_block)}
        x_block = next(
            b
            for b in cfg.blocks
            if any(
                isinstance(item, ast.Assign)
                and isinstance(item.targets[0], ast.Name)
                and item.targets[0].id == "x"
                for item in b.body
            )
        )
        assert by_label["false"] == x_block.index

    def test_while_has_back_edge(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(n):
                    while n:
                        n = n - 1
                    return n
                """
            )
        )
        header_block = next(
            b
            for b in cfg.blocks
            if any(
                isinstance(item, Header) and isinstance(item.stmt, ast.While)
                for item in b.body
            )
        )
        back_edges = [
            e for e in cfg.edges if e.target == header_block.index and e.source > header_block.index
        ]
        assert back_edges, "loop body must jump back to the while header"

    def test_break_jumps_past_the_loop(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(items):
                    for item in items:
                        if item:
                            break
                    return 0
                """
            )
        )
        break_block = next(
            b for b in cfg.blocks if any(isinstance(i, ast.Break) for i in b.body)
        )
        return_block = next(
            b for b in cfg.blocks if any(isinstance(i, ast.Return) for i in b.body)
        )
        # break must reach the return without passing the for header again.
        reachable = _reachable_from(cfg, break_block.index, forbidden=set())
        assert return_block.index in reachable

    def test_with_brackets_body_in_enter_exit(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(self):
                    with self._lock:
                        x = 1
                    return x
                """
            )
        )
        items = [item for _b, _p, item in cfg.walk_items()]
        enters = [i for i in items if isinstance(i, WithEnter)]
        exits = [i for i in items if isinstance(i, WithExit)]
        assert len(enters) == 1 and len(exits) == 1
        order = [type(i).__name__ for i in items if not isinstance(i, ast.stmt)]
        assert order.index("WithEnter") < order.index("WithExit")

    def test_return_inside_with_emits_synthetic_exit(self):
        cfg = build_cfg(
            parse_func(
                """
                def f(self):
                    with self._lock:
                        return 1
                """
            )
        )
        return_block = next(
            b for b in cfg.blocks if any(isinstance(i, ast.Return) for i in b.body)
        )
        kinds = [type(i).__name__ for i in return_block.body]
        assert kinds.index("Return") < kinds.index("WithExit")

    def test_try_body_gets_except_edges_to_handlers(self):
        cfg = build_cfg(
            parse_func(
                """
                def f():
                    try:
                        x = work()
                    except ValueError:
                        x = None
                    return x
                """
            )
        )
        body_block = next(
            b
            for b in cfg.blocks
            if any(
                isinstance(i, ast.Assign)
                and isinstance(i.value, ast.Call)
                for i in b.body
            )
        )
        labels = [e.label for e in cfg.successors(body_block)]
        assert "except" in labels

    def test_covered_statements_on_a_kitchen_sink_function(self):
        assert_covered_exactly_once(
            parse_func(
                """
                def f(self, items, flag):
                    total = 0
                    for item in items:
                        if item < 0:
                            continue
                        while flag and item:
                            item -= 1
                            if item == 3:
                                break
                        try:
                            total += item
                        except OverflowError:
                            return None
                        finally:
                            flag = not flag
                    with self._lock:
                        self.total = total
                    def helper(y):
                        return y + 1
                    return helper(total)
                """
            )
        )


class TestAssignedNames:
    def test_assign_and_augassign(self):
        func = parse_func("def f():\n    x = 1\n    x += 1\n")
        assign, aug = func.body
        assert assigned_names(assign) == {"x"}
        assert assigned_names(aug) == {"x"}

    def test_for_header_binds_targets(self):
        func = parse_func("def f(pairs):\n    for k, v in pairs:\n        pass\n")
        cfg = build_cfg(func)
        headers = [
            item
            for _b, _p, item in cfg.walk_items()
            if isinstance(item, Header) and isinstance(item.stmt, ast.For)
        ]
        assert assigned_names(headers[0]) == {"k", "v"}

    def test_with_enter_binds_optional_vars(self):
        func = parse_func("def f(p):\n    with open(p) as fh:\n        pass\n")
        cfg = build_cfg(func)
        enters = [
            item for _b, _p, item in cfg.walk_items() if isinstance(item, WithEnter)
        ]
        assert assigned_names(enters[0]) == {"fh"}

    def test_import_binds_the_alias(self):
        func = parse_func("def f():\n    import os.path as osp\n")
        assert assigned_names(func.body[0]) == {"osp"}


def _reachable_from(cfg, start: int, forbidden: set) -> set:
    seen = {start}
    stack = [start]
    while stack:
        index = stack.pop()
        for edge in cfg.successors(index):
            if edge.target not in seen and edge.target not in forbidden:
                seen.add(edge.target)
                stack.append(edge.target)
    return seen


# -- property suite -----------------------------------------------------------

_NAMES = st.sampled_from(["x", "y", "z", "flag"])
_CONDS = st.sampled_from(
    ["x", "x < y", "x and y", "not x", "x or (y and flag)", "x is None"]
)


@st.composite
def _body_lines(draw, depth=0, in_loop=False):
    """Source lines (relative indent) of a random statement body."""
    kinds = ["assign", "expr"]
    if depth < 3:
        kinds += ["if", "ifelse", "while", "for", "try", "with"]
    if in_loop:
        kinds += ["break", "continue"]
    kinds += ["return"]

    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(kinds))
        indent = "    "
        if kind == "assign":
            lines.append(f"{draw(_NAMES)} = {draw(_NAMES)}")
        elif kind == "expr":
            lines.append(f"print({draw(_NAMES)})")
        elif kind == "return":
            lines.append(f"return {draw(_NAMES)}")
        elif kind in ("break", "continue"):
            lines.append(kind)
        elif kind in ("if", "ifelse"):
            lines.append(f"if {draw(_CONDS)}:")
            lines.extend(indent + l for l in draw(_body_lines(depth + 1, in_loop)))
            if kind == "ifelse":
                lines.append("else:")
                lines.extend(
                    indent + l for l in draw(_body_lines(depth + 1, in_loop))
                )
        elif kind == "while":
            lines.append(f"while {draw(_CONDS)}:")
            lines.extend(indent + l for l in draw(_body_lines(depth + 1, True)))
        elif kind == "for":
            lines.append(f"for {draw(_NAMES)} in items:")
            lines.extend(indent + l for l in draw(_body_lines(depth + 1, True)))
        elif kind == "try":
            lines.append("try:")
            lines.extend(indent + l for l in draw(_body_lines(depth + 1, in_loop)))
            lines.append("except ValueError:")
            lines.extend(indent + l for l in draw(_body_lines(depth + 1, in_loop)))
            if draw(st.booleans()):
                lines.append("finally:")
                lines.extend(
                    indent + l for l in draw(_body_lines(depth + 1, in_loop))
                )
        elif kind == "with":
            lines.append("with ctx() as handle:")
            lines.extend(indent + l for l in draw(_body_lines(depth + 1, in_loop)))
    return lines


@st.composite
def random_functions(draw):
    lines = ["def f(x, y, flag, items):"]
    lines.extend("    " + line for line in draw(_body_lines()))
    return "\n".join(lines) + "\n"


class TestCoverageProperty:
    @settings(max_examples=60, deadline=None)
    @given(random_functions())
    def test_every_statement_covered_exactly_once(self, code):
        func = ast.parse(code).body[0]
        assert_covered_exactly_once(func)

    @settings(max_examples=60, deadline=None)
    @given(random_functions())
    def test_every_edge_references_real_blocks(self, code):
        cfg = build_cfg(ast.parse(code).body[0])
        for edge in cfg.edges:
            assert 0 <= edge.source < len(cfg.blocks)
            assert 0 <= edge.target < len(cfg.blocks)
