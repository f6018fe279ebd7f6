"""The checker plugin API: :class:`SourceFile`, :class:`Checker`, registry.

A checker is a class with a ``code`` (``RL001``..), a one-line ``summary``
and a :meth:`Checker.check` that yields :class:`~repro_lint.findings.Finding`
objects for one parsed module.  Checkers register themselves with
:func:`register` at import time; :func:`all_checkers` instantiates the full
set (optionally filtered by code) for a run.

The framework hands every checker a :class:`SourceFile` — the path, raw
text, split lines and parsed AST — so checkers can combine tree-level
analysis with line-level context (a finding quotes its source line, and
pragmas are comments the AST does not carry).  A rule never calls
``ast.walk`` itself: it reads
:meth:`SourceFile.walk` / :meth:`SourceFile.walk_in_scope`, which traverse
each root node once per run and hand every later caller the same tuple.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Type

from repro_lint.findings import Finding


@dataclass
class SourceFile:
    """One module under analysis: path, text, lines and parsed tree."""

    path: str
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: Per-function CFG cache, keyed by ``id(func_node)`` — built lazily by
    #: :meth:`cfg_for` so a run with only per-node checkers never pays for
    #: graph construction, and flow-sensitive checkers share one graph per
    #: function instead of rebuilding it per rule.
    _cfgs: dict = field(default_factory=dict, repr=False, compare=False)
    #: Per-domain dataflow solution caches (same lifetime/idiom as ``_cfgs``)
    #: so each function is solved once per domain (RL015's values).
    _solutions: dict = field(default_factory=dict, repr=False, compare=False)
    #: Traversals by root node (the key keeps the node alive, so its id is
    #: never reused for another node): ``ast.walk`` and
    #: :func:`walk_in_scope` each run once per root per lint run, however
    #: many rules and fact gatherers ask.
    _walks: dict = field(default_factory=dict, repr=False, compare=False)
    _scoped_walks: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        tree = ast.parse(text, filename=path)
        return cls(path=path, text=text, tree=tree, lines=text.splitlines())

    def line_at(self, lineno: int) -> str:
        """The 1-based source line, or ``""`` past EOF (synthetic nodes)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def walk(self, node: ast.AST | None = None) -> tuple[ast.AST, ...]:
        """``ast.walk(node)`` (default: the whole module), walked once."""
        if node is None:
            node = self.tree
        walked = self._walks.get(node)
        if walked is None:
            walked = self._walks[node] = tuple(ast.walk(node))
        return walked

    def walk_in_scope(self, node: ast.AST) -> tuple[ast.AST, ...]:
        """:func:`walk_in_scope` of ``node``, walked once."""
        walked = self._scoped_walks.get(node)
        if walked is None:
            walked = self._scoped_walks[node] = tuple(walk_in_scope(node))
        return walked

    def functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function/method definition in the module, outermost first."""
        return [node for node in self.walk() if isinstance(node, _FUNCTION_TYPES)]

    def cfg_for(self, func: "ast.FunctionDef | ast.AsyncFunctionDef"):
        """The (cached) control-flow graph of one function in this module."""
        from repro_lint.cfg import build_cfg

        cfg = self._cfgs.get(id(func))
        if cfg is None:
            cfg = build_cfg(func)
            self._cfgs[id(func)] = cfg
        return cfg

    def solution_cache(self, domain: str) -> dict:
        """The per-function solution cache of one abstract domain."""
        return self._solutions.setdefault(domain, {})


class Checker:
    """Base class for one rule; subclasses set the class attributes."""

    #: Rule code, e.g. ``"RL001"`` — what pragmas and baselines reference.
    code: str = ""
    #: Short name used in reports, e.g. ``duplicate-index-write``.
    name: str = ""
    #: One-line description of the hazard class the rule targets.
    summary: str = ""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        message: str,
        suggestion: str = "",
        metadata: dict | None = None,
    ) -> Finding:
        """A :class:`Finding` anchored at ``node`` with fingerprint context."""
        lineno = getattr(node, "lineno", 1)
        return Finding(
            file=source.path,
            line=lineno,
            code=self.code,
            message=message,
            suggestion=suggestion,
            column=getattr(node, "col_offset", 0),
            source_line=source.line_at(lineno),
            metadata=dict(metadata) if metadata else {},
        )


_REGISTRY: dict[str, Type[Checker]] = {}


def register(checker_class: Type[Checker]) -> Type[Checker]:
    """Class decorator: add a checker to the global registry (keyed by code)."""
    code = checker_class.code
    if not code:
        raise ValueError(f"{checker_class.__name__} has no rule code")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not checker_class:
        raise ValueError(f"rule code {code} registered twice")
    _REGISTRY[code] = checker_class
    return checker_class


def checker_codes() -> list[str]:
    """All registered rule codes, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def all_checkers(select: Iterable[str] | None = None) -> list[Checker]:
    """Instantiate registered checkers, optionally only the ``select`` codes."""
    _ensure_builtins()
    if select is None:
        wanted = sorted(_REGISTRY)
    else:
        wanted = list(select)
        unknown = [code for code in wanted if code not in _REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown rule codes: {', '.join(unknown)}; "
                f"registered: {', '.join(sorted(_REGISTRY))}"
            )
    return [_REGISTRY[code]() for code in wanted]


def _ensure_builtins() -> None:
    """Import the built-in checker package so registration has happened."""
    import repro_lint.checkers  # noqa: F401  (import for side effect)


# -- shared AST helpers used by several checkers ------------------------------

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: AST node types whose bodies belong to a *different* function scope.
_SCOPE_BOUNDARIES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Lambda,
)


def walk_in_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class/lambda bodies.

    The root itself may be a function definition; only *its* body is walked.
    Default-value and decorator expressions of nested definitions still
    belong to the enclosing scope and are walked.  Rules read it through
    :meth:`SourceFile.walk_in_scope`, which walks each root once.
    """
    if isinstance(node, _FUNCTION_TYPES):
        roots: list[ast.AST] = list(node.body)
    else:
        roots = [node]
    stack = list(reversed(roots))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, _SCOPE_BOUNDARIES):
            # Visible as a definition, body not entered — whether it arrived
            # as a child or directly as a body statement of the root.
            if isinstance(current, _FUNCTION_TYPES):
                stack.extend(current.decorator_list)
                stack.extend(current.args.defaults)
                stack.extend(
                    default
                    for default in current.args.kw_defaults
                    if default is not None
                )
            continue
        stack.extend(ast.iter_child_nodes(current))



def is_self_attribute(node: ast.AST, attr: str | None = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (any attribute when ``attr=None``)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def call_name(node: ast.Call) -> str:
    """Dotted name of a call target: ``np.add.at`` -> ``"np.add.at"``."""
    parts: list[str] = []
    target: ast.AST = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    elif parts:
        # A non-name head (call/subscript); keep the attribute chain only.
        pass
    return ".".join(reversed(parts))


def literal_number(node: ast.AST) -> float | None:
    """The numeric value of a literal (including ``-x``), else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = literal_number(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    return None
