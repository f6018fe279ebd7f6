"""Project-wide call graph: module/class/method resolution over ``src/``.

The flow-sensitive checkers of PR 5 stop at function boundaries, but the
invariants that matter most in the serving tier — lock ordering across the
serve/cluster/store call chains, resource lifetimes threaded through
helpers — span them.  :class:`Project` parses the whole tree once and
:func:`build_call_graph` resolves every call site it can prove, so the
interprocedural checkers (RL010, RL013) and the summary engine in
:mod:`repro_lint.summaries` reason over real callee bodies instead of
guessing.

Resolution is deliberately *name-and-module* based (no type inference):

* ``f(...)`` — a function defined in the same scope chain (enclosing
  function's nested ``def``\\ s first, then the module), or an imported
  name (``from repro.x import f``), or a class (resolving to ``__init__``);
* ``self.m(...)`` / ``cls.m(...)`` — a method of the lexically enclosing
  class, searching project-resolvable base classes depth-first;
* ``mod.f(...)`` — a function or class of an imported module
  (``import repro.x as mod``);
* ``Cls.m(...)`` — a method accessed through a project-known class name.

Everything else (``obj.close()``, callables from containers, decorators
that swap bodies) is recorded as an **unresolved** call site with its
dotted name — callees stay visible to checkers, which treat unknown
callees conservatively per rule (RL010 treats them as potential ownership
transfer, RL013 refuses to call them blocking).

Strongly connected components (:meth:`CallGraph.sccs`, iterative Tarjan)
give the bottom-up order the summary engine needs: summaries of callees
are final before any caller outside the SCC reads them, and members of one
SCC (recursion) iterate to a local fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro_lint.base import SourceFile, call_name
from repro_lint.cfg import item_roots


def module_name_for(path: str) -> str:
    """Dotted module name of a display path (``src/repro/x/y.py`` -> ``repro.x.y``)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<module>"


@dataclass
class FunctionInfo:
    """One ``def`` of the project, with enough context to analyze it."""

    id: str
    module: str
    qualname: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    #: The lexically enclosing class definition, when this is a method.
    class_node: ast.ClassDef | None = None

    @property
    def class_name(self) -> str | None:
        return self.class_node.name if self.class_node is not None else None

    def cfg(self):
        return self.source.cfg_for(self.node)


@dataclass
class ClassInfo:
    """One class of the project: its methods and (textual) base names."""

    id: str
    module: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    bases: tuple[str, ...] = ()
    #: method name -> function id.
    methods: dict[str, str] = field(default_factory=dict)
    #: instance attribute -> class id, from ``self.x = KnownClass(...)``
    #: assignments whose constructor resolves to exactly one project class —
    #: lets ``self.x.m()`` dispatch without type inference.  Attributes
    #: assigned from two different project classes stay unresolved.
    attr_classes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside one function, resolved when possible."""

    caller: str
    node: ast.Call
    #: Function ids this call may dispatch to (empty when unresolved).
    callees: tuple[str, ...]
    #: The dotted source text of the target (``self._spawn``, ``time.sleep``).
    name: str

    @property
    def resolved(self) -> bool:
        return bool(self.callees)


class CallGraph:
    """Functions, classes and (resolved + unresolved) call sites."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller id -> call sites in source order.
        self.calls: dict[str, list[CallSite]] = {}

    def callees_of(self, function_id: str) -> list[str]:
        """Resolved callee ids of one function, deduplicated, in call order."""
        seen: set[str] = set()
        result: list[str] = []
        for site in self.calls.get(function_id, ()):
            for callee in site.callees:
                if callee not in seen:
                    seen.add(callee)
                    result.append(callee)
        return result

    def callers_of(self, function_id: str) -> list[str]:
        result = []
        for caller, sites in self.calls.items():
            if any(function_id in site.callees for site in sites):
                result.append(caller)
        return sorted(result)

    def unresolved_sites(self) -> list[CallSite]:
        """Every call site with no proven callee (conservative-handling hook)."""
        return [
            site
            for sites in self.calls.values()
            for site in sites
            if not site.resolved
        ]

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in *bottom-up* (callee-first) order.

        Iterative Tarjan: components pop off in reverse topological order of
        the condensation, which is exactly the order the summary engine
        wants — every callee outside a component is summarized before the
        component itself.  Function ids are visited sorted, so the order is
        deterministic across runs and processes.
        """
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = 0

        for root in sorted(self.functions):
            if root in index_of:
                continue
            # (node, iterator-position) explicit stack; callees sorted for
            # determinism.
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, position = work.pop()
                if position == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                callees = sorted(
                    callee
                    for callee in self.callees_of(node)
                    if callee in self.functions
                )
                advanced = False
                for next_position in range(position, len(callees)):
                    callee = callees[next_position]
                    if callee not in index_of:
                        work.append((node, next_position + 1))
                        work.append((callee, 0))
                        advanced = True
                        break
                    if callee in on_stack:
                        low[node] = min(low[node], index_of[callee])
                if advanced:
                    continue
                if low[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components


@dataclass
class _ModuleScope:
    """Name bindings of one module: imports + top-level defs/classes."""

    name: str
    #: binding -> ("module", dotted) | ("name", module, attr)
    imports: dict[str, tuple] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, str] = field(default_factory=dict)


class Project:
    """All parsed sources plus the call graph and (lazy, shared) summaries."""

    def __init__(self, sources: list[SourceFile]) -> None:
        self.sources = list(sources)
        self.graph = build_call_graph(self.sources)
        self._summaries = None

    @classmethod
    def from_paths(cls, files: list[tuple[str, str]]) -> "Project":
        """Build from ``(path_on_disk, display_name)`` pairs; skips unparseable."""
        from pathlib import Path

        sources = []
        for file_path, display in files:
            try:
                text = Path(file_path).read_text(encoding="utf-8")
                sources.append(SourceFile.parse(display, text))
            except (OSError, SyntaxError, ValueError):
                continue
        return cls(sources)

    def summaries(self):
        """The project's function summaries, computed once and shared."""
        if self._summaries is None:
            from repro_lint.summaries import compute_summaries

            self._summaries = compute_summaries(self)
        return self._summaries

    def source_for(self, path: str) -> SourceFile | None:
        for source in self.sources:
            if source.path == path:
                return source
        return None

    def functions_in(self, source: SourceFile) -> Iterator[FunctionInfo]:
        for info in self.graph.functions.values():
            if info.source is source:
                yield info


# -- construction -------------------------------------------------------------


def build_call_graph(sources: list[SourceFile]) -> CallGraph:
    """Collect every definition, then resolve every call site."""
    graph = CallGraph()
    scopes: dict[str, _ModuleScope] = {}

    for source in sources:
        module = module_name_for(source.path)
        scope = scopes.setdefault(module, _ModuleScope(name=module))
        _collect_definitions(graph, scope, source, module)

    _collect_field_types(graph, scopes)

    for source in sources:
        module = module_name_for(source.path)
        resolver = _Resolver(graph, scopes, scopes[module])
        resolver.resolve_source(source, module)
    return graph


def _collect_definitions(
    graph: CallGraph, scope: _ModuleScope, source: SourceFile, module: str
) -> None:
    """Register functions, classes, methods and import bindings of one file."""

    def visit(body: list[ast.stmt], prefix: str, class_node: ast.ClassDef | None):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                function_id = f"{module}:{qualname}"
                info = FunctionInfo(
                    id=function_id,
                    module=module,
                    qualname=qualname,
                    name=stmt.name,
                    node=stmt,
                    source=source,
                    class_node=class_node,
                )
                graph.functions[function_id] = info
                if class_node is not None and prefix.endswith(f"{class_node.name}."):
                    class_id = f"{module}:{class_node.name}"
                    if class_id in graph.classes:
                        graph.classes[class_id].methods.setdefault(
                            stmt.name, function_id
                        )
                elif class_node is None and not prefix:
                    scope.functions.setdefault(stmt.name, function_id)
                # Nested defs: atomic statements in the CFG, own entry here.
                visit(stmt.body, f"{qualname}.<locals>.", class_node)
            elif isinstance(stmt, ast.ClassDef):
                class_id = f"{module}:{stmt.name}"
                if not prefix:  # only top-level classes are addressable
                    graph.classes[class_id] = ClassInfo(
                        id=class_id,
                        module=module,
                        name=stmt.name,
                        node=stmt,
                        source=source,
                        bases=tuple(
                            base_name
                            for base in stmt.bases
                            if (base_name := _base_name(base)) is not None
                        ),
                    )
                    scope.classes.setdefault(stmt.name, class_id)
                    visit(stmt.body, f"{stmt.name}.", stmt)
                else:
                    visit(stmt.body, f"{prefix}{stmt.name}.", stmt)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                _collect_import(scope, stmt, module)
            elif isinstance(stmt, (ast.If, ast.Try)):
                # Guarded imports/defs (TYPE_CHECKING, fallbacks) still bind.
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        visit([inner], prefix, class_node)

    visit(source.tree.body, "", None)


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return call_name(ast.Call(func=base, args=[], keywords=[]))
    return None


def _collect_import(scope: _ModuleScope, stmt: ast.stmt, module: str) -> None:
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            scope.imports[bound] = ("module", target)
    elif isinstance(stmt, ast.ImportFrom):
        base = _resolve_relative(module, stmt.level, stmt.module)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            scope.imports[bound] = ("name", base, alias.name)


def _collect_field_types(
    graph: CallGraph, scopes: dict[str, _ModuleScope]
) -> None:
    """Record ``self.x = KnownClass(...)`` field types on every class.

    Runs after all definitions and import bindings exist, so a constructor
    referencing an imported class still resolves.  Only attributes whose
    every class-constructing assignment names the *same* project class are
    kept; mixed assignments are ambiguous and stay out (an absent entry
    just leaves the call unresolved, which under-approximates safely).
    """
    for cls in graph.classes.values():
        scope = scopes.get(cls.module)
        if scope is None:
            continue
        assigned: dict[str, set[str]] = {}
        for stmt in cls.node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in cls.source.walk_in_scope(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                target_class = _constructed_class(node.value, scope, graph)
                if target_class is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        assigned.setdefault(target.attr, set()).add(
                            target_class
                        )
        cls.attr_classes = {
            attr: next(iter(ids))
            for attr, ids in assigned.items()
            if len(ids) == 1
        }


def _constructed_class(
    call: ast.Call, scope: _ModuleScope, graph: CallGraph
) -> str | None:
    """The project class id a constructor call instantiates, if any."""
    func = call.func
    if isinstance(func, ast.Name):
        class_id = scope.classes.get(func.id)
        if class_id is not None:
            return class_id
        binding = scope.imports.get(func.id)
        if binding is not None and binding[0] == "name":
            candidate = f"{binding[1]}:{binding[2]}"
            if candidate in graph.classes:
                return candidate
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        binding = scope.imports.get(func.value.id)
        if binding is not None and binding[0] == "module":
            target_scope_name = binding[1]
            candidate = f"{target_scope_name}:{func.attr}"
            if candidate in graph.classes:
                return candidate
    return None


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute module a ``from``-import refers to (best-effort for level>0)."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    # ``from . import x`` in package module a.b.c: one level strips c.
    kept = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        kept = kept + target.split(".")
    return ".".join(kept)


class _Resolver:
    """Resolves every call expression of one module against the project."""

    def __init__(
        self,
        graph: CallGraph,
        scopes: dict[str, _ModuleScope],
        scope: _ModuleScope,
    ) -> None:
        self.graph = graph
        self.scopes = scopes
        self.scope = scope

    def resolve_source(self, source: SourceFile, module: str) -> None:
        for info in list(self.graph.functions.values()):
            if info.source is not source:
                continue
            sites = []
            nested = {
                stmt.name: f"{module}:{info.qualname}.<locals>.{stmt.name}"
                for stmt in info.node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for call in calls_in_function(source, info.node):
                sites.append(self._resolve_call(info, call, nested))
            self.graph.calls[info.id] = sites

    def _resolve_call(
        self, info: FunctionInfo, call: ast.Call, nested: dict[str, str]
    ) -> CallSite:
        name = call_name(call)
        callees = self._resolve_target(info, call.func, nested)
        return CallSite(
            caller=info.id, node=call, callees=tuple(callees), name=name
        )

    def _resolve_target(
        self, info: FunctionInfo, func: ast.expr, nested: dict[str, str]
    ) -> list[str]:
        if isinstance(func, ast.Name):
            return self._resolve_name(info, func.id, nested)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(info, func)
        return []

    def _resolve_name(
        self, info: FunctionInfo, name: str, nested: dict[str, str]
    ) -> list[str]:
        if name in nested:
            return [nested[name]]
        if name in self.scope.functions:
            return [self.scope.functions[name]]
        if name in self.scope.classes:
            return self._constructor(self.scope.classes[name])
        if name in self.scope.imports:
            return self._resolve_import_binding(self.scope.imports[name])
        return []

    def _resolve_attribute(
        self, info: FunctionInfo, func: ast.Attribute
    ) -> list[str]:
        # self.m(...) / cls.m(...): method of the enclosing class (or a
        # project-resolvable base).
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and info.class_node is not None
        ):
            class_id = f"{info.module}:{info.class_node.name}"
            return self._resolve_method(class_id, func.attr, set())
        # mod.f(...) / mod.Cls(...) through an import binding.
        if isinstance(func.value, ast.Name):
            binding = self.scope.imports.get(func.value.id)
            if binding is not None and binding[0] == "module":
                return self._resolve_in_module(binding[1], func.attr)
            # Cls.m(...) on a locally defined or from-imported class.
            class_id = self._class_id_for(func.value.id)
            if class_id is not None:
                return self._resolve_method(class_id, func.attr, set())
        # self.x.m(...): through the field type recorded off the class's
        # ``self.x = KnownClass(...)`` assignments.
        if (
            isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and info.class_node is not None
        ):
            cls = self.graph.classes.get(
                f"{info.module}:{info.class_node.name}"
            )
            if cls is not None:
                field_class = cls.attr_classes.get(func.value.attr)
                if field_class is not None:
                    return self._resolve_method(field_class, func.attr, set())
        # pkg.mod.f(...): a dotted module alias.
        if isinstance(func.value, ast.Attribute):
            dotted = call_name(ast.Call(func=func.value, args=[], keywords=[]))
            root = dotted.split(".")[0]
            binding = self.scope.imports.get(root)
            if binding is not None and binding[0] == "module":
                module = binding[1] + dotted[len(root):]
                return self._resolve_in_module(module, func.attr)
        return []

    def _class_id_for(self, name: str) -> str | None:
        if name in self.scope.classes:
            return self.scope.classes[name]
        binding = self.scope.imports.get(name)
        if binding is not None and binding[0] == "name":
            candidate = f"{binding[1]}:{binding[2]}"
            if candidate in self.graph.classes:
                return candidate
        return None

    def _resolve_method(
        self, class_id: str, method: str, seen: set[str]
    ) -> list[str]:
        if class_id in seen:
            return []
        seen.add(class_id)
        cls = self.graph.classes.get(class_id)
        if cls is None:
            return []
        if method in cls.methods:
            return [cls.methods[method]]
        owner_scope = self.scopes.get(cls.module)
        for base in cls.bases:
            base_id = None
            if owner_scope is not None:
                if base in owner_scope.classes:
                    base_id = owner_scope.classes[base]
                else:
                    binding = owner_scope.imports.get(base.split(".")[0])
                    if binding is not None and binding[0] == "name":
                        candidate = f"{binding[1]}:{binding[2]}"
                        if candidate in self.graph.classes:
                            base_id = candidate
            if base_id is not None:
                resolved = self._resolve_method(base_id, method, seen)
                if resolved:
                    return resolved
        return []

    def _resolve_in_module(self, module: str, attr: str) -> list[str]:
        target_scope = self.scopes.get(module)
        if target_scope is None:
            return []
        if attr in target_scope.functions:
            return [target_scope.functions[attr]]
        if attr in target_scope.classes:
            return self._constructor(target_scope.classes[attr])
        return []

    def _resolve_import_binding(self, binding: tuple) -> list[str]:
        if binding[0] != "name":
            return []
        _kind, module, attr = binding
        # ``from repro.x import f`` where f is a function or class of x.
        resolved = self._resolve_in_module(module, attr)
        if resolved:
            return resolved
        # ``from repro import x`` where x is a submodule re-export: nothing
        # to resolve here (calls through it go via the attribute path).
        return []

    def _constructor(self, class_id: str) -> list[str]:
        constructor = self._resolve_method(class_id, "__init__", set())
        return constructor


def calls_in_function(
    source: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[ast.Call]:
    """Every call expression of one function body, nested scopes excluded."""
    return [
        node
        for node in source.walk_in_scope(func)
        if isinstance(node, ast.Call)
    ]


def calls_in_item(source: SourceFile, item) -> list[ast.Call]:
    """Call expressions of one statement/CFG block item, nested scopes excluded.

    CFG marker items are unwrapped by :func:`~repro_lint.cfg.item_roots`;
    a nested ``def`` item contributes nothing (its body is its own scope).
    """
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    return [
        node
        for root in item_roots(item)
        for node in source.walk_in_scope(root)
        if isinstance(node, ast.Call)
    ]
