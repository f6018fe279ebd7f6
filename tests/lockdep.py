"""Lockdep for the test suite: every ``threading.Lock()`` built under
``repro.`` is checked where it runs.

The two classic run-time lock checkers, the Linux kernel's lockdep and
Eraser (Savage et al., SOSP 1997), in the form this code base needs:

* **order** — each thread keeps the locks it holds; every blocking acquire
  adds a held → acquired edge between *lock classes* to one global graph.
  A lock class is the creation site, named ``module.Class.attr`` (or
  ``module.attr`` for a module-level lock).  The acquire that would close
  a cycle raises, even when one thread ran both orders: two threads
  interleaving them would deadlock.
* **re-acquisition** — a thread acquiring a lock it already holds raises
  instead of hanging.
* **guarded access** — an attribute assigned under a ``#: guarded by
  self.<lock>`` annotation (same line or the line above) becomes a data
  descriptor.  A read, write or delete from a method of the owning class
  raises unless the current thread holds that lock.  Constructors and
  accesses from other classes or modules are out of scope.  A ``*_locked``
  helper needs no special case: called without its lock, the guarded
  access inside it raises.

:func:`install` replaces ``threading.Lock`` with a factory that returns a
:class:`TrackedLock` when the calling module is under ``repro.`` and a real
lock otherwise, so the standard library (``Condition``, ``Event``,
``queue``) keeps its own locks.  It then imports every ``repro`` module
that carries an annotation and guards its classes; an annotation naming a
lock its class never assigns fails there.

Every violation is also appended to :data:`violations`: a server thread may
swallow the exception, so ``tests/conftest.py`` fails the test that left
one behind.  A self-test that provokes one claims it with :func:`raises`.
A forked cluster worker exits without returning to a test, so it prints
its violations to stderr instead.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import inspect
import itertools
import linecache
import os
import re
import sys
import textwrap
import threading
import traceback
import types
from _thread import allocate_lock, get_ident
from pathlib import Path

import pytest

#: Modules whose locks are tracked: the package, and :func:`toy` modules.
TRACKED = ("repro.", "lockdep_toy.")

CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})

#: Frames kept in a witness stack.
DEPTH = 8

_GUARD = re.compile(r"#:\s*guarded by self\.(\w+)")

#: Violations raised and not yet claimed by :func:`raises`.
violations: list[LockdepError] = []
#: held lock class -> acquired lock class -> the stack that first did it.
edges: dict[str, dict[str, traceback.StackSummary]] = {}

_graph_lock = allocate_lock()
#: thread ident -> the tracked locks it holds, in acquisition order.
_held: dict[int, list[TrackedLock]] = {}
#: source file -> line -> ``Class.attr`` of the lock built on that line.
_sites: dict[str, dict[int, str]] = {}
_toys = itertools.count()
_forked = False


class LockdepError(AssertionError):
    """A lock-discipline violation and the two sites that make it one."""

    def __init__(
        self,
        summary: str,
        here: traceback.StackSummary,
        there: traceback.StackSummary,
    ) -> None:
        self.summary = summary
        self.here = here
        self.there = there
        super().__init__(
            f"{summary}\n-- here:\n{''.join(here.format())}"
            f"-- there:\n{''.join(there.format())}"
        )


def _violation(summary, here, there) -> LockdepError:
    error = LockdepError(summary, here, there)
    violations.append(error)
    if _forked:  # no test fixture runs in a forked worker to report it
        print(error, file=sys.stderr, flush=True)
    return error


def _stack(frame) -> traceback.StackSummary:
    return traceback.extract_stack(frame, limit=DEPTH)


def _site(filename: str, lineno: int, name: str) -> traceback.StackSummary:
    return traceback.StackSummary.from_list([(filename, lineno, name, None)])


class TrackedLock:
    """A ``threading.Lock`` that refuses order cycles and re-acquisition."""

    __slots__ = ("name", "_lock", "_owner", "_where")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = allocate_lock()
        #: Ident of the holding thread, and the (code, line) that took it.
        self._owner: int | None = None
        self._where: tuple | None = None

    def __repr__(self) -> str:
        return f"<TrackedLock {self.name} owner={self._owner}>"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._acquire(sys._getframe(1), blocking, timeout)

    def __enter__(self) -> bool:
        return self._acquire(sys._getframe(1), True, -1)

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def _acquire(self, frame, blocking: bool, timeout: float) -> bool:
        me = get_ident()
        if blocking:
            if self._owner == me:
                code, line = self._where
                raise _violation(
                    f"{self.name} re-acquired by the thread that holds it "
                    "(a plain Lock would hang here)",
                    _stack(frame),
                    _site(code.co_filename, line, code.co_name),
                )
            held = _held.get(me)
            if held:
                _record_order(held, self, frame)
        if not self._lock.acquire(blocking, timeout):
            return False
        self._owner = me
        self._where = (frame.f_code, frame.f_lineno)
        _held.setdefault(me, []).append(self)
        return True

    def release(self) -> None:
        held = _held.get(self._owner)
        if held is not None:
            held.remove(self)
        self._owner = None
        self._lock.release()


def _record_order(held: list[TrackedLock], lock: TrackedLock, frame) -> None:
    """Add ``held → lock`` edges; raise on the one that closes a cycle."""
    for other in held:
        if lock.name in edges.get(other.name, ()):
            continue
        with _graph_lock:
            back = _path(lock.name, other.name)
            if back is not None:
                if len(back) > 1:
                    there = edges[back[0]][back[1]]
                else:  # a second lock of the same class
                    code, line = other._where
                    there = _site(code.co_filename, line, code.co_name)
                raise _violation(
                    f"lock order cycle: {lock.name} acquired while holding "
                    f"{other.name}, but the order {' -> '.join(back)} "
                    "was recorded there",
                    _stack(frame),
                    there,
                )
            edges.setdefault(other.name, {})[lock.name] = _stack(frame)


def _path(start: str, goal: str) -> list[str] | None:
    """Lock classes along recorded edges from ``start`` to ``goal``."""
    todo = [[start]]
    seen = {start}
    while todo:
        path = todo.pop()
        if path[-1] == goal:
            return path
        for successor in edges.get(path[-1], ()):
            if successor not in seen:
                seen.add(successor)
                todo.append(path + [successor])
    return None


def _lock_factory():
    frame = sys._getframe(1)
    module = frame.f_globals.get("__name__", "")
    if not module.startswith(TRACKED):
        return allocate_lock()
    filename = frame.f_code.co_filename
    sites = _sites.get(filename)
    if sites is None:
        _parse(Path(filename).read_text(encoding="utf-8"), filename)
        sites = _sites[filename]
    lock_class = sites.get(frame.f_lineno, f"<line {frame.f_lineno}>")
    return TrackedLock(f"{module}.{lock_class}")


def _after_fork() -> None:
    """A forked child keeps only the forking thread: drop the other threads'
    held stacks and a graph lock one of them may have held."""
    global _graph_lock, _forked
    _graph_lock = allocate_lock()
    _forked = True
    me = get_ident()
    for ident in list(_held):
        if ident != me:
            del _held[ident]


# -- guarded attributes ---------------------------------------------------------


def _codes_of(member) -> dict[int, types.CodeType]:
    """The code objects a class member runs, nested functions included, by
    identity: equal code (same body, another class) is another method."""
    if isinstance(member, property):
        functions = [member.fget, member.fset, member.fdel]
    else:
        functions = [getattr(member, "__func__", getattr(member, "func", member))]
    codes: dict[int, types.CodeType] = {}
    todo = [
        inspect.unwrap(function).__code__
        for function in functions
        if isinstance(function, types.FunctionType)
    ]
    while todo:
        code = todo.pop()
        codes[id(code)] = code
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return codes


class GuardedAttribute:
    """Data descriptor for one annotated attribute of ``owner``."""

    def __init__(
        self, owner: type, attr: str, lock: str, binding: traceback.StackSummary
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.lock = lock
        self.binding = binding
        self.codes: dict[int, types.CodeType] = {}
        for name, member in vars(owner).items():
            if name not in CONSTRUCTORS:
                self.codes.update(_codes_of(member))

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        self._check(obj, sys._getframe(1), "read")
        try:
            return obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, obj, value) -> None:
        self._check(obj, sys._getframe(1), "written")
        obj.__dict__[self.attr] = value

    def __delete__(self, obj) -> None:
        self._check(obj, sys._getframe(1), "deleted")
        try:
            del obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None

    def _in_scope(self, code: types.CodeType) -> bool:
        """Whether ``code`` is a method of the owner (monkeypatched ones too)."""
        if id(code) in self.codes:
            return True
        if code.co_name in CONSTRUCTORS:
            return False
        member = vars(self.owner).get(code.co_name)
        return member is not None and id(code) in _codes_of(member)

    def _check(self, obj, frame, action: str) -> None:
        if not self._in_scope(frame.f_code):
            return
        if obj.__dict__[self.lock]._owner == get_ident():
            return
        owner = self.owner.__qualname__
        raise _violation(
            f"{owner}.{self.attr} is guarded by self.{self.lock} but "
            f"{action} in {owner}.{frame.f_code.co_name} "
            "by a thread that does not hold it",
            _stack(frame),
            self.binding,
        )


def _is_lock_call(node: ast.AST | None) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Lock"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "threading"
    )


def _targets(node: ast.Assign | ast.AnnAssign) -> list[ast.expr]:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def lock_sites(tree: ast.Module) -> dict[int, str]:
    """Line -> lock class below the module (``Class.attr``, or ``attr`` at
    module level) for each assignment of a ``threading.Lock()`` call."""
    sites: dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and _is_lock_call(
                child.value
            ):
                for target in _targets(child):
                    attr = getattr(target, "attr", getattr(target, "id", None))
                    for line in range(child.lineno, child.end_lineno + 1):
                        sites[line] = f"{scope}{attr}"
            visit(child, scope)

    visit(tree, "")
    return sites


def _parse(source: str, filename: str) -> ast.Module:
    """Parse ``filename`` and record the lock class of each lock it builds."""
    tree = ast.parse(source)
    _sites[filename] = lock_sites(tree)
    return tree


def guard_module(
    module: types.ModuleType, tree: ast.Module, source: str, filename: str
) -> None:
    """Install a :class:`GuardedAttribute` for every annotation in ``module``'s
    top-level classes; raise on one that names no lock of its class."""
    lines = source.splitlines()
    lock_classes = set(_sites[filename].values())
    for class_def in tree.body:
        if not isinstance(class_def, ast.ClassDef):
            continue
        bindings: dict[str, tuple[str, int]] = {}
        for node in ast.walk(class_def):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in _targets(node):
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                for lineno in (node.lineno, node.lineno - 1):
                    match = _GUARD.search(lines[lineno - 1])
                    if match is not None:
                        bindings[target.attr] = (match.group(1), lineno)
                        break
        owner = getattr(module, class_def.name)
        for attr, (lock, lineno) in bindings.items():
            binding = _site(
                filename, lineno, f"{class_def.name}.{attr} guarded by self.{lock}"
            )
            if f"{class_def.name}.{lock}" not in lock_classes:
                raise _violation(
                    f"{class_def.name}.{attr} is annotated as guarded by "
                    f"self.{lock}, which {class_def.name} never assigns "
                    "from threading.Lock()",
                    binding,
                    _site(filename, class_def.lineno, class_def.name),
                )
            setattr(owner, attr, GuardedAttribute(owner, attr, lock, binding))


def install() -> None:
    """Track ``repro``'s locks and guard its annotated attributes."""
    threading.Lock = _lock_factory
    os.register_at_fork(after_in_child=_after_fork)
    (root,) = importlib.util.find_spec("repro").submodule_search_locations
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "guarded by self." in source:
            tree = _parse(source, str(path))
            parts = path.relative_to(Path(root).parent).with_suffix("").parts
            module = importlib.import_module(".".join(parts))
            guard_module(module, tree, source, str(path))


# -- for the self-tests ---------------------------------------------------------


def toy(source: str) -> types.ModuleType:
    """Run ``source`` as a fresh tracked module with its classes guarded."""
    source = textwrap.dedent(source)
    module = types.ModuleType(f"{TRACKED[1]}t{next(_toys)}")
    filename = f"<{module.__name__}>"
    # Registered so that witness stacks show the toy's source lines.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    tree = _parse(source, filename)
    exec(compile(source, filename, "exec"), module.__dict__)
    guard_module(module, tree, source, filename)
    return module


@contextlib.contextmanager
def raises(match: str | None = None):
    """``pytest.raises(LockdepError)`` that also claims the recorded violation."""
    with pytest.raises(LockdepError, match=match) as caught:
        yield caught
    violations.remove(caught.value)
