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
* **blocking under a lock** — the run-time form of the kernel's
  ``might_sleep``: a blocking primitive (sleep, subprocess, file, socket
  and path I/O, ``mmap``, ``fsync``, a wait) or a fixpoint entry
  (``check_max_iterations``, which every Eq. 4 and Eq. 10 solve calls
  first) raises while the thread holds a lock not annotated ``#: may
  block: <reason>`` (same line or the line above the assignment), and so
  does acquiring an annotated lock while holding one that is not.
  ``Condition.wait`` on the held lock is clean: waiting releases it.

:func:`install` replaces ``threading.Lock`` with a factory that returns a
:class:`TrackedLock` when the calling module is under ``repro.`` and a real
lock otherwise, so the standard library (``Condition``, ``Event``,
``queue``) keeps its own locks, and wraps the blocking primitives in
:data:`BLOCKING` and ``check_max_iterations``.  It then reads every
``repro`` module that carries an annotation and guards its classes; a
``guarded by`` annotation naming a lock its class never assigns, or a
``may block`` annotation on a line that builds no lock, fails there.

Every violation is also appended to :data:`violations`: a server thread may
swallow the exception, so ``tests/conftest.py`` fails the test that left
one behind.  A self-test that provokes one claims it with :func:`raises`.
A forked cluster worker exits without returning to a test, so it prints
its violations to stderr instead.
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import functools
import importlib
import importlib.util
import inspect
import itertools
import linecache
import mmap
import os
import pathlib
import re
import select
import socket
import subprocess
import sys
import textwrap
import threading
import time
import traceback
import types
import urllib.request
from _thread import allocate_lock, get_ident
from pathlib import Path
from typing import NamedTuple

import pytest

#: Modules whose locks are tracked: the package, and :func:`toy` modules.
TRACKED = ("repro.", "lockdep_toy.")

CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})

#: Frames kept in a witness stack.
DEPTH = 8

_GUARD = re.compile(r"#:\s*guarded by self\.(\w+)")
_MAY_BLOCK = re.compile(r"#:\s*may block:\s*\S")

#: Violations raised and not yet claimed by :func:`raises`.
violations: list[LockdepError] = []
#: held lock class -> acquired lock class -> the stack that first did it.
edges: dict[str, dict[str, traceback.StackSummary]] = {}

_graph_lock = allocate_lock()
#: thread ident -> the tracked locks it holds, in acquisition order.
_held: dict[int, list[TrackedLock]] = {}
#: source file -> line -> the lock built on that line.
_sites: dict[str, dict[int, LockSite]] = {}
#: Threads capturing a witness stack: ``linecache`` reads source files,
#: which is not the caller blocking under its lock.
_capturing: set[int] = set()
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
    with _capture():  # formatting reads the witnesses' source lines
        error = LockdepError(summary, here, there)
    violations.append(error)
    if _forked:  # no test fixture runs in a forked worker to report it
        print(error, file=sys.stderr, flush=True)
    return error


@contextlib.contextmanager
def _capture():
    me = get_ident()
    _capturing.add(me)
    try:
        yield
    finally:
        _capturing.discard(me)


def _stack(frame, line: int | None = None) -> traceback.StackSummary:
    """The stack from ``frame`` out, with ``frame`` at ``line`` if given."""
    with _capture():
        stack = traceback.extract_stack(frame, limit=DEPTH)
        if line is not None:
            innermost = stack[-1]
            stack[-1] = traceback.FrameSummary(
                innermost.filename, line, innermost.name
            )
    return stack


def _site(filename: str, lineno: int, name: str) -> traceback.StackSummary:
    return traceback.StackSummary.from_list([(filename, lineno, name, None)])


class TrackedLock:
    """A ``threading.Lock`` that refuses order cycles, re-acquisition and,
    unless ``may_block``, blocking work while it is held."""

    __slots__ = ("name", "may_block", "_lock", "_owner", "_where")

    def __init__(self, name: str, may_block: bool = False) -> None:
        self.name = name
        self.may_block = may_block
        self._lock = allocate_lock()
        #: Ident of the holding thread, and the (frame, line) that took it.
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
                raise _violation(
                    f"{self.name} re-acquired by the thread that holds it "
                    "(a plain Lock would hang here)",
                    _stack(frame),
                    _stack(*self._where),
                )
            held = _held.get(me)
            if held:
                if self.may_block:
                    _check_may_block(f"{self.name}, which may block, taken", frame)
                _record_order(held, self, frame)
        if not self._lock.acquire(blocking, timeout):
            return False
        self._owner = me
        self._where = (frame, frame.f_lineno)
        _held.setdefault(me, []).append(self)
        return True

    def release(self) -> None:
        held = _held.get(self._owner)
        if held is not None:
            held.remove(self)
        self._owner = None
        self._where = None
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
                    there = _stack(*other._where)
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
    site = sites.get(frame.f_lineno, LockSite(f"<line {frame.f_lineno}>"))
    return TrackedLock(f"{module}.{site.name}", site.may_block)


# -- blocking under a lock ------------------------------------------------------


def _check_may_block(what: str, frame, releases=None) -> None:
    """Raise if this thread holds a lock, other than ``releases``, that is
    not annotated ``#: may block``."""
    me = get_ident()
    held = _held.get(me)
    if not held or me in _capturing:
        return
    for lock in held:
        if not lock.may_block and lock is not releases:
            raise _violation(
                f"{what} while holding {lock.name}, which is not annotated "
                "'#: may block: <reason>': every thread waiting for the "
                "lock waits for this too",
                _stack(frame),
                _stack(*lock._where),
            )


def _blocking(function, what: str):
    """``function`` behind the blocking-under-a-lock check."""

    @functools.wraps(function)
    def checked(*args, **kwargs):
        _check_may_block(what, sys._getframe(1))
        return function(*args, **kwargs)

    return checked


def _condition_wait(wait):
    """``Condition.wait`` releases its own lock, so only the others count."""

    @functools.wraps(wait)
    def checked(self, *args, **kwargs):
        _check_may_block("Condition.wait called", sys._getframe(1), self._lock)
        return wait(self, *args, **kwargs)

    return checked


class _Mmap(mmap.mmap):
    """``mmap.mmap`` behind the check (a subclass keeps ``isinstance``)."""

    def __new__(cls, *args, **kwargs):
        _check_may_block("mmap.mmap called", sys._getframe(1))
        return super().__new__(cls, *args, **kwargs)


#: (owner, attribute) of every primitive checked: RL013's blocking calls and
#: attribute tails, ``os.fsync`` and ``Event.wait``.  ``subprocess.run``,
#: ``call``, ``check_call`` and ``check_output`` all start a ``Popen``.
BLOCKING = (
    (time, "sleep"),
    (builtins, "open"),
    (os, "open"),
    (os, "fdopen"),
    (os, "fsync"),
    (select, "select"),
    (socket, "create_connection"),
    (socket.socket, "accept"),
    (socket.socket, "recv"),
    (socket.socket, "recvfrom"),
    (socket.socket, "sendall"),
    (urllib.request, "urlopen"),
    (subprocess.Popen, "__init__"),
    (subprocess.Popen, "wait"),
    (pathlib.Path, "read_text"),
    (pathlib.Path, "read_bytes"),
    (pathlib.Path, "write_text"),
    (pathlib.Path, "write_bytes"),
    (threading.Event, "wait"),
)


def _check_blocking() -> None:
    for owner, attr in BLOCKING:
        name = f"{owner.__name__}.{attr}".replace(".__init__", "")
        called = f"{name.removeprefix('builtins.')} called"
        setattr(owner, attr, _blocking(getattr(owner, attr), called))
    threading.Condition.wait = _condition_wait(threading.Condition.wait)
    mmap.mmap = _Mmap
    # Every Eq. 4 and Eq. 10 fixpoint entry calls check_max_iterations first.
    from repro.ranking import pagerank

    original = pagerank.check_max_iterations
    checked = _blocking(original, "a fixpoint entered (check_max_iterations)")
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get(
            "check_max_iterations"
        ) is original:
            module.check_max_iterations = checked


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


class LockSite(NamedTuple):
    """A ``threading.Lock()`` assignment: the lock class below the module
    (``Class.attr``, or ``attr`` at module level), and whether it carries
    ``#: may block: <reason>`` on its line or the comment line above."""

    name: str
    may_block: bool = False


def _comment_only(line: str) -> bool:
    return line.lstrip().startswith("#")


def lock_sites(tree: ast.Module, lines: list[str]) -> dict[int, LockSite]:
    """Line -> the lock built there, for every line of each assignment of a
    ``threading.Lock()`` call."""
    sites: dict[int, LockSite] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and _is_lock_call(
                child.value
            ):
                span = range(child.lineno, child.end_lineno + 1)
                above = lines[child.lineno - 2] if child.lineno > 1 else ""
                may_block = any(
                    _MAY_BLOCK.search(text)
                    for text in [above if _comment_only(above) else ""]
                    + [lines[line - 1] for line in span]
                )
                for target in _targets(child):
                    attr = getattr(target, "attr", getattr(target, "id", None))
                    for line in span:
                        sites[line] = LockSite(f"{scope}{attr}", may_block)
            visit(child, scope)

    visit(tree, "")
    return sites


def _parse(source: str, filename: str) -> ast.Module:
    """Parse ``filename`` and record each lock it builds; raise on a ``may
    block`` annotation that annotates no lock."""
    tree = ast.parse(source)
    lines = source.splitlines()
    sites = _sites[filename] = lock_sites(tree, lines)
    for lineno, text in enumerate(lines, 1):
        if _MAY_BLOCK.search(text) and not (
            lineno in sites or (_comment_only(text) and lineno + 1 in sites)
        ):
            raise _violation(
                f"'#: may block' on line {lineno} annotates no "
                "threading.Lock() assignment",
                _site(filename, lineno, "may block"),
                _site(filename, lineno + 1, "the line it annotates"),
            )
    return tree


def guard_module(
    module: types.ModuleType, tree: ast.Module, source: str, filename: str
) -> None:
    """Install a :class:`GuardedAttribute` for every annotation in ``module``'s
    top-level classes; raise on one that names no lock of its class."""
    lines = source.splitlines()
    lock_classes = {site.name for site in _sites[filename].values()}
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
    """Track ``repro``'s locks, check blocking under them and guard the
    annotated attributes."""
    threading.Lock = _lock_factory
    os.register_at_fork(after_in_child=_after_fork)
    _check_blocking()
    (root,) = importlib.util.find_spec("repro").submodule_search_locations
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "may block:" not in source and "guarded by self." not in source:
            continue
        tree = _parse(source, str(path))
        if "guarded by self." in source:
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
