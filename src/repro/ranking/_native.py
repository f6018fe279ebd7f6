"""Optional compiled kernels: two power-iteration steps (a CSR block step for
the blocked engine, a SELL-4 single-vector step for live runs) and the two
stages of an explanation (explaining-subgraph extraction and the Equation 10
fixpoint).

**Single-vector step** (:func:`bind_sell_step`, driven only by
:func:`repro.ranking.pagerank.iterate`).  A row's sum in scipy's
``csr_matvec`` is one chain of dependent adds, so a live Equation 4 step is
bound by add latency, not memory.  Over the row-interleaved copy of the
transition matrix (:class:`~repro.graph.transfer_graph.SellLayout`: rows
sorted by length, four at a time) the kernel runs four rows' chains side by
side, each row in its CSR order from 0.0, and writes ``y = damping * (A @ x)
+ jump`` and ``|y - x|`` in one pass; padding adds ``0.0 * 0.0``, which
cannot change an accumulator that starts at +0.0, so both are bit for bit
numpy's and the caller's residual is numpy's own sum over them.  A
:class:`SellStep` binds its buffer addresses once per run.

**Block step** (:func:`blocked_step`).  scipy's ``csr_matvecs`` walks the
matrix with a scalar inner loop and writes every partial sum back to memory,
which makes a blocked multiplication cost as much per column as ``k``
separate matrix–vector products.  This module builds (with the system C
compiler, once per source, flags, compiler and CPU — see below) a kernel
that keeps each row's ``k`` accumulators in registers, prefetches the
gathered rows of ``X`` (the CSR column indices tell us which rows are
needed several nonzeros ahead), and fuses the damping/jump update and the
per-column residual sums, computing

    Y = damping * (A @ X) + jump        and        r_c = sum_i |Y_ic - X_ic|

in one pass over the matrix.  The inner loop is specialized at compile time
for the block widths the engine actually uses (:data:`SPECIALIZED_WIDTHS`),
so the accumulators live in SIMD registers instead of a stack array, and the
jump term is passed *row-compacted*: restart distributions put mass on a few
base-set rows, so streaming a dense ``(n, k)`` jump slab every iteration
would roughly double the kernel's memory traffic for nothing.

Per column the accumulation order of ``Y`` is exactly scipy's sequential
per-row order and the update is the serial engine's ``multiply then add``,
compiled with ``-ffp-contract=off`` so no FMA contraction changes the
rounding — the scores are bit-for-bit compatible with
:func:`repro.ranking.pagerank.iterate`.  (Rows missing from the
jump list skip the ``+ 0.0`` — identical for every value except a ``-0.0``
accumulator, which nonnegative ranking iterates never produce.)  The fused
residuals use a sequential row-order sum (numpy uses pairwise summation), so
they agree with the numpy value only to ~n·eps relative; the engine treats
them as the fast approximate residual and recomputes exactly near the
tolerance boundary.

**Explain kernels** (:func:`bind_subgraph_kernel` and :func:`flow_fixpoints`,
driven only by :mod:`repro.explain.batch`).  Extraction runs the backward BFS
from the target and the forward BFS from the base roots over the
positive-rate incidence, then reads the subgraph off the stamps: sorted
nodes, their depths, the roots, sorted edge ids, local endpoints and the
Equation 10 operator.  All of it is integers (and rates copied, never
computed); a node set and shortest depths do not depend on traversal order,
so the arrays are the numpy extractor's.  The Equation 10 kernel iterates
each target's operator to its own convergence: a row's sum starts from 0.0
and adds ``rate * h[column]`` in CSR order, scipy's ``csr_matvec`` sequence
(four consecutive rows side by side up to the shortest of them, then each
row's tail), ``h[target] = 1.0``, and the residual is an exact max — floats,
traces and iteration counts are numpy's.

**Build and load.**  The C sources are package data,
``kernels/ranking.c`` and ``kernels/explain.c``, two translation units
linked into one library.  A build is keyed by sha256 over the sources,
every flag variant, ``SELL_LANES``, the compilers found on ``PATH`` (real
path, size, mtime) and the CPU (machine and feature flags: a
``-march=native`` build must never be loaded on another CPU), and is
published as ``$XDG_CACHE_HOME/repro/kernels/<key>-<size>.so`` (default
``~/.cache/repro/kernels``; delete the directory to clear it).  The first
process to need the kernels compiles them (about a second); every later
one maps the published build (milliseconds) if the file holds the number
of bytes its name says, and it and the directory are this user's and no
one else may write them.  The bitwise probe runs in every process either
way.  A cached build that fails any of this is rebuilt and republished
once; if the cache cannot be written, or others may write it, the build
happens in a temporary directory that is removed once the library is
mapped.

All of it is best-effort: if no C compiler is available, compilation
fails, or the probe shows a kernel is *not* bitwise-identical to the
scipy/numpy sequence (an unexpected toolchain quirk), every caller
silently falls back to the scipy/numpy path.  Set ``REPRO_NO_NATIVE=1`` to
force the fallback; it never reads or writes the cache.  :func:`status`
says which path this process is on without triggering a build.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import shutil
import stat
import subprocess
import tempfile
import threading
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.graph.transfer_graph import (
    SELL_LANES,
    AuthorityTransferDataGraph,
    SellMatrix,
    sell_layout,
)

#: Hard cap on the block width the kernel's stack accumulator supports.
MAX_WIDTH = 512

#: Widths with a fully-unrolled, register-resident fast path.  Other widths
#: run through a runtime-width body that is correct but roughly half as fast;
#: callers that control their chunking should prefer these.
SPECIALIZED_WIDTHS = (2, 4, 8, 16, 32, 64)

_BASE_CFLAGS = ["-O3", "-fPIC", "-ffp-contract=off", "-funroll-loops"]

#: Tried in order until one compiles: full tuning, then without the x86-only
#: vector-width hint, then without -march=native, then a bare portable build.
_CFLAG_VARIANTS = [
    _BASE_CFLAGS + ["-march=native", "-mprefer-vector-width=512"],
    _BASE_CFLAGS + ["-march=native"],
    _BASE_CFLAGS,
    ["-O2", "-fPIC", "-ffp-contract=off"],
]

#: Appended for the explain kernels: their loops are bound by loads, run as
#: fast at -O2 without unrolling, and compile in half the time.
_EXPLAIN_CFLAGS = ["-O2", "-fno-unroll-loops"]

#: The C sources, package data beside this module: one translation unit
#: each, with the flags appended for it to every variant.
_KERNELS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels")
_UNITS = (
    ("ranking", [f"-DSELL_LANES={SELL_LANES}"]),
    ("explain", _EXPLAIN_CFLAGS),
)

#: Tried in order for every flag variant; each one found is in the cache key.
_COMPILERS = ("cc", "gcc")


class _Outcome(NamedTuple):
    """How this process came by its kernels: ``library`` is ``None`` when
    they are unavailable, ``build`` is ``cached``, ``compiled`` or
    ``temporary`` when they are not, and ``reason`` says why they are
    unavailable or why a build could not be published."""

    library: ctypes.CDLL | None
    build: str | None = None
    reason: str | None = None


#: may block: kernel-cache stat/open/listdir, and the compile on a cold cache
_lock = threading.Lock()
#: Set once per process by :func:`_ensure`, read by :func:`status`.
_outcome: _Outcome | None = None

_HUGE_PAGE = 2 << 20
_libc = None


def slab_empty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """``np.empty`` backed by transparent hugepages when the slab is large.

    The blocked engine gathers rows of its multi-MB slabs at effectively
    random offsets, so on 4K pages the slab spans thousands of TLB entries
    and a large fraction of gathers pay a page walk.  A 2MB-aligned
    anonymous mapping with ``MADV_HUGEPAGE`` covers the same slab with a
    handful of entries (measured ~15-25% off the kernel step).  Falls back
    to a plain ``np.empty`` for small slabs and on any platform refusal.
    """
    global _libc
    count = int(np.prod(shape))
    nbytes = count * np.dtype(dtype).itemsize
    if nbytes < _HUGE_PAGE:
        return np.empty(shape, dtype)
    try:
        import mmap as _mmap

        size = (nbytes + _HUGE_PAGE - 1) & ~(_HUGE_PAGE - 1)
        buf = _mmap.mmap(-1, size + _HUGE_PAGE)
        address = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        aligned = (address + _HUGE_PAGE - 1) & ~(_HUGE_PAGE - 1)
        if _libc is None:
            _libc = ctypes.CDLL(None, use_errno=True)
        _libc.madvise(  # MADV_HUGEPAGE; refusal leaves ordinary pages
            ctypes.c_void_p(aligned), ctypes.c_size_t(size), 14
        )
        array = np.frombuffer(
            buf, dtype=dtype, count=count, offset=aligned - address
        )
        return array.reshape(shape)
    except Exception:
        return np.empty(shape, dtype)


def hugepage_csr(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Copy of ``matrix`` whose arrays sit on hugepage-backed slabs.

    The CSR data/index streams are re-read every iteration; moving them onto
    hugepages removes their share of TLB pressure too.  Returns the input
    unchanged when the kernel is unavailable (the scipy path gains nothing).
    """
    if not available():
        return matrix
    data = slab_empty(matrix.data.shape)
    data[:] = matrix.data
    indices = slab_empty(matrix.indices.shape, matrix.indices.dtype)
    indices[:] = matrix.indices
    indptr = slab_empty(matrix.indptr.shape, matrix.indptr.dtype)
    indptr[:] = matrix.indptr
    return sparse.csr_matrix(
        (data, indices, indptr), shape=matrix.shape, copy=False
    )


def _cache_dir() -> str:
    """Where published builds live: ``$XDG_CACHE_HOME/repro/kernels``, by
    default ``~/.cache/repro/kernels``."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative path is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "repro", "kernels")


def _cpu_identity() -> str:
    """The machine and the CPU's feature list.  A ``-march=native`` build
    dies of SIGILL on a CPU without its features, before the probe can
    refuse it, so a build is only ever loaded on the CPU it was built for."""
    features = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                # x86 lists its features as "flags", ARM as "Features".
                if line.startswith(("flags", "Features")):
                    features = line.strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()}\n{features}"


def _build_key(compilers: list[str]) -> str:
    """sha256 over what a build's bytes depend on: the sources, every flag
    variant and per-unit flag (``SELL_LANES`` among them), each compiler
    found (real path, size, mtime) and the CPU.  Starts no subprocess."""
    sources = []
    for unit, _flags in _UNITS:
        with open(os.path.join(_KERNELS, f"{unit}.c"), "rb") as handle:
            sources.append(handle.read())
    binaries = []
    for compiler in compilers:
        real = os.path.realpath(compiler)
        info = os.stat(real)
        binaries.append((real, info.st_size, info.st_mtime_ns))
    identity = (sources, _UNITS, _CFLAG_VARIANTS, binaries, _cpu_identity())
    return hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()


def _private(info: os.stat_result) -> bool:
    """Whether the file ``info`` describes is this user's and no one else
    may write it."""
    return info.st_uid == os.getuid() and not info.st_mode & (
        stat.S_IWGRP | stat.S_IWOTH
    )


def _published(cache: str, key: str) -> list[str]:
    """The builds published under ``key`` that may be loaded: regular files
    named ``<key>-<size>.so`` that hold exactly ``size`` bytes and are
    :func:`_private`, in a directory that is :func:`_private` too (or
    another user could rename a library over a checked one before
    ``dlopen`` runs its constructors).  The size in the name is what the
    publisher wrote, fsynced before the rename, so a truncated file is
    never mapped: ``dlopen`` of one dies of SIGBUS before anything could
    refuse it."""
    try:
        info = os.lstat(cache)
        if not (stat.S_ISDIR(info.st_mode) and _private(info)):
            return []
        names = sorted(os.listdir(cache))
    except OSError:
        return []
    found = []
    for name in names:
        match = re.fullmatch(rf"{key}-([0-9]+)\.so", name)
        if match is None:
            continue
        path = os.path.join(cache, name)
        try:
            info = os.lstat(path)
        except OSError:
            continue
        if (
            stat.S_ISREG(info.st_mode)
            and _private(info)
            and info.st_size == int(match.group(1))
        ):
            found.append(path)
    return found


def _build_directory(cache: str) -> tuple[str, str | None]:
    """A fresh ``repro-native-*`` directory inside ``cache`` (created 0700)
    and ``None``; or, when the cache cannot be written or is not private to
    this user, one from ``tempfile.mkdtemp`` and the reason."""
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        info = os.lstat(cache)
        if stat.S_ISDIR(info.st_mode) and _private(info):
            return tempfile.mkdtemp(prefix="repro-native-", dir=cache), None
        note = f"kernel cache {cache} not private to this user"
    except OSError as error:
        note = f"kernel cache {cache} unwritable ({error.strerror})"
    return tempfile.mkdtemp(prefix="repro-native-"), note


def _load() -> _Outcome:
    """The probed kernels for these sources, this compiler and this CPU.

    A build :func:`_published` in :func:`_cache_dir` is loaded if it maps
    and passes the bitwise probe, which runs in every process: the probe is
    the correctness gate, and a stored verdict would let a tampered file
    skip it.  Otherwise the kernels are built in a temporary directory
    inside the cache, loaded and probed from there, and published with
    ``os.replace``: two processes starting cold together each load their
    own build, the last rename wins, and nothing else is left.  If the
    cache cannot be written the build happens in a ``tempfile.mkdtemp``
    directory instead and is not kept.
    """
    compilers = [found for found in map(shutil.which, _COMPILERS) if found]
    if not compilers:
        return _Outcome(None, reason="no C compiler on PATH")
    cache = _cache_dir()
    try:
        key = _build_key(compilers)
    except OSError as error:
        return _Outcome(None, reason=f"kernel sources unreadable ({error})")
    for path in _published(cache, key):
        library = _bind(path)
        if library is not None and _probe_bitwise(library):
            return _Outcome(library, "cached")
    directory, note = _build_directory(cache)
    stem = None if note else os.path.join(cache, key)
    return _fresh(compilers, directory, stem, note)


def _fresh(
    compilers: list[str], directory: str, stem: str | None, note: str | None
) -> _Outcome:
    """Build the kernels in ``directory``, load and probe them, and publish
    the library as ``<stem>-<size>.so`` (``stem`` ``None``: keep it
    nowhere).  The directory is removed on every path: a mapped library
    outlives its file."""
    try:
        path = _compile(compilers, directory)
        if path is None:
            return _Outcome(None, reason="no compiler and flag variant built them")
        library = _bind(path)
        if library is None:
            return _Outcome(None, reason="the built library did not load")
        if not _probe_bitwise(library):
            return _Outcome(None, reason="probe mismatch: not bit-identical to numpy")
        if stem is None:
            return _Outcome(library, "temporary", note)
        try:
            os.chmod(path, 0o700)  # whatever the umask: see _published
            handle = os.open(path, os.O_RDONLY)
            try:
                os.fsync(handle)  # every byte on disk before the name is
            finally:
                os.close(handle)
            os.replace(path, f"{stem}-{os.path.getsize(path)}.so")
        except OSError as error:
            note = f"build not published ({error.strerror})"
            return _Outcome(library, "temporary", note)
        return _Outcome(library, "compiled")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _compile(compilers: list[str], directory: str) -> str | None:
    """The path of the kernels compiled and linked in ``directory``, or
    ``None`` when no compiler and flag variant builds them.

    The ranking steps and the explain kernels are two translation units,
    compiled side by side and linked into one library, so on two cores the
    explain kernels build while the ranking steps do.
    """
    for variant, cflags in enumerate(_CFLAG_VARIANTS):
        library = os.path.join(directory, f"kernels{variant}.so")
        objects = [os.path.join(directory, f"{unit}{variant}.o") for unit, _ in _UNITS]
        for compiler in compilers:
            compiles = [
                [compiler, *cflags, *extra, "-c", "-o", obj,
                 os.path.join(_KERNELS, f"{unit}.c")]
                for (unit, extra), obj in zip(_UNITS, objects)
            ]
            if _side_by_side(compiles) and _side_by_side(
                [[compiler, "-shared", "-o", library, *objects]]
            ):
                return library
    return None


def _side_by_side(commands: list[list[str]]) -> bool:
    """Run the commands concurrently; whether each exits 0 within 60 s."""
    processes = []
    try:
        for command in commands:
            processes.append(
                subprocess.Popen(
                    command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
                )
            )
        return all([process.wait(timeout=60) == 0 for process in processes])
    except (OSError, subprocess.TimeoutExpired):
        return False
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()


_pointer, _count = ctypes.c_void_p, ctypes.c_int64

#: ``argtypes`` of the exported kernels, in the order of their C prototypes
#: (``tests/ranking/test_kernel_sources.py`` checks them against the
#: sources).  Every kernel returns void.
_SIGNATURES = {
    "blocked_step": [
        _count,
        _count,
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        _count,
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        ctypes.c_double,
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
    ],
    # Raw addresses: SellStep checks every buffer and binds them once per run.
    "sell_step": [_count, *[_pointer] * 6, ctypes.c_double, _pointer, _pointer],
    # The explain kernels take raw addresses too: their wrappers check every
    # buffer first.
    "subgraph_mark": [
        *[_pointer] * 6, _count, _pointer, _count, _count, _count, *[_pointer] * 5,
    ],
    "subgraph_emit": [
        _count, _count, *[_pointer] * 5, _count, _pointer, _count, _count,
        *[_pointer] * 5, _count, _count, _count, _pointer, _pointer,
    ],
    "flow_fixpoint": [
        _count, *[_pointer] * 5, ctypes.c_double, _count, *[_pointer] * 5,
    ],
}


def _bind(path: str) -> ctypes.CDLL | None:
    """The library at ``path`` with every kernel's signature declared, or
    ``None`` when it does not map or lacks a kernel."""
    try:
        library = ctypes.CDLL(path)
        for name, argtypes in _SIGNATURES.items():
            function = getattr(library, name)
            function.restype = None
            function.argtypes = argtypes
    except (OSError, AttributeError):
        return None
    return library


def _call(lib, matrix, block, jump_rows, jump, damping, out, resid) -> None:
    lib.blocked_step(
        matrix.shape[0],
        block.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        block,
        jump_rows.shape[0],
        jump_rows,
        jump,
        damping,
        out,
        resid,
    )


def _probe_bitwise(lib: ctypes.CDLL) -> bool:
    """Verify the compiled code reproduces the scipy sequence bit-for-bit.

    Width 7 exercises the generic (runtime-width) body's tail lanes; width 32
    exercises a specialized unrolled body.  Each width is probed with a dense
    jump (every row listed, signed data — the exact dense sequence) and a
    sparse jump over nonnegative data (the row-skipping path).  Empty rows
    exercise the zero-accumulator path.  Floating point is deterministic per
    compiled binary, so a probe that matches here matches for every input.
    """
    rng = np.random.default_rng(12345)
    n = 57
    probe = sparse.random(n, n, density=0.21, random_state=7, format="csr")
    damping = 0.85
    for width in (7, 32):
        for dense in (True, False):
            if dense:
                probe.data = rng.standard_normal(probe.nnz)
                block = np.ascontiguousarray(rng.standard_normal((n, width)))
                jump_rows = np.arange(n, dtype=np.int32)
                jump = np.ascontiguousarray(rng.standard_normal((n, width)))
            else:
                probe.data = np.abs(rng.standard_normal(probe.nnz))
                block = np.ascontiguousarray(np.abs(rng.standard_normal((n, width))))
                jump_rows = np.flatnonzero(rng.random(n) < 0.2).astype(np.int32)
                jump = np.ascontiguousarray(
                    np.abs(rng.standard_normal((len(jump_rows), width)))
                )
            out = np.empty((n, width))
            resid = np.empty(width)
            try:
                _call(lib, probe, block, jump_rows, jump, damping, out, resid)
            except (ctypes.ArgumentError, ValueError):
                return False
            dense_jump = np.zeros((n, width))
            dense_jump[jump_rows] = jump
            expected = np.empty((n, width))
            for column in range(width):
                expected[:, column] = (
                    damping * (probe @ np.ascontiguousarray(block[:, column]))
                    + dense_jump[:, column]
                )
            if not np.array_equal(out, expected):
                return False
            if not np.allclose(
                resid, np.abs(out - block).sum(axis=0), rtol=1e-12, atol=0.0
            ):
                return False
    # The SELL step against numpy's: signed values with explicit zeros, empty
    # rows, a hub row, n not a multiple of the group size, zeros in x.
    rows = rng.integers(0, n, 400)
    keep = rows % 7 != 1
    rows = np.concatenate((rows[keep], np.full(n, 3)))
    columns = np.concatenate((rng.integers(0, n, 400)[keep], np.arange(n)))
    data = rng.standard_normal(rows.size)
    data[::9] = 0.0
    probe = sparse.csr_matrix((data, (rows, columns)), shape=(n, n))
    x = rng.standard_normal(n)
    x[::5] = 0.0
    jump = rng.standard_normal(n)
    layout = sell_layout(probe.indptr, probe.indices)
    y, diff = SellStep(lib, SellMatrix(layout, probe.data), jump, damping, x)()
    expected = damping * (probe @ x) + jump
    if not (
        np.array_equal(y, expected) and np.array_equal(diff, np.abs(expected - x))
    ):
        return False
    return _probe_flow_fixpoint(lib, rng) and _probe_subgraph(lib)


def _probe_flow_fixpoint(lib: ctypes.CDLL, rng: np.random.Generator) -> bool:
    """The Eq. 10 fixpoint against the scipy sequence it replaces: segments
    of 1, 7 and 23 rows (full groups of four and a tail), repeated columns
    inside a row, empty rows, and traces that stop at different iterations
    or run into the cut-off."""
    operators, targets, expected = [], [], []
    tolerance, max_iterations = 1e-6, 40
    for n in (1, 7, 23):
        rows = np.sort(rng.integers(0, n, 4 * n))
        rows = rows[rows % 6 != 4]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices = rng.integers(0, n, rows.size)
        rates = rng.uniform(0.0, 0.35, rows.size)
        target = int(rng.integers(0, n))
        operators.append((indptr, indices, rates))
        targets.append(target)
        matrix = sparse.csr_matrix((rates, indices, indptr), shape=(n, n))
        h, trace = np.ones(n), []
        while len(trace) < max_iterations:
            new_h = matrix @ h
            new_h[target] = 1.0
            trace.append(float(np.abs(new_h - h).max()))
            h = new_h
            if trace[-1] < tolerance:
                break
        expected.append((h, (trace, len(trace), trace[-1] < tolerance)))
    found = _flow_fixpoints(lib, operators, targets, tolerance, max_iterations)
    return all(
        np.array_equal(h, h_expected) and tuple(rest) == rest_expected
        for (h, *rest), (h_expected, rest_expected) in zip(found, expected)
    )


def _probe_subgraph(lib: ctypes.CDLL) -> bool:
    """Extraction on a six-node graph whose subgraphs are worked out by hand:
    a zero-rate edge, a cycle through the target, a base node repeated and
    one beyond the radius, a backward-set node the roots never reach, and
    an unreachable target (the target alone)."""
    #          e0   e1   e2   e3   e4   e5   e6   e7
    source = [0, 1, 2, 0, 4, 1, 3, 5]
    target = [1, 2, 3, 3, 3, 0, 1, 0]
    rate = [0.5, 0.5, 0.5, 0.0, 0.3, 0.2, 0.1, 0.4]
    edge_source, edge_target = np.asarray(source), np.asarray(target)
    positive = np.flatnonzero(np.asarray(rate) > 0.0)

    def incidence(endpoint):
        edges = positive[np.argsort(endpoint[positive], kind="stable")]
        indptr = np.zeros(7, dtype=np.int64)
        np.cumsum(np.bincount(endpoint[positive], minlength=6), out=indptr[1:])
        return indptr, edges

    kernel = SubgraphKernel(
        lib, incidence(edge_target), incidence(edge_source), edge_source,
        edge_target, np.asarray(rate), np.asarray([0, 5, 0]),
    )
    def listed(found):
        nodes, depths, roots, operator, *edges, target_local = found
        arrays = (nodes, depths, roots, *operator, *edges)
        return [array.tolist() for array in arrays] + [target_local]

    return listed(kernel(3, 3)) == [
        [0, 1, 2, 3], [3, 2, 1, 0], [0, 0],  # nodes, depths, roots
        [0, 1, 3, 4, 5], [1, 2, 0, 3, 1], [0.5, 0.5, 0.2, 0.5, 0.1],  # operator
        [0, 1, 2, 5, 6], [0, 1, 2, 1, 3], [1, 2, 3, 0, 1], 3,  # edges, target
    ] and listed(kernel(4, None)) == [[4], [0], [], [0, 0], [], [], [], [], [], 0]


def _ensure() -> ctypes.CDLL | None:
    """The kernels, found or built and probed once per process; ``None``
    when unusable (always under ``REPRO_NO_NATIVE``, which never touches
    the cache)."""
    global _outcome
    if _outcome is None:
        with _lock:
            if _outcome is None:
                if os.environ.get("REPRO_NO_NATIVE"):
                    _outcome = _Outcome(None, reason="REPRO_NO_NATIVE is set")
                else:
                    try:
                        _outcome = _load()
                    except Exception as error:  # recorded once, not per call
                        reason = f"kernel load failed ({error!r})"
                        _outcome = _Outcome(None, reason=reason)
    return _outcome.library


def available() -> bool:
    """Whether the compiled kernel is usable (triggers the one-time build)."""
    return _ensure() is not None


def status() -> dict[str, str | None]:
    """Which path this process is on, without triggering a build: ``state``
    is ``loaded``, ``unavailable`` or ``not_loaded`` (nothing has asked for
    a kernel yet); ``build`` is ``cached``, ``compiled`` or ``temporary``
    once loaded; ``reason`` says why the kernels are unavailable or why a
    loaded build was not published."""
    outcome = _outcome
    if outcome is None:
        return {"state": "not_loaded", "build": None, "reason": None}
    return {
        "state": "unavailable" if outcome.library is None else "loaded",
        "build": outcome.build,
        "reason": outcome.reason,
    }


def blocked_step(
    matrix: sparse.csr_matrix,
    block: np.ndarray,
    jump_rows: np.ndarray,
    jump: np.ndarray,
    damping: float,
    out: np.ndarray | None = None,
    resid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """``damping * (matrix @ block) + scattered jump`` via the compiled kernel.

    ``jump_rows`` is a sorted ``int32`` array of the rows carrying jump mass
    and ``jump`` their values, shape ``(len(jump_rows), k)`` — restart
    vectors are sparse and the dense slab is nearly all zeros.  Listing a
    zero row is harmless (it adds the serial engine's literal ``+ 0.0``);
    *omitting* a row is bitwise-safe as long as the accumulator cannot be
    ``-0.0`` there, which holds for the nonnegative iterates of every
    ranking in this package.

    Returns ``(scores, residuals)`` where ``residuals[c]`` is the sequential
    row-order sum of ``|scores[:, c] - block[:, c]|`` (an approximation of
    the numpy pairwise sum, good to ~n·eps relative).  Returns ``None`` when
    the kernel is unavailable or the inputs fall outside its supported
    shapes/dtypes; the caller then uses scipy.

    ``out``/``resid`` are optional preallocated result buffers.  Passing
    them matters: a multi-MB ``np.empty`` per step cycles freshly-mapped
    pages through the allocator and the resulting page faults can cost more
    than the kernel itself.  Mismatched buffers are silently replaced.
    """
    lib = _ensure()
    if lib is None:
        return None
    if (
        block.shape[1] > MAX_WIDTH
        or matrix.indices.dtype != np.int32
        or matrix.indptr.dtype != np.int32
        or matrix.data.dtype != np.float64
        or block.dtype != np.float64
        or jump.dtype != np.float64
        or jump_rows.dtype != np.int32
        or jump.shape != (jump_rows.shape[0], block.shape[1])
        or not block.flags.c_contiguous
        or not jump.flags.c_contiguous
        or not jump_rows.flags.c_contiguous
    ):
        return None
    if (
        out is None
        or out.shape != block.shape
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        out = np.empty_like(block)
    if (
        resid is None
        or resid.shape != (block.shape[1],)
        or resid.dtype != np.float64
        or not resid.flags.c_contiguous
    ):
        resid = np.empty(block.shape[1])
    _call(lib, matrix, block, jump_rows, jump, damping, out, resid)
    return out, resid


class SellStep:
    """One power-iteration run bound to the SELL-4 kernel.

    Owns two ``n + 1`` score buffers (the last slot is the 0.0 that padding
    reads) and a ``diff`` buffer, and binds every address once: each call
    runs one step from the current buffer into the other and returns
    ``(scores, |scores - previous|)`` as views of length ``n``, valid until
    the next call overwrites them.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        matrix: SellMatrix,
        jump: np.ndarray,
        damping: float,
        scores: np.ndarray,
    ) -> None:
        n = matrix.shape[0]
        layout = matrix.layout
        buffers = (np.zeros(n + 1), np.zeros(n + 1))
        buffers[0][:n] = scores
        self._diff = np.empty(n)
        self._views = tuple(buffer[:n] for buffer in buffers)
        # The kernel reads these by address: keep them alive with the run.
        self._arrays = (layout, matrix.values, jump, buffers)

        def address(array: np.ndarray) -> ctypes.c_void_p:
            return ctypes.c_void_p(array.ctypes.data)

        shared = (
            ctypes.c_int64(n), address(layout.offsets), address(layout.columns),
            address(matrix.values), address(layout.rows),
        )
        self._calls = [
            (*shared, address(x), address(jump), ctypes.c_double(damping),
             address(y), address(self._diff))
            for x, y in (buffers, buffers[::-1])
        ]
        self._function = lib.sell_step
        self._turn = 0

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        self._function(*self._calls[self._turn])
        self._turn ^= 1
        return self._views[self._turn], self._diff


def bind_sell_step(
    matrix: SellMatrix, jump: np.ndarray, damping: float, scores: np.ndarray
) -> SellStep | None:
    """The compiled step of ``r <- damping * (matrix @ r) + jump`` from
    ``scores``, or ``None`` when the kernel is unavailable or an input is
    not the float64 / int32 vector of the matrix's size it needs (the
    caller then steps with numpy)."""
    lib = _ensure()
    n = matrix.shape[0]
    layout = matrix.layout
    if lib is None or not (
        layout.rows.shape == jump.shape == scores.shape == (n,)
        and layout.offsets.shape == (-(-n // SELL_LANES) + 1,)
        and layout.columns.shape == matrix.values.shape == (layout.offsets[-1],)
        and layout.rows.dtype == layout.columns.dtype == np.int32
        and layout.offsets.dtype == np.int64
        and matrix.values.dtype == jump.dtype == np.float64
        and all(
            array.flags.c_contiguous
            for array in (*layout[:3], matrix.values, jump)
        )
    ):
        return None
    return SellStep(lib, matrix, jump, damping, scores)


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


class SubgraphKernel:
    """Explaining-subgraph extraction bound to one graph's positive-rate
    incidence and one base set.

    Owns the per-node stamps (epoch-tagged, so consecutive targets share
    them without a reset), the BFS queue and the per-edge mark, and binds
    every address once.  Each call extracts one target and returns fresh
    arrays ``(nodes, depths, roots, (indptr, indices, rates), edge_ids,
    edge_src_local, edge_dst_local)``, views of one int64 and one float64
    block sized by that target's own counts, and the target's local index.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        in_index: tuple[np.ndarray, np.ndarray],
        out_index: tuple[np.ndarray, np.ndarray],
        edge_source: np.ndarray,
        edge_target: np.ndarray,
        edge_rate: np.ndarray,
        base: np.ndarray,
    ) -> None:
        num_nodes, num_edges = in_index[0].size - 1, edge_source.size
        tag, reach = np.zeros((2, num_nodes), dtype=np.int64)
        depth, local, queue = np.empty((3, num_nodes), dtype=np.int64)
        edge_mark = np.zeros(num_edges, dtype=np.uint8)
        self._counts = np.zeros(3, dtype=np.int64)
        # The kernel reads these by address: keep them alive with the binding.
        self._arrays = (
            in_index, out_index, edge_source, edge_target, edge_rate, base,
            tag, reach, depth, local, queue, edge_mark,
        )
        edges = (
            _address(out_index[0]), _address(out_index[1]),
            _address(edge_source), _address(edge_target),
        )
        based = (base.size, _address(base))
        self._mark_head = (
            _address(in_index[0]), _address(in_index[1]), *edges, *based,
        )
        self._mark_tail = (
            _address(tag), _address(depth), _address(reach), _address(queue),
            _address(self._counts),
        )
        self._emit_head = (num_nodes, num_edges, *edges, _address(edge_rate), *based)
        self._emit_stamps = (
            _address(tag), _address(depth), _address(reach), _address(local),
            _address(edge_mark),
        )
        self._mark, self._emit = lib.subgraph_mark, lib.subgraph_emit
        self._num_nodes = num_nodes
        self._epoch = 0

    def __call__(self, target: int, radius: int | None) -> tuple:
        if not 0 <= target < self._num_nodes:
            raise IndexError(f"target {target} outside 0..{self._num_nodes - 1}")
        self._epoch += 1
        epoch = self._epoch
        self._mark(
            *self._mark_head, target, -1 if radius is None else radius, epoch,
            *self._mark_tail,
        )
        reached, edges, roots = self._counts.tolist()
        n = reached or 1
        block = np.empty(3 * n + 2 + roots + 4 * edges, dtype=np.int64)
        rates = np.empty(edges)
        self._emit(
            *self._emit_head, target, epoch, *self._emit_stamps,
            reached, edges, roots, _address(block), _address(rates),
        )
        parts, start = [], 0
        for size in (n, n, roots, n + 1, edges, edges, edges, edges):
            parts.append(block[start : start + size])
            start += size
        nodes, depths, roots, indptr, indices, edge_ids, sources, targets = parts
        return (
            nodes, depths, roots, (indptr, indices, rates), edge_ids, sources,
            targets, int(block[-1]),
        )


def bind_subgraph_kernel(
    graph: AuthorityTransferDataGraph, base: np.ndarray
) -> SubgraphKernel | None:
    """The compiled extraction of ``graph``'s explaining subgraphs from the
    base-set indices ``base``, or ``None`` when the kernel is unavailable or
    an array is not the int64 / float64 vector of the graph's size it needs
    (the caller then extracts with numpy)."""
    lib = _ensure()
    if lib is None:
        return None
    base = np.asarray(base)
    in_index, out_index = graph.positive_incidence()
    n, m = graph.num_nodes, graph.num_edges
    integer = (*in_index, *out_index, graph.edge_source, graph.edge_target, base)
    if not (
        in_index[0].shape == out_index[0].shape == (n + 1,)
        and in_index[1].shape == out_index[1].shape
        and graph.edge_source.shape == graph.edge_target.shape
        == graph.edge_rate.shape == (m,)
        and base.ndim == 1
        and all(array.dtype == np.int64 for array in integer)
        and graph.edge_rate.dtype == np.float64
        and all(array.flags.c_contiguous for array in (*integer, graph.edge_rate))
        and (base.size == 0 or (0 <= base.min() and base.max() < n))
    ):
        return None
    return SubgraphKernel(
        lib, in_index, out_index, graph.edge_source, graph.edge_target,
        graph.edge_rate, base,
    )


def _flow_fixpoints(
    lib: ctypes.CDLL,
    operators: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    targets: list[int],
    tolerance: float,
    max_iterations: int,
) -> list[tuple[np.ndarray, list[float], int, bool]]:
    count = len(operators)
    sizes = np.asarray([indptr.size - 1 for indptr, _, _ in operators], dtype=np.int64)
    local_targets = np.asarray(targets, dtype=np.int64)
    addresses = np.asarray(
        [[_address(array) for array in operator] for operator in operators],
        dtype=np.uintp,
    ).T.copy()
    h = np.empty(int(sizes.sum()))
    scratch = np.empty(int(sizes.max()))
    residuals = np.empty((count, max_iterations))
    iterations = np.empty(count, dtype=np.int64)
    converged = np.empty(count, dtype=np.uint8)
    lib.flow_fixpoint(
        count, _address(sizes), _address(local_targets),
        *(_address(row) for row in addresses), tolerance, max_iterations,
        _address(h), _address(scratch), _address(residuals),
        _address(iterations), _address(converged),
    )
    found, start = [], 0
    for trace, size, steps, done in zip(
        residuals, sizes.tolist(), iterations.tolist(), converged.tolist()
    ):
        found.append((h[start : start + size], trace[:steps].tolist(), steps, bool(done)))
        start += size
    return found


def flow_fixpoints(
    operators: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    targets: list[int],
    tolerance: float,
    max_iterations: int,
) -> list[tuple[np.ndarray, list[float], int, bool]] | None:
    """The Equation 10 fixpoint of every ``(indptr, indices, rates)``
    operator (target row ``targets[i]`` pinned to 1.0) through the compiled
    kernel: per operator ``(h, residual trace, iterations, converged)``,
    ``h`` a view of one shared buffer.  ``None`` when the kernel is
    unavailable, ``max_iterations < 1`` or an operator is not the
    int64 / int64 / float64 CSR triple it needs (the caller then iterates
    with numpy)."""
    lib = _ensure()
    if lib is None or max_iterations < 1 or not operators:
        return None
    for (indptr, indices, rates), target in zip(operators, targets):
        if not (
            indptr.ndim == 1
            and indptr.size >= 2
            and indptr.dtype == indices.dtype == np.int64
            and rates.dtype == np.float64
            and indptr[0] == 0
            and indices.shape == rates.shape == (indptr[-1],)
            and 0 <= target < indptr.size - 1
            and all(a.flags.c_contiguous for a in (indptr, indices, rates))
        ):
            return None
    return _flow_fixpoints(lib, operators, targets, tolerance, max_iterations)
