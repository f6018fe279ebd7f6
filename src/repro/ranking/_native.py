"""Optional compiled power-iteration steps: a CSR block step for the blocked
engine and a SELL-4 single-vector step for live runs.

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
separate matrix–vector products.  This module compiles (once per process,
with the system C compiler) a kernel that keeps each row's ``k``
accumulators in registers, prefetches the gathered rows of
``X`` (the CSR column indices tell us which rows are needed several nonzeros
ahead), and fuses the damping/jump update and the per-column residual sums,
computing

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
:func:`repro.ranking.pagerank.power_iteration`.  (Rows missing from the
jump list skip the ``+ 0.0`` — identical for every value except a ``-0.0``
accumulator, which nonnegative ranking iterates never produce.)  The fused
residuals use a sequential row-order sum (numpy uses pairwise summation), so
they agree with the numpy value only to ~n·eps relative; the engine treats
them as the fast approximate residual and recomputes exactly near the
tolerance boundary.

Both kernels are one source, compiled and probed together, and best-effort:
if no C compiler is available, compilation fails, or a runtime probe shows
either step is *not* bitwise-identical to the scipy/numpy sequence (an
unexpected toolchain quirk), every caller silently falls back to the
scipy/numpy path.  Set ``REPRO_NO_NATIVE=1`` to force the fallback.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import threading

import numpy as np
from scipy import sparse

from repro.graph.transfer_graph import SELL_LANES, SellMatrix, sell_layout

#: Hard cap on the block width the kernel's stack accumulator supports.
MAX_WIDTH = 512

#: Widths with a fully-unrolled, register-resident fast path.  Other widths
#: run through a runtime-width body that is correct but roughly half as fast;
#: callers that control their chunking should prefer these.
SPECIALIZED_WIDTHS = (2, 4, 8, 16, 32, 64)

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* One step of blocked power iteration over a CSR matrix:
 *
 *     Y = damping * (A @ X) + jump,    resid[c] = sum_i |Y[i,c] - X[i,c]|
 *
 * X and Y are (n_row, width) C-contiguous.  The jump term is row-compacted:
 * jump_rows lists (sorted, ascending) the rows with any jump mass and jump
 * holds those rows' values as an (n_jump, width) slab — restart vectors are
 * sparse, and not streaming an (n_row, width) slab of mostly zeros is worth
 * more than the branch.  Rows not listed skip the add entirely, which is
 * bitwise-identical to adding 0.0 unless the accumulator is -0.0.
 *
 * Per column the accumulation order matches scipy's csr_matvec (sequential
 * over each row's nonzeros, starting from 0), and the update is `multiply
 * then add`, so with FMA contraction disabled Y is bit-for-bit what width
 * separate scipy matvecs (plus a jump add on listed rows) would produce.
 * The resid sums are in sequential row order (approximate relative to
 * numpy's pairwise sum by ~n*eps).
 *
 * DEFINE_STEP stamps out a width-specialized body: with W a compile-time
 * constant the accumulator array becomes SIMD registers and the inner loops
 * fully unroll.  The gathered rows of X are software-prefetched a few
 * nonzeros ahead (every cache line of the row); CSR gathers are
 * latency-bound on this access pattern.
 */

#define PREFETCH_DISTANCE 12

#define STEP_BODY(W)                                                         \
    int64_t jp = 0;                                                          \
    for (int64_t i = 0; i < n_row; i++) {                                    \
        double acc[W];                                                       \
        for (int64_t c = 0; c < W; c++) acc[c] = 0.0;                        \
        const int32_t row_end = indptr[i + 1];                               \
        for (int32_t jj = indptr[i]; jj < row_end; jj++) {                   \
            if (jj + PREFETCH_DISTANCE < row_end) {                          \
                const double *pf =                                           \
                    x + (int64_t)indices[jj + PREFETCH_DISTANCE] * W;        \
                for (int64_t l = 0; l < W; l += 8)                           \
                    __builtin_prefetch(pf + l, 0, 1);                        \
            }                                                                \
            const double a = data[jj];                                       \
            const double *xr = x + (int64_t)indices[jj] * W;                 \
            for (int64_t c = 0; c < W; c++) acc[c] += a * xr[c];             \
        }                                                                    \
        double *yr = y + i * W;                                              \
        const double *xo = x + i * W;                                        \
        if (jp < n_jump && jump_rows[jp] == i) {                             \
            const double *jr = jump + jp * W;                                \
            jp++;                                                            \
            for (int64_t c = 0; c < W; c++) {                                \
                const double v = damping * acc[c] + jr[c];                   \
                yr[c] = v;                                                   \
                resid[c] += fabs(v - xo[c]);                                 \
            }                                                                \
        } else {                                                             \
            for (int64_t c = 0; c < W; c++) {                                \
                const double v = damping * acc[c];                           \
                yr[c] = v;                                                   \
                resid[c] += fabs(v - xo[c]);                                 \
            }                                                                \
        }                                                                    \
    }

#define DEFINE_STEP(W)                                                       \
static void step_##W(const int64_t n_row,                                    \
                     const int32_t *indptr, const int32_t *indices,          \
                     const double *data, const double *x,                    \
                     const int64_t n_jump, const int32_t *jump_rows,         \
                     const double *jump, const double damping,               \
                     double *y, double *resid)                               \
{                                                                            \
    STEP_BODY(W)                                                             \
}

DEFINE_STEP(2)
DEFINE_STEP(4)
DEFINE_STEP(8)
DEFINE_STEP(16)
DEFINE_STEP(32)
DEFINE_STEP(64)

static void step_generic(const int64_t n_row, const int64_t width,
                         const int32_t *indptr, const int32_t *indices,
                         const double *data, const double *x,
                         const int64_t n_jump, const int32_t *jump_rows,
                         const double *jump, const double damping,
                         double *y, double *resid)
{
    const int64_t W = width;
    double acc[512];
    STEP_BODY(W)
}

void blocked_step(const int64_t n_row,
                  const int64_t width,
                  const int32_t *indptr,
                  const int32_t *indices,
                  const double *data,
                  const double *x,
                  const int64_t n_jump,
                  const int32_t *jump_rows,
                  const double *jump,
                  const double damping,
                  double *y,
                  double *resid)
{
    for (int64_t c = 0; c < width; c++) resid[c] = 0.0;
    switch (width) {
    case 2:  step_2(n_row, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid); break;
    case 4:  step_4(n_row, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid); break;
    case 8:  step_8(n_row, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid); break;
    case 16: step_16(n_row, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid); break;
    case 32: step_32(n_row, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid); break;
    case 64: step_64(n_row, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid); break;
    default:
        step_generic(n_row, width, indptr, indices, data, x, n_jump, jump_rows, jump, damping, y, resid);
    }
}

/* One step of single-vector power iteration over a SELL matrix:
 *
 *     y = damping * (A @ x) + jump,    diff = |y - x|
 *
 * Rows come in groups of L = SELL_LANES (rows[L*g .. L*g + L-1]) whose
 * entries are stored interleaved in [offsets[g], offsets[g+1]): slot
 * offsets[g] + L*j + l holds the j-th entry of lane l's row.  A row's sum is
 * one chain of dependent adds, so one row at a time is bound by add latency;
 * L chains side by side are not.  Each lane starts from 0.0 and adds its
 * row's products in CSR order, like scipy's csr_matvec; padding adds
 * 0.0 * x[n_row] = +0.0, which leaves every accumulator unchanged (one that
 * starts at +0.0 never becomes -0.0).  The update is `multiply then add`
 * with FMA contraction disabled, so y and diff are bit for bit numpy's.
 * x (and y) hold n_row + 1 doubles, the last one 0.0; the kernel never
 * writes y[n_row].
 */
void sell_step(const int64_t n_row,
               const int64_t *offsets,
               const int32_t *columns,
               const double *values,
               const int32_t *rows,
               const double *x,
               const double *jump,
               const double damping,
               double *y,
               double *diff)
{
    const int64_t n_group = (n_row + SELL_LANES - 1) / SELL_LANES;
    for (int64_t g = 0; g < n_group; g++) {
        double acc[SELL_LANES];
        for (int l = 0; l < SELL_LANES; l++) acc[l] = 0.0;
        for (int64_t k = offsets[g]; k < offsets[g + 1]; k += SELL_LANES) {
            for (int l = 0; l < SELL_LANES; l++)
                acc[l] += values[k + l] * x[columns[k + l]];
        }
        const int64_t first = SELL_LANES * g;
        const int64_t lanes =
            n_row - first < SELL_LANES ? n_row - first : SELL_LANES;
        for (int64_t l = 0; l < lanes; l++) {
            const int32_t r = rows[first + l];
            const double v = damping * acc[l] + jump[r];
            y[r] = v;
            diff[r] = fabs(v - x[r]);
        }
    }
}
"""

_BASE_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-funroll-loops"]

#: Tried in order until one compiles: full tuning, then without the x86-only
#: vector-width hint, then without -march=native, then a bare portable build.
_CFLAG_VARIANTS = [
    _BASE_CFLAGS + ["-march=native", "-mprefer-vector-width=512"],
    _BASE_CFLAGS + ["-march=native"],
    _BASE_CFLAGS,
    ["-O2", "-fPIC", "-shared", "-ffp-contract=off"],
]

_lock = threading.Lock()
_kernel = None
_unavailable = False

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


def _compile() -> ctypes.CDLL | None:
    """Compile the kernel into a per-process temp dir; None on any failure."""
    build_dir = tempfile.mkdtemp(prefix="repro-native-")
    source = os.path.join(build_dir, "blocked_step.c")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(f"#define SELL_LANES {SELL_LANES}\n{_SOURCE}")
    for variant, cflags in enumerate(_CFLAG_VARIANTS):
        library = os.path.join(build_dir, f"blocked_step{variant}.so")
        for compiler in ("cc", "gcc"):
            try:
                result = subprocess.run(
                    [compiler, *cflags, "-o", library, source],
                    capture_output=True,
                    timeout=60,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if result.returncode == 0:
                try:
                    return ctypes.CDLL(library)
                except OSError:
                    return None
    return None


def _load() -> ctypes.CDLL | None:
    lib = _compile()
    if lib is None:
        return None
    lib.blocked_step.restype = None
    lib.blocked_step.argtypes = [
        ctypes.c_int64,
        ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        ctypes.c_double,
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
    ]
    # Raw addresses: SellStep checks every buffer and binds them once per run.
    lib.sell_step.restype = None
    lib.sell_step.argtypes = [
        ctypes.c_int64,
        *[ctypes.c_void_p] * 6,
        ctypes.c_double,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    if not _probe_bitwise(lib):
        return None
    return lib


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
    return np.array_equal(y, expected) and np.array_equal(diff, np.abs(expected - x))


def _ensure() -> ctypes.CDLL | None:
    """Lazily compile+probe the kernel once per process; None if unusable."""
    global _kernel, _unavailable
    if _unavailable:
        return None
    if _kernel is None:
        with _lock:
            if _kernel is None and not _unavailable:
                if os.environ.get("REPRO_NO_NATIVE"):
                    _unavailable = True
                else:
                    _kernel = _load()
                    _unavailable = _kernel is None
    return _kernel


def available() -> bool:
    """Whether the compiled kernel is usable (triggers the one-time build)."""
    return _ensure() is not None


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
    if _ensure() is None:
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
    _call(_kernel, matrix, block, jump_rows, jump, damping, out, resid)
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
