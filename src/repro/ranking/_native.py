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

All four kernels are compiled into one library (the explain kernels as a
second translation unit, built beside the ranking steps) and probed
together, and best-effort: if no C compiler is available, compilation
fails, or a runtime probe shows a kernel is *not* bitwise-identical to the
scipy/numpy sequence (an unexpected toolchain quirk), every caller silently
falls back to the scipy/numpy path.  Set ``REPRO_NO_NATIVE=1`` to force the
fallback.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading

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

#: The explain kernels, a second translation unit (see :func:`_compile`).
_EXPLAIN_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Explaining-subgraph extraction over the positive-rate incidence, in two
 * calls: subgraph_mark stamps the two BFS passes and counts, subgraph_emit
 * reads the subgraph off the stamps into arrays sized by those counts.
 *
 * Backward pass: FIFO BFS from the target over the in-incidence; a source
 * enters when unstamped and allowed[s], at its parent's depth + 1, and nodes
 * at depth >= radius are not expanded (radius < 0: no limit).  FIFO order
 * discovers every node at its shortest distance, so the set and the depths
 * are the level-synchronous pass's.  Forward pass: FIFO BFS from the base
 * nodes inside that set, along out-edges whose head is inside it; every
 * such edge out of a reached node is a subgraph edge.  counts gets
 * (reached nodes, subgraph edges, roots counted with multiplicity).
 */
void subgraph_mark(const int64_t *in_indptr, const int64_t *in_edges,
                   const int64_t *out_indptr, const int64_t *out_edges,
                   const int64_t *edge_source, const int64_t *edge_target,
                   const uint8_t *allowed,
                   const int64_t n_base, const int64_t *base,
                   const int64_t target, const int64_t radius,
                   const int64_t epoch, int64_t *tag, int64_t *depth,
                   int64_t *reach, int64_t *queue, int64_t *counts)
{
    int64_t head = 0, tail = 0;
    tag[target] = epoch;
    depth[target] = 0;
    queue[tail++] = target;
    while (head < tail) {
        const int64_t v = queue[head++];
        const int64_t next = depth[v] + 1;
        if (radius >= 0 && next > radius) break;  /* FIFO: the rest are as deep */
        for (int64_t k = in_indptr[v]; k < in_indptr[v + 1]; k++) {
            const int64_t s = edge_source[in_edges[k]];
            if (tag[s] != epoch && allowed[s]) {
                tag[s] = epoch;
                depth[s] = next;
                queue[tail++] = s;
            }
        }
    }
    int64_t roots = 0, edges = 0;
    head = tail = 0;
    for (int64_t i = 0; i < n_base; i++) {
        const int64_t b = base[i];
        if (tag[b] != epoch) continue;
        roots++;
        if (reach[b] != epoch) {
            reach[b] = epoch;
            queue[tail++] = b;
        }
    }
    while (head < tail) {
        const int64_t u = queue[head++];
        for (int64_t k = out_indptr[u]; k < out_indptr[u + 1]; k++) {
            const int64_t d = edge_target[out_edges[k]];
            if (tag[d] != epoch) continue;
            edges++;
            if (reach[d] != epoch) {
                reach[d] = epoch;
                queue[tail++] = d;
            }
        }
    }
    counts[0] = tail;
    counts[1] = edges;
    counts[2] = roots;
}

/* The stamped subgraph as arrays.  out (int64) receives, back to back:
 * nodes[n] (ascending), their depths[n], roots[r] (base order and
 * multiplicity), the Equation 10 operator's indptr[n + 1] and indices[m]
 * (rows = nodes, each row's edges in out-incidence order, i.e. ascending
 * edge id), edge_ids[m] (ascending), their local sources[m] and targets[m],
 * and the target's local index; rates (float64) gets the operator's m
 * rates.  Nodes are read off the stamps in index order, edge ids off a byte
 * mark per edge that the final scan clears again: nothing is sorted.
 * n_reached == 0 is the target alone, with no edge.  local (per graph
 * node) is scratch.
 */
void subgraph_emit(const int64_t num_nodes, const int64_t num_edges,
                   const int64_t *out_indptr, const int64_t *out_edges,
                   const int64_t *edge_source, const int64_t *edge_target,
                   const double *edge_rate,
                   const int64_t n_base, const int64_t *base,
                   const int64_t target, const int64_t epoch,
                   const int64_t *tag, const int64_t *depth,
                   const int64_t *reach, int64_t *local, uint8_t *edge_mark,
                   const int64_t n_reached, const int64_t n_edges,
                   const int64_t n_roots, int64_t *out, double *rates)
{
    const int64_t n = n_reached ? n_reached : 1;
    int64_t *nodes = out, *depths = nodes + n, *roots = depths + n;
    int64_t *indptr = roots + n_roots, *indices = indptr + n + 1;
    int64_t *edge_ids = indices + n_edges, *sources = edge_ids + n_edges;
    int64_t *targets = sources + n_edges;
    int64_t count = 0;
    for (int64_t v = 0; v < num_nodes; v++) {
        if (reach[v] != epoch) continue;
        local[v] = count;
        nodes[count] = v;
        depths[count] = depth[v];
        count++;
    }
    if (!n_reached) {
        local[target] = 0;
        nodes[0] = target;
        depths[0] = 0;
    }
    targets[n_edges] = local[target];
    count = 0;
    for (int64_t i = 0; i < n_base; i++)
        if (tag[base[i]] == epoch) roots[count++] = base[i];
    count = 0;
    indptr[0] = 0;
    for (int64_t i = 0; i < n_reached; i++) {
        const int64_t u = nodes[i];
        for (int64_t k = out_indptr[u]; k < out_indptr[u + 1]; k++) {
            const int64_t e = out_edges[k];
            const int64_t d = edge_target[e];
            if (tag[d] != epoch) continue;
            indices[count] = local[d];
            rates[count] = edge_rate[e];
            edge_mark[e] = 1;
            count++;
        }
        indptr[i + 1] = count;
    }
    if (!n_reached) indptr[1] = 0;
    if (!n_edges) return;
    count = 0;
    for (int64_t e = 0; e < num_edges; e++) {
        if (!edge_mark[e]) continue;
        edge_mark[e] = 0;
        edge_ids[count] = e;
        sources[count] = local[edge_source[e]];
        targets[count] = local[edge_target[e]];
        count++;
    }
}

/* out = A @ h for one Equation 10 operator in CSR form.  Each row's sum
 * starts from 0.0 and adds rate * h[column] in CSR order, scipy's
 * csr_matvec sequence.  A row's sum is one chain of dependent adds, so four
 * consecutive rows run side by side up to the shortest of the four, then
 * each finishes its own tail: every row keeps its order.
 */
static void flow_sweep(const int64_t n, const int64_t *indptr,
                       const int64_t *indices, const double *rates,
                       const double *h, double *out)
{
    int64_t u = 0;
    for (; u + 4 <= n; u += 4) {
        const int64_t s0 = indptr[u], s1 = indptr[u + 1], s2 = indptr[u + 2],
                      s3 = indptr[u + 3], e3 = indptr[u + 4];
        int64_t shortest = s1 - s0;
        if (s2 - s1 < shortest) shortest = s2 - s1;
        if (s3 - s2 < shortest) shortest = s3 - s2;
        if (e3 - s3 < shortest) shortest = e3 - s3;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (int64_t j = 0; j < shortest; j++) {
            a0 += rates[s0 + j] * h[indices[s0 + j]];
            a1 += rates[s1 + j] * h[indices[s1 + j]];
            a2 += rates[s2 + j] * h[indices[s2 + j]];
            a3 += rates[s3 + j] * h[indices[s3 + j]];
        }
        for (int64_t j = s0 + shortest; j < s1; j++) a0 += rates[j] * h[indices[j]];
        for (int64_t j = s1 + shortest; j < s2; j++) a1 += rates[j] * h[indices[j]];
        for (int64_t j = s2 + shortest; j < s3; j++) a2 += rates[j] * h[indices[j]];
        for (int64_t j = s3 + shortest; j < e3; j++) a3 += rates[j] * h[indices[j]];
        out[u] = a0;
        out[u + 1] = a1;
        out[u + 2] = a2;
        out[u + 3] = a3;
    }
    for (; u < n; u++) {
        double a = 0.0;
        for (int64_t j = indptr[u]; j < indptr[u + 1]; j++) a += rates[j] * h[indices[j]];
        out[u] = a;
    }
}

/* The Equation 10 fixpoint for n_segment independent operators, one after
 * the other: h = 1, then h' = A @ h, h'[target] = 1.0, residual = max |h' -
 * h| (an exact max, order-free; a NaN difference makes it NaN, as numpy's
 * maximum does), until residual < tolerance or max_iterations (>= 1).
 * Segment s reads its CSR triple from the addresses indptrs[s],
 * indices[s], rates[s]; its factors land in h at the running offset of
 * sizes, its residual trace in residuals[s * max_iterations ...], its
 * count and flag in iterations[s] and converged[s].  scratch holds the
 * largest segment.
 */
void flow_fixpoint(const int64_t n_segment, const int64_t *sizes,
                   const int64_t *targets, const uintptr_t *indptrs,
                   const uintptr_t *indices, const uintptr_t *rates,
                   const double tolerance, const int64_t max_iterations,
                   double *h, double *scratch, double *residuals,
                   int64_t *iterations, uint8_t *converged)
{
    for (int64_t s = 0; s < n_segment; s++) {
        const int64_t n = sizes[s];
        const int64_t *ip = (const int64_t *)indptrs[s];
        const int64_t *ix = (const int64_t *)indices[s];
        const double *rt = (const double *)rates[s];
        double *trace = residuals + s * max_iterations;
        double *cur = h, *next = scratch;
        for (int64_t i = 0; i < n; i++) cur[i] = 1.0;
        int64_t it = 0;
        int done = 0;
        while (!done && it < max_iterations) {
            flow_sweep(n, ip, ix, rt, cur, next);
            next[targets[s]] = 1.0;
            double worst = 0.0;
            int nan = 0;
            for (int64_t i = 0; i < n; i++) {
                const double d = fabs(next[i] - cur[i]);
                if (d != d) nan = 1;
                else if (d > worst) worst = d;
            }
            if (nan) worst = NAN;
            trace[it++] = worst;
            double *swap = cur;
            cur = next;
            next = swap;
            done = worst < tolerance;
        }
        if (cur != h)
            for (int64_t i = 0; i < n; i++) h[i] = cur[i];
        iterations[s] = it;
        converged[s] = (uint8_t)done;
        h += n;
    }
}
"""

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
    """Compile the kernels into a per-process temp dir; None on any failure.

    The ranking steps and the explain kernels are two translation units,
    compiled side by side and linked into one library, so on two cores the
    explain kernels build while the ranking steps do.  The directory is
    removed on every path: a mapped library outlives its file.
    """
    build_dir = tempfile.mkdtemp(prefix="repro-native-")
    try:
        return _build_in(build_dir)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def _build_in(build_dir: str) -> ctypes.CDLL | None:
    """The kernels compiled and linked in ``build_dir`` and mapped, or
    ``None`` when no compiler and flag variant produces a loadable one."""
    units = []
    for name, source, extra in (
        ("ranking", f"#define SELL_LANES {SELL_LANES}\n{_SOURCE}", []),
        ("explain", _EXPLAIN_SOURCE, _EXPLAIN_CFLAGS),
    ):
        path = os.path.join(build_dir, f"{name}.c")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        units.append((path, extra))
    for variant, cflags in enumerate(_CFLAG_VARIANTS):
        library = os.path.join(build_dir, f"kernels{variant}.so")
        objects = [f"{path[:-2]}{variant}.o" for path, _ in units]
        for compiler in ("cc", "gcc"):
            compiles = [
                [compiler, *cflags, *extra, "-c", "-o", obj, path]
                for (path, extra), obj in zip(units, objects)
            ]
            if _side_by_side(compiles) and _side_by_side(
                [[compiler, "-shared", "-o", library, *objects]]
            ):
                try:
                    return ctypes.CDLL(library)
                except OSError:
                    return None
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
    # The explain kernels take raw addresses too: their wrappers check every
    # buffer first.
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    lib.subgraph_mark.restype = None
    lib.subgraph_mark.argtypes = [
        *[pointer] * 7, count, pointer, count, count, count, *[pointer] * 5,
    ]
    lib.subgraph_emit.restype = None
    lib.subgraph_emit.argtypes = [
        count, count, *[pointer] * 5, count, pointer, count, count,
        *[pointer] * 5, count, count, count, pointer, pointer,
    ]
    lib.flow_fixpoint.restype = None
    lib.flow_fixpoint.argtypes = [
        count, *[pointer] * 5, ctypes.c_double, count, *[pointer] * 5,
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
        edge_target, np.asarray(rate), np.asarray([0, 5, 0]), np.ones(6, bool),
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


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


class SubgraphKernel:
    """Explaining-subgraph extraction bound to one graph's positive-rate
    incidence, one base set and one ``within`` mask.

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
        allowed: np.ndarray,
    ) -> None:
        num_nodes, num_edges = allowed.size, edge_source.size
        tag, reach = np.zeros((2, num_nodes), dtype=np.int64)
        depth, local, queue = np.empty((3, num_nodes), dtype=np.int64)
        edge_mark = np.zeros(num_edges, dtype=np.uint8)
        allowed = np.ascontiguousarray(allowed, dtype=bool).view(np.uint8)
        self._counts = np.zeros(3, dtype=np.int64)
        # The kernel reads these by address: keep them alive with the binding.
        self._arrays = (
            in_index, out_index, edge_source, edge_target, edge_rate, base,
            allowed, tag, reach, depth, local, queue, edge_mark,
        )
        edges = (
            _address(out_index[0]), _address(out_index[1]),
            _address(edge_source), _address(edge_target),
        )
        based = (base.size, _address(base))
        self._mark_head = (
            _address(in_index[0]), _address(in_index[1]), *edges,
            _address(allowed), *based,
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
    graph: AuthorityTransferDataGraph, base: np.ndarray, allowed: np.ndarray
) -> SubgraphKernel | None:
    """The compiled extraction of ``graph``'s explaining subgraphs from the
    base-set indices ``base``, confined to the nodes ``allowed`` (a bool mask
    per node), or ``None`` when the kernel is unavailable or an array is not
    the int64 / float64 vector of the graph's size it needs (the caller then
    extracts with numpy)."""
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
        and allowed.shape == (n,)
        and base.ndim == 1
        and all(array.dtype == np.int64 for array in integer)
        and graph.edge_rate.dtype == np.float64
        and all(array.flags.c_contiguous for array in (*integer, graph.edge_rate))
        and (base.size == 0 or (0 <= base.min() and base.max() < n))
    ):
        return None
    return SubgraphKernel(
        lib, in_index, out_index, graph.edge_source, graph.edge_target,
        graph.edge_rate, base, allowed,
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
