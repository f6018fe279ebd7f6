/* The ranking steps of repro.ranking._native: a CSR block step for the
 * blocked engine and a SELL single-vector step for live runs.  The loader
 * compiles this unit with -DSELL_LANES=<lanes> (the row-group width of
 * repro.graph.transfer_graph.SellLayout) and -ffp-contract=off.
 */

#include <stdint.h>
#include <math.h>

#ifndef SELL_LANES
#error "compile with -DSELL_LANES=<lanes>"
#endif

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

static void step_generic(const int64_t n_row, const int64_t width,
                         const int32_t *indptr, const int32_t *indices,
                         const double *data, const double *x,
                         const int64_t n_jump, const int32_t *jump_rows,
                         const double *jump, const double damping,
                         double *y, double *resid)
{
    const int64_t W = width;
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
