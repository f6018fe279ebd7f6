/* The explain kernels of repro.ranking._native: explaining-subgraph
 * extraction and the Equation 10 fixpoint, a second translation unit built
 * beside ranking.c and linked into the same library.
 */

#include <stdint.h>
#include <math.h>

/* Explaining-subgraph extraction over the positive-rate incidence, in two
 * calls: subgraph_mark stamps the two BFS passes and counts, subgraph_emit
 * reads the subgraph off the stamps into arrays sized by those counts.
 *
 * Backward pass: FIFO BFS from the target over the in-incidence; a source
 * enters when unstamped, at its parent's depth + 1, and nodes at depth >=
 * radius are not expanded (radius < 0: no limit).  FIFO order
 * discovers every node at its shortest distance, so the set and the depths
 * are the level-synchronous pass's.  Forward pass: FIFO BFS from the base
 * nodes inside that set, along out-edges whose head is inside it; every
 * such edge out of a reached node is a subgraph edge.  counts gets
 * (reached nodes, subgraph edges, roots counted with multiplicity).
 */
void subgraph_mark(const int64_t *in_indptr, const int64_t *in_edges,
                   const int64_t *out_indptr, const int64_t *out_edges,
                   const int64_t *edge_source, const int64_t *edge_target,
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
            if (tag[s] != epoch) {
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
