/* Compiled kernels behind repro.perf.kernels' "cext" backend.
 *
 * Three hot loops, each a transcription of the NumPy reference in
 * repro/perf/bitparallel.py and repro/perf/anneal.py so the produced
 * decisions are identical:
 *
 *   - enumerate_levels: the level-by-level k-cplex mask enumeration.
 *     Pure integer arithmetic, bit-for-bit equal to the reference.
 *   - sa_sweep_chunk:  one chunk of the Gauss-Seidel Metropolis sweep —
 *     bulk field build (same nnz accumulation order as SciPy's
 *     csr @ dense product) + intra-chunk forward scatter.  Float ops
 *     replay the reference's exact sequence; the only divergence window
 *     is libm's exp() vs NumPy's (<= 1 ulp), which can flip an
 *     acceptance only when a uniform draw lands in that 2^-52 gap.
 *   - tabu_descend: the batched single-flip tabu loop.  First-minimum
 *     argmin tie-break, 1e-12 aspiration slack, identical float
 *     evaluation order — exactly reproducible (no transcendentals).
 *
 * Compiled on demand by repro/perf/cext.py with the system C compiler;
 * no Python.h dependency (plain shared library driven through ctypes).
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) __builtin_popcountll(x)
#else
static int POPCOUNT64(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}
#endif

#if defined(__GNUC__) || defined(__clang__)
#define LOWBIT64(x) __builtin_ctzll(x)
#else
static int LOWBIT64(uint64_t x) {
    int i = 0;
    while (!((x >> i) & 1ULL)) ++i;
    return i;
}
#endif

/* Every mask whose selected vertices all have
 * popcount(mask & adj[v]) <= limit, grouped by size and ascending
 * inside each size.  The set is hereditary, so level s + 1 holds the
 * members of level s extended by one vertex above their top bit; taken
 * vertex by vertex, those extensions come out ascending.  A child
 * c = p | bit(v) of a member p can only break at v itself or at a
 * member u of p with v in adj[u], so only those are re-counted.
 *
 * adj holds one mask per vertex (n <= 64).  Returns a malloc'd array
 * of all members, level after level (free it with release_levels), or
 * NULL when memory runs out.  counts (n + 1 entries) receives each
 * level's size, *candidates the number of children tested. */
int64_t *enumerate_levels(
    const uint64_t *adj, int64_t n, int64_t limit,
    int64_t *counts, int64_t *candidates)
{
    uint64_t radj[64];
    for (int64_t v = 0; v < n; ++v) {
        radj[v] = 0;
        for (int64_t u = 0; u < n; ++u)
            if ((adj[u] >> v) & 1ULL) radj[v] |= 1ULL << u;
    }
    int64_t cap = 1024;
    int64_t *out = malloc((size_t)cap * sizeof(int64_t));
    if (out == NULL) return NULL;
    for (int64_t s = 0; s <= n; ++s) counts[s] = 0;
    out[0] = 0;
    counts[0] = 1;
    int64_t lo = 0, hi = 1, total = 1, tested = 0;
    for (int64_t s = 0; s < n && hi > lo; ++s) {
        for (int64_t v = 0; v < n; ++v) {
            const uint64_t bit = 1ULL << v;
            for (int64_t i = lo; i < hi; ++i) {
                const uint64_t p = (uint64_t)out[i];
                if (p >= bit) break;
                ++tested;
                const uint64_t c = p | bit;
                if (POPCOUNT64(c & adj[v]) > limit) continue;
                uint64_t touched = p & radj[v];
                int keep = 1;
                while (touched) {
                    const int u = LOWBIT64(touched);
                    touched &= touched - 1;
                    if (POPCOUNT64(c & adj[u]) > limit) { keep = 0; break; }
                }
                if (!keep) continue;
                if (total == cap) {
                    int64_t *grown = realloc(out, (size_t)(2 * cap) * sizeof(int64_t));
                    if (grown == NULL) { free(out); return NULL; }
                    out = grown;
                    cap *= 2;
                }
                out[total++] = (int64_t)c;
            }
        }
        counts[s + 1] = total - hi;
        lo = hi;
        hi = total;
    }
    *candidates = tested;
    return out;
}

void release_levels(int64_t *levels)
{
    free(levels);
}

/* One chunk [start, end) of a Metropolis sweep over the transposed
 * (n, reads) ±1 replica matrix.  fields_scratch has room for
 * (end - start) * reads doubles.  Returns accepted flips. */
int64_t sa_sweep_chunk(
    int64_t reads, int64_t start, int64_t end,
    const int64_t *restrict sub_indptr, const int64_t *restrict sub_indices,
    const double *restrict sub_data,
    const double *restrict h_c, const double *restrict rs_c,
    const int64_t *restrict iptr, const int64_t *restrict icols,
    const double *restrict ivals,
    double *restrict spins_t, const double *restrict uniforms,
    double neg_beta, double *restrict fields_scratch)
{
    int64_t nc = end - start;
    /* Bulk field build: jt = J_block @ spins_t accumulated per output
     * cell in nnz order (SciPy's csr_matvecs order), then the
     * reference's exact (rs - jt) * 0.5 + h op sequence.  The restrict
     * qualifiers let the compiler vectorize the += over replicas (each
     * r accumulates independently, so lane order never changes the
     * float result). */
    for (int64_t li = 0; li < nc; ++li) {
        double *restrict frow = fields_scratch + li * reads;
        for (int64_t r = 0; r < reads; ++r) frow[r] = 0.0;
        for (int64_t jj = sub_indptr[li]; jj < sub_indptr[li + 1]; ++jj) {
            const double a = sub_data[jj];
            const double *restrict srow = spins_t + sub_indices[jj] * reads;
            for (int64_t r = 0; r < reads; ++r) frow[r] += a * srow[r];
        }
        const double rs = rs_c[li];
        const double hh = h_c[li];
        for (int64_t r = 0; r < reads; ++r)
            frow[r] = (rs - frow[r]) * 0.5 + hh;
    }
    int64_t flips = 0;
    for (int64_t li = 0; li < nc; ++li) {
        double *t = spins_t + (start + li) * reads;
        const double *u = uniforms + (start + li) * reads;
        const int64_t lo = iptr[li], hi = iptr[li + 1];
        for (int64_t r = 0; r < reads; ++r) {
            double d = t[r] * fields_scratch[li * reads + r];
            int accept;
            if (d <= 0.0) {
                /* clip(d, 0, 700) == 0, exp(0) == 1.0 exactly, and
                 * uniforms live in [0, 1): always accepted. */
                accept = 1;
            } else {
                if (d > 700.0) d = 700.0;
                accept = u[r] < exp(d * neg_beta);
            }
            if (accept) {
                ++flips;
                const double tr = t[r];
                for (int64_t jj = lo; jj < hi; ++jj)
                    fields_scratch[icols[jj] * reads + r] += ivals[jj] * tr;
                t[r] = -tr;
            }
        }
    }
    return flips;
}

/* Whole-plan Metropolis sweep: iterates every chunk of a packed sweep
 * plan in one call, so the per-sweep Python cost is a single ctypes
 * dispatch instead of one per chunk.  ``bounds`` holds the nchunks + 1
 * chunk boundaries; the flat arrays are the per-chunk plan slices
 * concatenated, with ``*_off`` giving each chunk's base offset.
 * fields_scratch needs room for the widest chunk. */
int64_t sa_sweep_plan(
    int64_t reads, int64_t nchunks,
    const int64_t *restrict bounds,
    const int64_t *restrict ip_flat, const int64_t *restrict ip_off,
    const int64_t *restrict nz_cols, const double *restrict nz_vals,
    const int64_t *restrict nz_off,
    const double *restrict h, const double *restrict rs,
    const int64_t *restrict sp_ptr_flat, const int64_t *restrict sp_ptr_off,
    const int64_t *restrict sp_cols, const double *restrict sp_vals,
    const int64_t *restrict sp_nz_off,
    double *restrict spins_t, const double *restrict uniforms,
    double neg_beta, double *restrict fields_scratch)
{
    int64_t flips = 0;
    for (int64_t c = 0; c < nchunks; ++c) {
        flips += sa_sweep_chunk(
            reads, bounds[c], bounds[c + 1],
            ip_flat + ip_off[c],
            nz_cols + nz_off[c], nz_vals + nz_off[c],
            h + bounds[c], rs + bounds[c],
            sp_ptr_flat + sp_ptr_off[c],
            sp_cols + sp_nz_off[c], sp_vals + sp_nz_off[c],
            spins_t, uniforms, neg_beta, fields_scratch);
    }
    return flips;
}

/* Batched single-flip tabu descent over (R, n) 0/1 states.  x, energy
 * are advanced in place; best_x / best_energy must enter as copies of
 * x / energy.  delta and tabu_until are (R, n) scratch (contents
 * ignored on entry).  record (iterations * R entries) receives the
 * chosen variable per replica per step when non-NULL. */
void tabu_descend(
    int64_t R, int64_t n,
    const int64_t *indptr, const int64_t *indices, const double *data,
    const double *h,
    int8_t *x, double *energy,
    int64_t iterations, int64_t tenure,
    int64_t *record,
    int8_t *best_x, double *best_energy,
    double *delta, int64_t *tabu_until)
{
    /* Delta table init: fields[j] = h[j] + sum_nnz data * x[col]
     * (nnz accumulation order = SciPy csr @ dense), then
     * delta = (1 - 2x) * fields. */
    for (int64_t r = 0; r < R; ++r) {
        const int8_t *xr = x + r * n;
        double *dr = delta + r * n;
        for (int64_t j = 0; j < n; ++j) {
            double f = 0.0;
            for (int64_t jj = indptr[j]; jj < indptr[j + 1]; ++jj)
                f += data[jj] * (double)xr[indices[jj]];
            f += h[j];
            dr[j] = (1.0 - 2.0 * (double)xr[j]) * f;
        }
        for (int64_t j = 0; j < n; ++j) tabu_until[r * n + j] = 0;
    }
    for (int64_t step = 1; step <= iterations; ++step) {
        for (int64_t r = 0; r < R; ++r) {
            int8_t *xr = x + r * n;
            double *dr = delta + r * n;
            int64_t *tr = tabu_until + r * n;
            const double aspiration = best_energy[r] - 1e-12;
            /* First-minimum argmin over allowed moves; when every move
             * is tabu without aspiration the whole row is freed. */
            int64_t chosen = -1;
            double best_score = 0.0;
            for (int64_t j = 0; j < n; ++j) {
                if (tr[j] < step || energy[r] + dr[j] < aspiration) {
                    if (chosen < 0 || dr[j] < best_score) {
                        chosen = j;
                        best_score = dr[j];
                    }
                }
            }
            if (chosen < 0) {
                chosen = 0;
                best_score = dr[0];
                for (int64_t j = 1; j < n; ++j) {
                    if (dr[j] < best_score) {
                        chosen = j;
                        best_score = dr[j];
                    }
                }
            }
            if (record != NULL)
                record[(step - 1) * R + r] = chosen;
            const double sign = 1.0 - 2.0 * (double)xr[chosen];
            xr[chosen] ^= 1;
            const double moved = dr[chosen];
            energy[r] += moved;
            dr[chosen] = -moved;
            for (int64_t jj = indptr[chosen]; jj < indptr[chosen + 1]; ++jj) {
                const int64_t col = indices[jj];
                dr[col] += ((1.0 - 2.0 * (double)xr[col]) * data[jj]) * sign;
            }
            tr[chosen] = step + tenure;
            if (energy[r] < best_energy[r] - 1e-12) {
                best_energy[r] = energy[r];
                for (int64_t j = 0; j < n; ++j)
                    best_x[r * n + j] = xr[j];
            }
        }
    }
}
