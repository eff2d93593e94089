/* The round engine's kernels over one chunk of rounds (see protocol.py).
 *
 * Mixing is read per round as a graph index into CSR arrays: row j of
 * graph g holds entries indptr[g*n + j] .. indptr[g*n + j + 1] - 1, in
 * ascending column order, which is the order every reduction runs in.
 * Arrays are C-ordered float64 with one row per round.  Build without
 * contraction to FMA (-ffp-contract=off) so every sum and product rounds
 * as it does in Python.
 */
#include <math.h>
#include <stdint.h>

/* Surrogate CCF at z: the load at or below z, plus the climbed part of
 * the ramp of width c ending at the next breakpoint.  The search keeps
 * bisect_right's comparisons, so a NaN z lands past the end. */
static inline double surrogate_at(double z, const double *b, int64_t bn,
                                  const double *cum, double c)
{
    int64_t lo = 0, hi = bn;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (z < b[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    double below = lo ? cum[lo - 1] : 0.0, v = below;
    if (lo < bn) {
        double d = z - b[lo];
        if (d > -c)
            v += (cum[lo] - below) * (d / c + 1.0);
    }
    return v;
}

void surrogate(int64_t count, const double *z, const double *b, int64_t bn,
               const double *cum, double c, double *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = surrogate_at(z[i], b, bn, cum, c);
}

/* x(t+1) = W(t) x(t) - eta(t) (S_j(x_j(t)) - p_j(t)) for rounds t0 ..
 * t0+m-1, with eta(t) = gain / (t + offset)^exponent.  Region j's
 * breakpoints and cumulative loads are b[bstart[j] .. bstart[j+1]-1]. */
void x_rounds(int64_t n, int64_t m, int64_t t0, double gain, double offset,
              double exponent, const int32_t *graph, const int64_t *indptr,
              const int32_t *col, const double *w, const double *P,
              const int64_t *bstart, const double *b, const double *cum,
              double c, const double *x, double *X, double *etas)
{
    for (int64_t r = 0; r < m; r++) {
        double base = (double)(t0 + r) + offset;
        double eta = exponent == 1.0 ? gain / base : gain / pow(base, exponent);
        const double *prev = r ? X + (r - 1) * n : x;
        const int64_t *row = indptr + (int64_t)graph[r] * n;
        etas[r] = eta;
        for (int64_t j = 0; j < n; j++) {
            int64_t s = bstart[j];
            double v = surrogate_at(prev[j], b + s, bstart[j + 1] - s, cum + s, c);
            double acc = 0.0;
            for (int64_t e = row[j]; e < row[j + 1]; e++)
                acc += w[e] * prev[col[e]];
            X[r * n + j] = acc - eta * (v - P[r * n + j]);
        }
    }
}

/* Dynamic min-consensus with local self-tuning: each node takes the least
 * of its own and its neighbours' previous values, inflated by its own step
 * alpha, and its fresh cutoff Z[r][j]; alpha resets to 1/2 after an
 * increase and is `half` otherwise. */
void dmc_rounds(int64_t n, int64_t m, const int32_t *graph,
                const int64_t *indptr, const int32_t *col, const double *Z,
                double half, const double *z, const double *alpha,
                double *Zo, double *Ao)
{
    for (int64_t r = 0; r < m; r++) {
        const double *pz = r ? Zo + (r - 1) * n : z;
        const double *pa = r ? Ao + (r - 1) * n : alpha;
        const int64_t *row = indptr + (int64_t)graph[r] * n;
        for (int64_t j = 0; j < n; j++) {
            /* the row's own diagonal entry recomputes best's first value,
             * which never compares below it */
            double a = pa[j], best = pz[j] + a;
            for (int64_t e = row[j]; e < row[j + 1]; e++) {
                double cand = pz[col[e]] + a;
                if (cand < best)
                    best = cand;
            }
            if (Z[r * n + j] < best)
                best = Z[r * n + j];
            Zo[r * n + j] = best;
            Ao[r * n + j] = best > pz[j] ? 0.5 : half;
        }
    }
}
