/* The round engine's kernel over one chunk of rounds (see protocol.py).
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

/* The cutoff at x: the smallest breakpoint at or above x, or +inf when
 * none is or x is NaN (numpy's searchsorted(side="left") over them). */
static inline double cutoff_at(double x, const double *b, int64_t bn)
{
    int64_t lo = 0, hi = bn;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x <= b[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < bn ? b[lo] : INFINITY;
}

void surrogate(int64_t count, const double *z, const double *b, int64_t bn,
               const double *cum, double c, double *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = surrogate_at(z[i], b, bn, cum, c);
}

/* Rounds t0 .. t0+m-1 of the protocol, each one whole before the next:
 *  - the estimates x(t+1) = W(t) x(t) - eta(t) (S_j(x_j(t)) - p_j(t)),
 *    with eta(t) = gain / (t + offset)^exponent;
 *  - each region's cutoff at its new estimate;
 *  - the streak: how many consecutive rounds the cutoff row has not
 *    changed, carried across calls in *streak;
 *  - dynamic min-consensus with local self-tuning: each node takes the
 *    least of its own and its neighbours' previous values, inflated by its
 *    own step alpha, and its fresh cutoff; alpha resets to 1/2 after an
 *    increase and is c/2 otherwise.
 * Region j's breakpoints and cumulative loads are b[bstart[j] ..
 * bstart[j+1]-1].  state holds four blocks of m + 1 rows of n: the
 * estimates, cutoffs, min-consensus values and steps; row 0 of each is
 * the state before round t0 and row r + 1 the state after round t0 + r.
 * Returns the number of rounds run: m, or fewer when the streak reaches
 * window first. */
int64_t rounds(int64_t n, int64_t m, int64_t t0, double gain, double offset,
               double exponent, const int32_t *graph, const int64_t *indptr,
               const int32_t *col, const double *w, const double *P,
               const int64_t *bstart, const double *b, const double *cum,
               double c, int64_t window, int64_t *streak, double *etas,
               double *state)
{
    int64_t block = (m + 1) * n;
    double half = c / 2.0;
    for (int64_t r = 0; r < m; r++) {
        double base = (double)(t0 + r) + offset;
        double eta = exponent == 1.0 ? gain / base : gain / pow(base, exponent);
        const int64_t *row = indptr + (int64_t)graph[r] * n;
        double *x = state + r * n, *zeta = x + block, *z = zeta + block,
               *alpha = z + block;
        int changed = 0;
        etas[r] = eta;
        for (int64_t j = 0; j < n; j++) {
            int64_t s = bstart[j], bn = bstart[j + 1] - s;
            double v = surrogate_at(x[j], b + s, bn, cum + s, c);
            double acc = 0.0;
            for (int64_t e = row[j]; e < row[j + 1]; e++)
                acc += w[e] * x[col[e]];
            x[n + j] = acc - eta * (v - P[r * n + j]);
            zeta[n + j] = cutoff_at(x[n + j], b + s, bn);
            changed |= zeta[n + j] != zeta[j];
        }
        *streak = changed ? 0 : *streak + 1;
        for (int64_t j = 0; j < n; j++) {
            /* the row's own diagonal entry recomputes best's first value,
             * which never compares below it */
            double a = alpha[j], best = z[j] + a;
            for (int64_t e = row[j]; e < row[j + 1]; e++) {
                double cand = z[col[e]] + a;
                if (cand < best)
                    best = cand;
            }
            if (zeta[n + j] < best)
                best = zeta[n + j];
            z[n + j] = best;
            alpha[n + j] = best > z[j] ? 0.5 : half;
        }
        if (*streak >= window)
            return r + 1;
    }
    return m;
}
