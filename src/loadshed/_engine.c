/* The round engine's kernels: the chunk kernel over a chunk of rounds
 * (see protocol.py) with the surrogate and the Metropolis mixing it
 * computes, the random schedules' graphs that feed it (see netgraph.py):
 * their draw and window repair and the components of a window's union,
 * the trace CSV's rows (see scenario.emit_trace), deviation, the
 * deficit-tracking error that check certifies (see
 * protocol.deficit_deviation), which sums a row that repeats only once,
 * and prefix_sums, the exact prefix sums of every CCF (see
 * criticality._cumulative): an unsigned fixed-point accumulator in units
 * of 2**-1074, correctly rounded once per breakpoint.
 *
 * One breakpoint search (upper) serves the surrogate and the cutoffs.  In
 * the chunk kernel each region searches once per round, starting from last
 * round's index, and the index it finds gives both the region's cutoff and
 * its next round's surrogate; the exported surrogate starts each point's
 * search from the previous point's index.
 *
 * A graph over nodes 0..n-1 is a pair row: one byte per pair i < j, in
 * lexicographic order.  The chunk kernel takes a chunk's graphs as pair
 * rows and one graph index per round, dedupes the rows (a hash table,
 * every match confirmed by memcmp), and builds each distinct graph's
 * mixing once per call, from the first of its rows where the caller holds
 * them, as CSR arrays: row j of graph g holds entries
 * indptr[g*n + j] .. indptr[g*n + j + 1] - 1, in ascending column order,
 * which is the order every reduction runs in.  No other code reads them.
 * Arrays are C-ordered with one row per round, and every kernel reads the
 * caller's arrays where they are, copying none.  Build without
 * contraction to FMA (-ffp-contract=off) so every sum and product rounds
 * as it does in Python.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* bisect_right(b, z) over bn strictly increasing breakpoints: how many lie
 * at or below z, and bn for a NaN z.  That index is the one k in 0..bn with
 * !(z < b[k-1]) and z < b[k] (either test dropped at an end), so the guess
 * hint, any index in 0..bn, is returned when it passes those two tests and
 * a bisection with the same comparisons runs otherwise. */
static inline int64_t upper(double z, const double *b, int64_t bn, int64_t hint)
{
    if ((hint == 0 || !(z < b[hint - 1])) && (hint == bn || z < b[hint]))
        return hint;
    int64_t lo = 0, hi = bn;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (z < b[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Surrogate CCF at z, whose upper index is k: the load at or below z, plus
 * the climbed part of the ramp of width c ending at the next breakpoint. */
static inline double surrogate_at(double z, int64_t k, const double *b, int64_t bn,
                                  const double *cum, double c)
{
    double below = k ? cum[k - 1] : 0.0, v = below;
    if (k < bn) {
        double d = z - b[k];
        if (d > -c)
            v += (cum[k] - below) * (d / c + 1.0);
    }
    return v;
}

/* The surrogate at each of count points, each search started from the
 * previous point's index. */
void surrogate(int64_t count, const double *z, const double *b, int64_t bn,
               const double *cum, double c, double *out)
{
    for (int64_t i = 0, k = 0; i < count; i++) {
        k = upper(z[i], b, bn, k);
        out[i] = surrogate_at(z[i], k, b, bn, cum, c);
    }
}

/* eta(t) = gain / (t + offset)^exponent, with no power at exponent 1, as
 * protocol.StepSchedule.eta computes it. */
static inline double step_size(int64_t t, double gain, double offset, double exponent)
{
    double base = (double)t + offset;
    return exponent == 1.0 ? gain / base : gain / pow(base, exponent);
}

/* Rounds t0 .. t0+m-1 of the protocol, each one whole before the next:
 *  - the estimates x(t+1) = W(t) x(t) - eta(t) (S_j(x_j(t)) - p_j(t)),
 *    with eta(t) = gain / (t + offset)^exponent;
 *  - each region's cutoff at its new estimate: the smallest breakpoint at
 *    or above it, or +inf when none is or it is NaN (numpy's
 *    searchsorted(side="left")), read off the estimate's upper index;
 *  - the streak: how many consecutive rounds the cutoff row has not
 *    changed, carried across calls in *streak;
 *  - dynamic min-consensus with local self-tuning: each node takes the
 *    least of its own and its neighbours' previous values, inflated by its
 *    own step alpha, and its fresh cutoff; alpha resets to 1/2 after an
 *    increase and is c/2 otherwise.
 * Round t0 + r mixes with graph[r]'s CSR rows (see metropolis).  Region
 * j's breakpoints and cumulative loads are b[bstart[j] .. bstart[j+1]-1].
 * state holds four blocks of m + 1 rows of n: the estimates, cutoffs,
 * min-consensus values and steps; row 0 of each is the state before round
 * t0 and row r + 1 the state after round t0 + r.  at[j] holds the upper
 * index of region j's estimate in the current row: its surrogate's index,
 * and the guess for the one search of the new estimate, whose result gives
 * both the cutoff and the next round's surrogate index.  The estimates
 * settle, so the guess almost always holds.  Returns the number of
 * rounds run: m, or fewer when the streak reaches window first.  Kept out
 * of line, so the loop compiles alike whatever rounds does around it:
 * inlined beside the build, it measured 2-8 % slower per chunk.  Aligned
 * to 64 bytes, so code added elsewhere in the file cannot shift its
 * loop's place within a cache line: such shifts alone measured 8-10 %
 * per chunk. */
__attribute__((noinline, aligned(64)))
static int64_t run_rounds(int64_t n, int64_t m, int64_t t0, double gain, double offset,
                          double exponent, const int32_t *graph, const int64_t *indptr,
                          const int32_t *col, const double *w, const double *P,
                          const int64_t *bstart, const double *b, const double *cum,
                          double c, int64_t window, int64_t *streak, double *etas,
                          double *state, int64_t *at)
{
    int64_t block = (m + 1) * n;
    double half = c / 2.0;
    for (int64_t r = 0; r < m; r++) {
        double eta = step_size(t0 + r, gain, offset, exponent);
        const int64_t *row = indptr + (int64_t)graph[r] * n;
        double *x = state + r * n, *zeta = x + block, *z = zeta + block,
               *alpha = z + block;
        int changed = 0;
        etas[r] = eta;
        for (int64_t j = 0; j < n; j++) {
            int64_t s = bstart[j], bn = bstart[j + 1] - s;
            const double *bj = b + s;
            double v = surrogate_at(x[j], at[j], bj, bn, cum + s, c);
            double acc = 0.0;
            for (int64_t e = row[j]; e < row[j + 1]; e++)
                acc += w[e] * x[col[e]];
            double next = acc - eta * (v - P[r * n + j]);
            /* the left index: one less when next equals the breakpoint below */
            int64_t k = at[j] = upper(next, bj, bn, at[j]);
            k -= k && bj[k - 1] == next;
            x[n + j] = next;
            zeta[n + j] = k < bn ? bj[k] : INFINITY;
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

/* Graphs of the random schedules (see netgraph.py), as pair rows.  Draws
 * are splitmix64 folds, as seeding.mix64 folds its parts. */

/* Fold one more part into a splitmix64 state. */
static inline uint64_t mix(uint64_t x, uint64_t part)
{
    uint64_t z = x + part;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline uint64_t seeded(uint64_t seed, uint64_t tag)
{
    return mix(mix(0x9E3779B97F4A7C15ULL, seed), tag);
}

static inline int64_t pair_column(int64_t i, int64_t j, int64_t n)
{
    return i * (2 * n - i - 1) / 2 + j - i - 1;
}

/* The root of v's set, halving the path; a root is its set's least node. */
static inline int64_t root(int64_t *parent, int64_t v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

/* label[v]: the smallest node v reaches in the union of count pair rows. */
static void union_labels(int64_t n, const uint8_t *rows, int64_t count, int64_t *label)
{
    int64_t pairs = n * (n - 1) / 2, sets = n;
    for (int64_t v = 0; v < n; v++)
        label[v] = v;
    for (const uint8_t *row = rows; row < rows + count * pairs && sets > 1; row += pairs)
        for (int64_t i = 0, k = 0; i < n && sets > 1; i++)
            for (int64_t j = i + 1; j < n; j++, k++)
                if (row[k]) {
                    int64_t a = root(label, i), b = root(label, j);
                    sets -= a != b;
                    if (a < b)
                        label[b] = a;
                    else
                        label[a] = b;
                }
    for (int64_t v = 0; v < n; v++)
        label[v] = root(label, v);
}

/* The labels of each of count / window windows of consecutive pair rows:
 * row w of labels gives each node the smallest node it reaches in the
 * union of window w's rows. */
void components(int64_t n, int64_t count, int64_t window, const uint8_t *rows,
                int64_t *labels)
{
    for (int64_t w = 0; w < count / window; w++)
        union_labels(n, rows + w * window * (n * (n - 1) / 2), window, labels + w * n);
}

/* Pair rows drawn at counters first .. first+count-1: pair k of the row of
 * counter c is present when the top 53 bits of mix64(seed, edge_tag, c, k),
 * as a fraction of 2**53, fall below p.  Then each of the windows whole
 * windows of window rows gets its repair: when its union is disconnected,
 * its components (in ascending order of their least nodes) are stably
 * sorted by mix64(seed, repair_tag, keys[w], i), and the chain through
 * their least nodes, in that order, is added to the window's last row.
 * Returns 0, or -1 when working memory cannot be had. */
int64_t draw_repaired(uint64_t seed, uint64_t edge_tag, uint64_t repair_tag, int64_t n,
                      double p, uint64_t first, int64_t count, int64_t window, int64_t windows,
                      const uint64_t *keys, uint8_t *rows)
{
    int64_t pairs = n * (n - 1) / 2;
    uint64_t edges = seeded(seed, edge_tag), repair = seeded(seed, repair_tag);
    for (int64_t r = 0; r < count; r++) {
        uint64_t state = mix(edges, first + (uint64_t)r);
        uint8_t *row = rows + r * pairs;
        for (int64_t k = 0; k < pairs; k++)
            row[k] = (double)(int64_t)(mix(state, (uint64_t)k) >> 11) * 0x1p-53 < p;
    }
    int64_t *label = malloc((3 * n + 1) * sizeof *label);
    uint64_t *draw = malloc((n + 1) * sizeof *draw);
    if (!label || !draw) {
        free(label);
        free(draw);
        return -1;
    }
    int64_t *leader = label + n, *order = leader + n;
    for (int64_t w = 0; w < windows; w++) {
        union_labels(n, rows + w * window * pairs, window, label);
        int64_t found = 0;
        for (int64_t v = 0; v < n; v++)
            if (label[v] == v)
                leader[found++] = v;
        if (found < 2)
            continue;
        /* insertion sort: ties keep ascending component order */
        uint64_t key = mix(repair, keys[w]);
        for (int64_t i = 0; i < found; i++) {
            uint64_t d = mix(key, (uint64_t)i);
            int64_t at = i;
            for (; at > 0 && draw[at - 1] > d; at--) {
                draw[at] = draw[at - 1];
                order[at] = order[at - 1];
            }
            draw[at] = d;
            order[at] = i;
        }
        uint8_t *last = rows + ((w + 1) * window - 1) * pairs;
        for (int64_t a = 0; a + 1 < found; a++) {
            int64_t i = leader[order[a]], j = leader[order[a + 1]];
            last[i < j ? pair_column(i, j, n) : pair_column(j, i, n)] = 1;
        }
    }
    free(label);
    free(draw);
    return 0;
}

/* numpy's pairwise sum of a float64 run (pairwise_sum_DOUBLE): below 8
 * values one by one, up to 128 in eight interleaved accumulators, and
 * above that the two halves (split at a multiple of 8) on their own. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (; i < n - n % 8; i += 8)
            for (int64_t j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2 - n / 2 % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* The Metropolis-Hastings mixing of count graphs, graph g the pair row
 * rows[pick[g]], as CSR: row j of graph g holds entries indptr[g*n + j] ..
 * indptr[g*n + j + 1] - 1 of col and weight, in ascending column order.  A neighbour k weighs
 * 1 / (1 + max(deg j, deg k)); the diagonal is 1 minus the row's sum,
 * summed as numpy sums the dense row with a zero diagonal, and is positive,
 * so the arrays hold count*n + 2*(edges) entries.  Returns 0, or -1 when
 * working memory cannot be had.  rounds calls it; it is exported for the
 * tests, which hold it to a dense reference. */
int64_t metropolis(int64_t n, int64_t count, const uint8_t *rows, const int32_t *pick,
                   int64_t *indptr, int32_t *col, double *weight)
{
    int64_t pairs = n * (n - 1) / 2, e = 0;
    /* per node: its degree and n slots for its neighbours; 1 / (1 + d) at
     * each degree d; and one dense row, kept zero between rows */
    int64_t *degree = malloc((n * (n + 1) + 1) * sizeof *degree), *adjacent = degree + n;
    double *inverse = malloc((2 * n + 1) * sizeof *inverse), *dense = inverse + n;
    if (!degree || !inverse) {
        free(degree);
        free(inverse);
        return -1;
    }
    for (int64_t v = 0; v < n; v++) {
        inverse[v] = 1.0 / (1.0 + (double)v);
        dense[v] = 0.0;
    }
    indptr[0] = 0;
    for (int64_t g = 0; g < count; g++) {
        const uint8_t *row = rows + pick[g] * pairs;
        for (int64_t v = 0; v < n; v++)
            degree[v] = 0;
        /* neighbour lists in ascending order, appended without branches:
         * an absent pair's write lands in the slot past the list's end */
        for (int64_t i = 0, k = 0; i < n; i++)
            for (int64_t j = i + 1; j < n; j++, k++) {
                int64_t present = row[k] != 0;
                adjacent[i * n + degree[i]] = j;
                adjacent[j * n + degree[j]] = i;
                degree[i] += present;
                degree[j] += present;
            }
        for (int64_t j = 0; j < n; j++) {
            const int64_t *next = adjacent + j * n, *end = next + degree[j];
            for (const int64_t *a = next; a < end; a++)
                dense[*a] = inverse[degree[j] > degree[*a] ? degree[j] : degree[*a]];
            double diagonal = 1.0 - pairwise_sum(dense, n);
            for (; next < end && *next < j; next++) {
                col[e] = (int32_t)*next;
                weight[e++] = dense[*next];
            }
            col[e] = (int32_t)j;
            weight[e++] = diagonal;
            for (; next < end; next++) {
                col[e] = (int32_t)*next;
                weight[e++] = dense[*next];
            }
            for (const int64_t *a = adjacent + j * n; a < end; a++)
                dense[*a] = 0.0;
            indptr[g * n + j + 1] = e;
        }
    }
    free(degree);
    free(inverse);
    return 0;
}

/* A hash of a pair row of len bytes: one multiply per eight bytes, read
 * as one word, and one for the bytes left over, then the splitmix64
 * finalizer, so every byte reaches the low bits that pick a table slot. */
static inline uint64_t row_hash(const uint8_t *row, int64_t len)
{
    uint64_t h = (uint64_t)len, word;
    int64_t k = 0;
    for (; k + 8 <= len; k += 8) {
        memcpy(&word, row + k, 8);
        h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    }
    for (word = 0; k < len; k++)
        word = word << 8 | row[k];
    return mix((h ^ word) * 0x9E3779B97F4A7C15ULL, 0);
}

/* How many of len bytes are nonzero, eight at a time: adding 0x7F to a
 * byte's low seven bits carries into its top bit unless they are all zero,
 * so the top bits of that sum or the byte mark the nonzero bytes, and one
 * multiply adds up the eight marks. */
static int64_t nonzero(const uint8_t *bytes, int64_t len)
{
    const uint64_t low = 0x7F7F7F7F7F7F7F7FULL;
    int64_t count = 0, k = 0;
    uint64_t word;
    for (; k + 8 <= len; k += 8) {
        memcpy(&word, bytes + k, 8);
        word = (((word & low) + low) | word) & ~low;
        count += (int64_t)((word >> 7) * 0x0101010101010101ULL >> 56);
    }
    for (; k < len; k++)
        count += bytes[k] != 0;
    return count;
}

/* The distinct rows among count pair rows of len bytes: of_row[g] gets
 * the number of row g's distinct row, counted in order of first
 * appearance, and pick[d] the first row of distinct row d.  An
 * open-addressing table of slots entries (a power of two, at least twice
 * count) holds the first row of each distinct row, and
 * memcmp confirms every hash match, so two different rows are never
 * merged.  Returns how many are distinct. */
static int64_t dedupe(int64_t len, int64_t count, const uint8_t *rows, int64_t slots,
                      int32_t *slot, int32_t *of_row, int32_t *pick)
{
    int64_t distinct = 0;
    for (int64_t s = 0; s < slots; s++)
        slot[s] = -1;
    for (int64_t g = 0; g < count; g++) {
        const uint8_t *row = rows + g * len;
        int64_t s = (int64_t)(row_hash(row, len) & (uint64_t)(slots - 1));
        while (slot[s] >= 0 && memcmp(rows + slot[s] * len, row, len))
            s = (s + 1) & (slots - 1);
        if (slot[s] < 0) {
            slot[s] = pick[distinct] = (int32_t)g;
            of_row[g] = (int32_t)distinct++;
        } else {
            of_row[g] = of_row[slot[s]];
        }
    }
    return distinct;
}

/* run_rounds over the mixing of graphs pair rows, built here once per
 * distinct row from its first row in rows: round t0 + r mixes with the
 * distinct graph of rows[graph[r]].  The upper indices of the estimates in
 * row 0 of state start with a full search each.  Returns the number of
 * rounds run, or -1 when memory for the deduplication, the mixing and the
 * indices cannot be had. */
int64_t rounds(int64_t n, int64_t m, int64_t t0, double gain, double offset,
               double exponent, const int32_t *graph, int64_t graphs,
               const uint8_t *rows, const double *P, const int64_t *bstart,
               const double *b, const double *cum, double c, int64_t window,
               int64_t *streak, double *etas, double *state)
{
    int64_t pairs = n * (n - 1) / 2, slots = 2, ran = -1;
    while (slots < 2 * graphs)
        slots *= 2;
    /* the table, each row's distinct graph, each distinct graph's first
     * row, then each round's distinct graph */
    int32_t *slot = malloc((slots + 2 * graphs + m) * sizeof *slot);
    if (!slot)
        return -1;
    int32_t *of_row = slot + slots, *pick = of_row + graphs, *index = pick + graphs;
    int64_t distinct = dedupe(pairs, graphs, rows, slots, slot, of_row, pick);
    for (int64_t r = 0; r < m; r++)
        index[r] = of_row[graph[r]];
    /* every diagonal entry and each edge twice, and one more */
    int64_t entries = distinct * n;
    for (int64_t d = 0; d < distinct; d++)
        entries += 2 * nonzero(rows + pick[d] * pairs, pairs);
    /* the CSR row starts, then the upper indices */
    int64_t *indptr = malloc((distinct * n + 1 + n) * sizeof *indptr);
    int32_t *col = malloc((entries + 1) * sizeof *col);
    double *w = malloc((entries + 1) * sizeof *w);
    if (indptr && col && w && !metropolis(n, distinct, rows, pick, indptr, col, w)) {
        int64_t *at = indptr + distinct * n + 1;
        for (int64_t j = 0; j < n; j++)
            at[j] = upper(state[j], b + bstart[j], bstart[j + 1] - bstart[j], 0);
        ran = run_rounds(n, m, t0, gain, offset, exponent, index, indptr, col, w, P,
                         bstart, b, cum, c, window, streak, etas, state, at);
    }
    free(slot);
    free(indptr);
    free(col);
    free(w);
    return ran;
}

/* Rows of the trace CSV (see scenario.emit_trace). */

/* The longest %.12g cell, "-1.23456789012e-308", and the most a region's
 * ",zeta,z_min,alpha,p\n" tail can take; scenario.py sizes its buffers by
 * the same bounds. */
#define CELL_BYTES 19
#define TAIL_BYTES (4 * (CELL_BYTES + 1) + 1)

static const double POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* %.12g of v at s, as Python's "%.12g" % v writes it; returns its length.
 * |v| is scaled by one exact power of ten (its exponent at most 22) into
 * [1e11, 1e12) and rounded to 12 digits, which %g's fixed or exponent form
 * then lays out.  That one multiply or divide errs by at most 6.1e-5 at
 * this scale, so unless the scaled value lies within 1e-3 of a tie it
 * rounds as v's exact decimal expansion does.  Zeros, infinities,
 * exponents out of reach and near-ties are glibc's %.12g, which rounds
 * correctly too; every NaN is "nan", where glibc writes a negative one
 * "-nan". */
static int64_t cell(double v, char *s)
{
    if (v != v) {
        memcpy(s, "nan", 3);
        return 3;
    }
    double a = fabs(v);
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    /* k: 11 minus a's decimal exponent, or one more, since a normal a
     * lies in [2**e2, 2**(e2 + 1)); zeros, subnormals and infinities land
     * far out of reach */
    int64_t e2 = (int64_t)(bits >> 52) - 1023;
    int64_t k = 11 - (int64_t)floor((double)e2 * 0.30102999566398120);
    if (k >= -21 && k <= 22) {
        double scaled = k >= 0 ? a * POW10[k] : a / POW10[-k];
        if (scaled >= 1e12) {
            k--;
            scaled = k >= 0 ? a * POW10[k] : a / POW10[-k];
        }
        double whole = floor(scaled), frac = scaled - whole;
        int64_t d = (int64_t)whole + (frac > 0.5);
        if (d == 1000000000000) {
            d = 100000000000;
            k--;
        }
        if (fabs(frac - 0.5) >= 1e-3 && d >= 100000000000 && d < 1000000000000) {
            /* the 12 digits, their count without trailing zeros, and the
             * exponent x of the first, within [-11, 34] */
            char dg[12];
            for (int i = 10; i >= 0; i -= 2, d /= 100)
                memcpy(dg + i, PAIRS + 2 * (d % 100), 2);
            int64_t len = 12, x = 11 - k;
            while (dg[len - 1] == '0')
                len--;
            char *p = s;
            if (v < 0)
                *p++ = '-';
            if (x >= 0 && x < 12) {
                memcpy(p, dg, x + 1);
                p += x + 1;
                if (len > x + 1) {
                    *p++ = '.';
                    memcpy(p, dg + x + 1, len - x - 1);
                    p += len - x - 1;
                }
            } else if (x < 0 && x >= -4) {
                memcpy(p, "0.000", 1 - x);
                memcpy(p + 1 - x, dg, len);
                p += 1 - x + len;
            } else {
                *p++ = dg[0];
                if (len > 1) {
                    *p++ = '.';
                    memcpy(p, dg + 1, len - 1);
                    p += len - 1;
                }
                *p++ = 'e';
                *p++ = x < 0 ? '-' : '+';
                memcpy(p, PAIRS + 2 * (x < 0 ? -x : x), 2);
                p += 2;
            }
            return p - s;
        }
    }
    char text[32];
    int len = snprintf(text, sizeof text, "%.12g", v);
    memcpy(s, text, len);
    return len;
}

/* The decimal digits of t >= 0 at s; returns their count. */
static int64_t integer(int64_t t, char *s)
{
    char dg[20];
    int64_t len = 0;
    do {
        dg[19 - len++] = (char)('0' + t % 10);
        t /= 10;
    } while (t);
    memcpy(s, dg + 20 - len, len);
    return len;
}

/* The CSV rows "t,eta,region,x,zeta,z_min,alpha,p" of rounds first + 1 ..
 * first + m of n regions, at out; returns their length.  Round t is row
 * t - 1 of eta and of the five arrays of rows of n cells that cols points
 * at: x, zeta, z_min, alpha and p, each read in place.  Region j's id, as
 * text with a leading comma, is ids[id_start[j] .. id_start[j+1]-1].  Region
 * j's tail ",zeta,z_min,alpha,p\n" is formatted only when its four 64-bit
 * patterns differ from tail_bits[4j .. 4j+3]; then those patterns, the text
 * (at tail_text + j*TAIL_BYTES) and its length tail_len[j] are replaced,
 * and they carry to the next call.  A zero tail_len[j] has no text yet.
 * out must hold m*n rows of the longest text each can take. */
int64_t trace_rows(int64_t n, int64_t m, int64_t first, const double *eta,
                   const double *const *cols, const char *ids, const int64_t *id_start,
                   uint64_t *tail_bits, char *tail_text, int64_t *tail_len, char *out)
{
    char *o = out;
    for (int64_t r = first; r < first + m; r++) {
        char head[2 * (CELL_BYTES + 1)];
        int64_t h = integer(r + 1, head);
        head[h++] = ',';
        h += cell(eta[r], head + h);
        for (int64_t j = 0; j < n; j++) {
            int64_t i = r * n + j;
            uint64_t bits[4], *last = tail_bits + 4 * j;
            char *text = tail_text + j * TAIL_BYTES;
            memcpy(o, head, h);
            o += h;
            memcpy(o, ids + id_start[j], id_start[j + 1] - id_start[j]);
            o += id_start[j + 1] - id_start[j];
            *o++ = ',';
            o += cell(cols[0][i], o);
            for (int c = 0; c < 4; c++)
                memcpy(bits + c, cols[c + 1] + i, sizeof *bits);
            if (!tail_len[j] || memcmp(bits, last, sizeof bits)) {
                char *p = text;
                for (int c = 0; c < 4; c++) {
                    *p++ = ',';
                    p += cell(cols[c + 1][i], p);
                }
                *p++ = '\n';
                tail_len[j] = p - text;
                memcpy(last, bits, sizeof bits);
            }
            memcpy(o, text, tail_len[j]);
            o += tail_len[j];
        }
    }
    return o - out;
}

/* The deficit-tracking error (see protocol.deficit_deviation). */

/* Adds x to the running *total and the rounding error of every addition so
 * far to *error (Knuth's TwoSum). */
static inline void two_sum(double x, double *total, double *error)
{
    double s = *total + x, z = s - *total;
    *error += (*total - (s - z)) + (x - z);
    *total = s;
}

/* |sum_j P[r*stride + j] - deficit| / eta(t0 + r) of each of m rows of n
 * estimates, at out[r]: stride is n for m rows of their own and 0 for one
 * row that every round repeats, whose error is then summed once.  The
 * deficit enters as n equal shares, one against each estimate, and the 2n
 * terms p_j, -share are summed in that order with TwoSum, so an exact
 * split reads 0 and estimates that cancel, as 1e308 and -1e308 do, keep
 * the shares' error; a sum that is not finite is its running total, so
 * one that overflows is inf.  eta(t) is step_size, as in run_rounds,
 * computed only for rounds whose error is nonzero: zeros stay zero and
 * any other error, NaN too, is divided by it in each round. */
void deviation(int64_t n, int64_t m, int64_t t0, double gain, double offset, double exponent,
               const double *P, int64_t stride, double deficit, double *out)
{
    double share = deficit / (double)n, v = 0.0;
    for (int64_t r = 0; r < m; r++) {
        if (r == 0 || stride) {
            const double *p = P + r * stride;
            double total = 0.0, error = 0.0;
            for (int64_t j = 0; j < n; j++) {
                two_sum(p[j], &total, &error);
                two_sum(-share, &total, &error);
            }
            v = fabs(isfinite(total) ? total + error : total);
        }
        out[r] = v != 0.0 ? v / step_size(t0 + r, gain, offset, exponent) : v;
    }
}

/* A CCF's exact prefix sums (see criticality._cumulative). */

/* Every finite float is a whole number of units of 2**-1074 below 2**2098,
 * so LIMBS 64-bit limbs hold the exact sum of up to 2**78 of them. */
#define LIMBS 34

/* The unsigned little-endian integer acc[0..hi], hi its top nonzero limb,
 * times 2**-1074, correctly rounded (half to even), as float bits; a value
 * that rounds to 2**1024 or more gives the bits of inf. */
static uint64_t rounded_bits(const uint64_t *acc, int64_t hi)
{
    int64_t width = 64 * hi + 64 - __builtin_clzll(acc[hi] | (hi == 0));
    if (width <= 53)  /* exact: a subnormal's bits, or the first binade's */
        return acc[0];
    int64_t shift = width - 53, i = shift / 64, off = shift % 64;
    uint64_t m = acc[i] >> off;
    if (off > 11)
        m |= acc[i + 1] << (64 - off);
    m &= (UINT64_C(1) << 53) - 1;
    int64_t r = shift - 1;  /* the round bit, and the sticky bits below it */
    uint64_t half = acc[r / 64] >> (r % 64) & 1;
    int sticky = (acc[r / 64] & ((UINT64_C(1) << (r % 64)) - 1)) != 0;
    for (int64_t k = 0; k < r / 64 && !sticky; k++)
        sticky = acc[k] != 0;
    m += half & (sticky | (m & 1));
    /* an m of 2**53 carries into the exponent field */
    uint64_t bits = ((uint64_t)shift << 52) + m;
    return bits < UINT64_C(0x7ff0000000000000) ? bits : UINT64_C(0x7ff0000000000000);
}

/* The breakpoints and cumulative loads of count positive powers, sorted by
 * criticality: each power is added exactly into a fixed-point accumulator,
 * and at each change of criticality the group's first criticality goes to
 * bps and the correctly rounded sum so far to cum.  Returns how many
 * breakpoints it wrote, or -1 where a power is inf or a rounded sum is
 * 2**1024 or more. */
int64_t prefix_sums(int64_t count, const double *power, const double *crit,
                    double *bps, double *cum)
{
    uint64_t acc[LIMBS] = {0};
    int64_t hi = 0, k = 0, first = 0;
    for (int64_t i = 0; i < count; i++) {
        uint64_t bits;
        memcpy(&bits, &power[i], sizeof bits);
        uint64_t biased = bits >> 52, m = bits & ((UINT64_C(1) << 52) - 1);
        if (biased == 0x7ff)
            return -1;
        int64_t shift = biased ? (int64_t)biased - 1 : 0;  /* m * 2**shift units */
        if (biased)
            m |= UINT64_C(1) << 52;
        int64_t j = shift / 64, off = shift % 64;
        uint64_t low = m << off, high = off ? m >> (64 - off) : 0;
        uint64_t carry = (acc[j] += low) < low;
        for (j++; (high | carry) && j < LIMBS; j++, high = 0) {
            uint64_t add = high + carry;  /* high < 2**53: no wrap */
            carry = (acc[j] += add) < add;
        }
        if (j - 1 > hi)
            hi = j - 1;
        if (i + 1 == count || crit[i + 1] != crit[i]) {
            while (hi && !acc[hi])
                hi--;
            uint64_t sum = rounded_bits(acc, hi);
            if (sum == UINT64_C(0x7ff0000000000000))
                return -1;
            bps[k] = crit[first];
            memcpy(&cum[k++], &sum, sizeof sum);
            first = i + 1;
        }
    }
    return k;
}
