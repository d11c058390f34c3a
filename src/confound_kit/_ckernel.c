/* Compiled campaign kernel.
 *
 * Returns what _pykernel.run_campaign returns, bit for bit.  The pure kernel
 * runs the library's helpers, so this file transliterates them with the same
 * operand order: MODEL_ALGEBRA is joint._masses and hypotheses._solve over
 * their unit one, violation_at() is joint._cells and the proportions of
 * joint._float_proportions, and exact_violation() is joint._cells and the
 * cross-multiplied proportions of joint._exact_pairs.
 * setup.py compiles it with -ffp-contract=off, because a fused multiply-add
 * would round differently from Python's separate multiply and add.
 *
 * Samples are taken BATCH at a time, one stage per loop over the batch:
 * draw, solve the equational member, evaluate the conclusion, tally.  The
 * draw stage fills one slot of the whole batch at a time, and only the
 * slots that a position other than the solved one reads: a clause's
 * equalities tie positions to one slot, and the H1/H5 solve overwrites its
 * position, so the catalog's clauses read 87 of the 129 slots they draw in
 * the reference loop.  SplitMix advances a stream by a fixed gamma, so the
 * slot at draw position p of an attempt is mix(state + p * GOLDEN) whether
 * or not the slots before it are drawn: every value that is read is the one
 * the reference loop draws.  Model and codes are fixed for a campaign, so
 * the solve and conclusion stages compile to branch-free loops that the
 * compiler vectorizes, and no sample waits on the previous one's chain of
 * divisions.
 *
 * The tally stage keeps the maximum as the int64 bit pattern of |x|, so it
 * vectorizes too.  Non-negative doubles order as their bit patterns do, from
 * +0.0 at 0 up to +inf at 0x7FF0000000000000, so over the patterns with the
 * sign bit cleared the integer maximum is the double maximum.  The
 * reference tally counts |x| > tol and keeps |x| when it exceeds the
 * maximum, which starts at +0.0.  A NaN exceeds nothing, so its pattern,
 * which lies above +inf's, is mapped to 0 and never wins; -0.0 clears to
 * +0.0, which equals the start; +inf is kept as the reference keeps it.
 * The result converts back to the same double, bit for bit.
 *
 * A clause with an H1 or H5 member redraws a sample while its solve lands
 * outside [0, 1], at most budget times, so its samples take unequal numbers
 * of attempts.  Such a campaign runs one of two loops, chosen once per
 * campaign from the CPU (LANES_CPU()).  In both, a redraw runs in a
 * full-width round beside other samples' attempts, and each sample's k-th
 * attempt is still the k-th step of its own stream, as in the reference
 * loop; the maximum, failures and exhausted count do not depend on the
 * order samples are tallied in.
 *
 * Where the CPU runs x86-64-v4, fixed lanes (lane_campaign()): with lanes =
 * min(count, BATCH), lane j runs samples j, j + lanes, j + 2 * lanes, ...
 * and makes one attempt a round.  An accepted or exhausted sample moves its
 * lane on to its next sample, with a fresh stream state and budget; a
 * rejected one keeps its advanced state and one redraw less.  The tally is
 * masked by acceptance in the same loop, so a round writes no running
 * index and the whole step vectorizes with 64-bit vector multiplies.  Once
 * half the lanes have passed count, the live ones are packed together, each
 * keeping its stride; lanes run until all had passed count were 3-6%
 * slower.  On the 2-vCPU AVX-512 Xeon it was tuned on, the lanes ran T2a,
 * T4a and T5a 1.43-1.52x as fast as the pool.
 *
 * Elsewhere, a pool (pool_campaign()) of up to BATCH samples whose solve
 * has not been accepted yet.  Each round tops the pool up with fresh
 * samples in index order, draws, solves and evaluates every entry's next
 * attempt, tallies the accepted samples and keeps the rejected ones that
 * have budget left.  The round sorts its entries without a branch: each is
 * written to the end of both the accepted and the kept list, and only the
 * list it belongs to grows; the accepted list is then tallied as one
 * batch.  Compiled for the default target, the lanes ran the H1 clauses at
 * 0.72x the pool's speed: without vector 64-bit multiplies, their
 * bookkeeping and the fresh states' mix() run scalar for every lane every
 * round.  A masked tally over the whole pool, with the sort kept for the
 * states, was measured before the lanes: no faster on the AVX-512 clone
 * and 20-25% slower on the default one.  The lanes gain by dropping the
 * sort's stores to running indices, which do not vectorize.
 *
 * On x86-64 with GCC and glibc the loop of clauses without an H1/H5 member
 * (free_campaign()) is compiled twice, for x86-64-v4 (AVX-512) and for the
 * default target, and the loader picks the clone the CPU can run; the lanes
 * are compiled for x86-64-v4 alone and the pool for the default target.
 * Only AVX-512DQ has vector forms of the 64-bit multiply and of the 64-bit
 * integer to double conversion the draws need.  The loops give the same
 * bits: -ffp-contract=off applies to every target, so none fuses a
 * multiply-add; vector multiplies and divides round as IEEE scalar ones do;
 * and z >> 11 < 2**53 converts to double exactly.
 *
 * Exact campaigns run on the thousandths grid.  grid_tally() runs a whole
 * exact campaign, as _pykernel.grid_tally does in Python integers, here in
 * fixed-width ones.  A clause without an H1/H5 member keeps 64- and 128-bit
 * integers (exact_violation()).  A clause with one solves each row in int64
 * and redraws it from the sample's stream while the solve leaves [0, 1]; its
 * cells, over the reduced common denominator of _pykernel.grid_tally, are
 * int128, and its pairs LIMBS = 5 limbs of 64 bits (solved_violation(); the
 * bounds are derived beside exact_violation()).  Both draw only the slots a
 * row reads, and keep the maximum as such a pair (tally_pair()).  The build
 * fails without __int128, and setup.py then installs the pure kernel alone.
 *
 * Both entry points are METH_FASTCALL functions: they read their argument
 * vector in place, with no tuple to parse and no format string, and build
 * their result tuple directly.  Each argument gets the conversion its
 * PyArg_ParseTuple format unit gave it, with the same checks, messages and
 * exception types (check_nargs() and the read_* helpers), and in the same
 * order: the numbers first, then the codes (read_codes()).  The seed, and
 * grid_tally()'s start, are any int reduced modulo 2**64 ("K"); the counts
 * and run_campaign()'s start take an __index__ object within their C type
 * ("L", "n"), and the tolerance a real number ("d").
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "grid_tally() needs __int128"
#endif

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define DOUBLE_SCALE (1.0 / 9007199254740992.0) /* 2**-53 */
#define BATCH 64
#define INF_BITS 0x7FF0000000000000LL /* +inf as int64 */

#if defined(__GNUC__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

/* equational-constraint and conclusion codes, as in _pykernel */
enum { EQ_NONE = 0, EQ_H1 = 1, EQ_H5 = 2 };
enum { IRRELEVANT = 0, NO_CONFOUNDING = 1 };
#define MODEL_ERROR "model must be 1, 2 or 3"
#define GRID 1000 /* exact draws are numerators over GRID */

typedef __int128 i128;
typedef unsigned __int128 u128;

static inline uint64_t
mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Read o, an int, into *out; raise ValueError with message what unless
   lo <= o <= hi.  hi = LLONG_MAX sets no upper bound: a larger int reads as
   LLONG_MAX. */
static int
read_int(PyObject *o, long long lo, long long hi, const char *what, long long *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow > 0 && hi == LLONG_MAX)
        v = LLONG_MAX;
    else if (overflow || v < lo || v > hi) {
        PyErr_SetString(PyExc_ValueError, what);
        return -1;
    }
    *out = v;
    return 0;
}

/* Read rep into out[7]; raise ValueError unless it is 7 slot indices in 0..6. */
static int
read_rep(PyObject *rep, int out[7])
{
    static const char what[] = "rep must be 7 slot indices in 0..6";
    PyObject *seq = PySequence_Fast(rep, "rep must be a sequence");
    if (seq == NULL)
        return -1;
    int status = 0;
    if (PySequence_Fast_GET_SIZE(seq) != 7) {
        PyErr_SetString(PyExc_ValueError, what);
        status = -1;
    }
    for (int j = 0; status == 0 && j < 7; j++) {
        long long r = 0;
        status = read_int(PySequence_Fast_GET_ITEM(seq, j), 0, 6, what, &r);
        out[j] = (int)r;
    }
    Py_DECREF(seq);
    return status;
}

/* The model algebra over the unit one, for T = double at one = 1.0 and
   T = int64_t at one = GRID: masses_S is joint._masses, m = (exposed0,
   exposed1, unexposed0, unexposed1) = P(E, C) over one**2, and solve_S is
   hypotheses._solve, the H1 solve for u1 (v6), else the H5 solve for u0
   (v5), as *num / *den.  At one = 1.0, one * x is x and one - x is 1 - x,
   so the float bits are the helpers' at one = 1.  A grid slot is in
   [10, 990], or 0 for model 3's undrawn slot 2, so each mass is in
   [0, 10**6] and the masses sum to 1000**2.  The largest den is model 2's
   H5 one, 1000 * mass1 * (1000 - c1) * a < 10**3 * 10**6 * 10**6 = 10**15
   (model 1's H1 den is 1000 * unexposed * exposed1 <= 1000 * (10**6 / 2)**2,
   the others below 10**6), and each term of num is below 10**15 too: int64. */
#define MODEL_ALGEBRA(T, S)                                                                       \
    ALWAYS_INLINE void                                                                            \
    masses_##S(int model, T one, T v0, T v1, T v2, T m[4])                                        \
    {                                                                                             \
        if (model == 1) { /* t, a0, a1 */                                                         \
            m[0] = v1 * (one - v0);                                                               \
            m[1] = v2 * v0;                                                                       \
            m[2] = (one - v1) * (one - v0);                                                       \
            m[3] = (one - v2) * v0;                                                               \
        } else if (model == 2) { /* a, c0, c1 */                                                  \
            m[0] = v0 * (one - v2);                                                               \
            m[1] = v0 * v2;                                                                       \
            m[2] = (one - v0) * (one - v1);                                                       \
            m[3] = (one - v0) * v1;                                                               \
        } else { /* a, t */                                                                       \
            m[0] = v0 * (one - v1);                                                               \
            m[1] = v0 * v1;                                                                       \
            m[2] = (one - v0) * (one - v1);                                                       \
            m[3] = (one - v0) * v1;                                                               \
        }                                                                                         \
    }                                                                                             \
    ALWAYS_INLINE void                                                                            \
    solve_##S(int model, int h1, T one, T v0, T v1, T v2, T v3, T v4, T v5, T v6, T *num, T *den) \
    {                                                                                             \
        if (h1) {                                                                                 \
            if (model == 1) {                                                                     \
                T m[4];                                                                           \
                masses_##S(1, one, v0, v1, v2, m);                                                \
                T unexposed = m[2] + m[3];                                                        \
                *num = (v3 * m[2] + v4 * m[3]) * (m[0] + m[1]) - v5 * m[0] * unexposed;           \
                *den = one * unexposed * m[1];                                                    \
            } else if (model == 2) {                                                              \
                *num = v3 * (one - v1) + v4 * v1 - v5 * (one - v2);                               \
                *den = one * v2;                                                                  \
            } else {                                                                              \
                *num = v3 * (one - v1) + v4 * v1 - v5 * (one - v1);                               \
                *den = one * v1;                                                                  \
            }                                                                                     \
        } else if (model == 1) {                                                                  \
            *num = v6 * v2 + v4 * (one - v2) - v3 * (one - v1);                                   \
            *den = one * v1;                                                                      \
        } else if (model == 2) {                                                                  \
            T target = v6 * v2 * v0 + v4 * v1 * (one - v0);                                       \
            T mass1 = v2 * v0 + v1 * (one - v0);                                                  \
            T mass0 = (one - v2) * v0 + (one - v1) * (one - v0);                                  \
            *num = target * mass0 - v3 * (one - v1) * (one - v0) * mass1;                         \
            *den = one * mass1 * (one - v2) * v0;                                                 \
        } else {                                                                                  \
            *num = v6 * v0 + (v4 - v3) * (one - v0);                                              \
            *den = one * v0;                                                                      \
        }                                                                                         \
    }

MODEL_ALGEBRA(double, float)
MODEL_ALGEBRA(int64_t, exact)

/* The signed violation of the conclusion (no confounding, else irrelevance)
   on the cells of joint._cells: the hypothetical, else the standardized,
   minus the observed proportion of joint._float_proportions.  Every stratum
   and weight is positive in a campaign, so the standardized sum skips no
   stratum, and its leading 0 + x is x. */
ALWAYS_INLINE double
violation_at(int model, int no_confounding, double v0, double v1, double v2,
             double v3, double v4, double v5, double v6)
{
    double m[4];
    masses_float(model, 1.0, v0, v1, v2, m);
    double p0 = m[0] * (1.0 - v5), p1 = m[0] * v5;
    double p2 = m[1] * (1.0 - v6), p3 = m[1] * v6;
    double p4 = m[2] * (1.0 - v3), p5 = m[2] * v3;
    double p6 = m[3] * (1.0 - v4), p7 = m[3] * v4;
    double pe = p0 + p1 + p2 + p3;
    double pu = p4 + p5 + p6 + p7;
    double obs = (p5 + p7) / pu;
    if (no_confounding)
        return (p1 + p3) / pe - obs;
    return (p5 / (p4 + p5)) * ((p0 + p1) / pe)
           + (p7 / (p6 + p7)) * ((p2 + p3) / pe)
           - obs;
}

/* The solved slot of each sample, divided once as impose divides it. */
ALWAYS_INLINE void
solve_batch(int model, int h1, int nb, const double *const v[7], double *out)
{
    for (int j = 0; j < nb; j++) {
        double num, den;
        solve_float(model, h1, 1.0, v[0][j], v[1][j], v[2][j], v[3][j], v[4][j], v[5][j],
                    v[6][j], &num, &den);
        out[j] = num / den;
    }
}

ALWAYS_INLINE void
violation_batch(int model, int no_confounding, int nb, const double *const v[7],
                double *out)
{
    for (int j = 0; j < nb; j++)
        out[j] = violation_at(model, no_confounding, v[0][j], v[1][j], v[2][j],
                              v[3][j], v[4][j], v[5][j], v[6][j]);
}

/* f(model, flag, ...) with model and flag as constants, so that the inlined
   loop keeps no branch on them. */
#define DISPATCH(f, model, flag, ...)                                          \
    do {                                                                       \
        if ((model) == 1)                                                      \
            (flag) ? f(1, 1, __VA_ARGS__) : f(1, 0, __VA_ARGS__);              \
        else if ((model) == 2)                                                 \
            (flag) ? f(2, 1, __VA_ARGS__) : f(2, 0, __VA_ARGS__);              \
        else                                                                   \
            (flag) ? f(3, 1, __VA_ARGS__) : f(3, 0, __VA_ARGS__);              \
    } while (0)

/* The slot eq solves for: u1 (6) under H1, u0 (5) under H5, else -1. */
static inline int
solved_slot(int eq)
{
    return eq == EQ_H1 ? 6 : eq == EQ_H5 ? 5 : -1;
}

/* The n slots a campaign's attempts read: slot[i] is the attempt's draw
   number step[i] / GOLDEN, counted from 1, and an attempt takes
   advance / GOLDEN draws in all (6 in model 3, else 7). */
struct draws {
    int n;
    int slot[7];
    uint64_t step[7];
    uint64_t advance;
};

/* Plan a campaign's draws: slot s is read when some position other than
   the solved one takes its value (read_codes() refuses a rep in which
   another position takes the solved slot's).  Model 3 draws no slot 2. */
static struct draws
plan_draws(int model, const int rep[7], int eq)
{
    int solved_at = solved_slot(eq);
    int used[7] = {0};
    for (int k = 0; k < 7; k++)
        if (k != solved_at)
            used[rep[k]] = 1;
    struct draws d = {0};
    int pos = 0;
    for (int s = 0; s < 7; s++) {
        if (model == 3 && s == 2)
            continue;
        pos++;
        if (used[s]) {
            d.slot[d.n] = s;
            d.step[d.n] = (uint64_t)pos * GOLDEN;
            d.n++;
        }
    }
    d.advance = (uint64_t)pos * GOLDEN;
    return d;
}

/* Draw the planned slots of the attempts that start at state[0 .. nb-1],
   one slot for the whole batch at a time, then move each state past the
   attempt.  A draw adds GOLDEN to the state, so the slot's value is one
   addition away and the slots before it need not be drawn. */
ALWAYS_INLINE void
draw_stage(const struct draws *d, int nb, double q[7][BATCH], uint64_t state[BATCH])
{
    for (int i = 0; i < d->n; i++) {
        double *row = q[d->slot[i]];
        uint64_t step = d->step[i];
        for (int j = 0; j < nb; j++) {
            uint64_t z = mix(state[j] + step);
            row[j] = 0.01 + ((double)(z >> 11) * DOUBLE_SCALE) * 0.98;
        }
    }
    for (int j = 0; j < nb; j++)
        state[j] += d->advance;
}

/* The x86-64-v4 and default clones of free_campaign(), picked once at load
   time through a glibc ifunc, and lane_campaign(), compiled for x86-64-v4
   alone and run where LANES_CPU() finds that the CPU can run it.  Other
   compilers and platforms (GCC before 11 knows no x86-64-v4) compile the
   free loop once, for the default target, and run the pool. */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 11
#define CAMPAIGN_CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#define LANES_TARGET __attribute__((target("arch=x86-64-v4")))
#define LANES_CPU() __builtin_cpu_supports("x86-64-v4")
#else
#define CAMPAIGN_CLONES
#define LANES_TARGET
#define LANES_CPU() 0
#endif

/* A campaign's codes, read and checked by read_codes(). */
struct codes {
    int rep[7];
    int model, eq, no_confounding;
    long long budget;
};

/* A float campaign's running tally: the bit pattern of its maximum (see
   the header; it starts at 0, +0.0), its failures and its exhausted
   samples. */
struct tally {
    int64_t max_bits;
    long long failures, exhausted;
};

/* The bit pattern of |x| that the tally compares, as the header says: the
   sign cleared, and a NaN mapped to 0 so that it never wins. */
ALWAYS_INLINE int64_t
abs_bits(double x)
{
    int64_t b;
    memcpy(&b, &x, sizeof b);
    b &= INT64_MAX;
    return b > INF_BITS ? 0 : b;
}

/* Add the n signed violations x[0 .. n-1] to the tally.  GCC vectorizes
   this loop on signed patterns, not on unsigned ones. */
ALWAYS_INLINE void
tally_batch(int n, const double *x, double tol, struct tally *t)
{
    long long failed = 0;
    int64_t m = t->max_bits;
    for (int j = 0; j < n; j++) {
        failed += fabs(x[j]) > tol;
        int64_t b = abs_bits(x[j]);
        if (b > m)
            m = b;
    }
    t->failures += failed;
    t->max_bits = m;
}

/* The rows of a campaign's batch: q[s][j] is slot s of sample j, and a slot
   that is not drawn stays 0.0.  drawn[k] is the row position k takes its
   value from, and v the same with the solved slot's row, solved, in place
   of its drawn one. */
struct rows {
    double q[7][BATCH];
    double solved[BATCH];
    const double *drawn[7], *v[7];
    struct draws d;
};

ALWAYS_INLINE void
init_rows(struct rows *r, const struct codes *c)
{
    memset(r->q, 0, sizeof r->q);
    for (int k = 0; k < 7; k++)
        r->drawn[k] = r->v[k] = r->q[c->rep[k]];
    int s = solved_slot(c->eq);
    if (s >= 0)
        r->v[s] = r->solved;
    r->d = plan_draws(c->model, c->rep, c->eq);
}

/* The loop of a clause without an H1/H5 member: samples BATCH at a time. */
CAMPAIGN_CLONES static struct tally
free_campaign(const struct codes *c, uint64_t start, long long count, uint64_t seed, double tol)
{
    struct rows r;
    init_rows(&r, c);
    uint64_t state[BATCH];
    double violation[BATCH];
    struct tally t = {0, 0, 0};
    for (long long base = 0; base < count; base += BATCH) {
        int nb = count - base < BATCH ? (int)(count - base) : BATCH;
        /* sample index i = start + base + j; unsigned, so it wraps like & _MASK64 */
        uint64_t first = start + (uint64_t)base;
        for (int j = 0; j < nb; j++)
            state[j] = mix(seed + (first + (uint64_t)j + 1) * GOLDEN);
        draw_stage(&r.d, nb, r.q, state);
        DISPATCH(violation_batch, c->model, c->no_confounding, nb, r.v, violation);
        tally_batch(nb, violation, tol, &t);
    }
    return t;
}

/* Draw, solve and evaluate the next attempt of the n samples whose stream
   states are state[0 .. n-1]. */
ALWAYS_INLINE void
attempt_stage(const struct codes *c, struct rows *r, int n, uint64_t state[BATCH],
              double violation[BATCH])
{
    draw_stage(&r->d, n, r->q, state);
    DISPATCH(solve_batch, c->model, c->eq == EQ_H1, n, r->drawn, r->solved);
    DISPATCH(violation_batch, c->model, c->no_confounding, n, r->v, violation);
}

/* The H1/H5 loop over a pool (see the header): entry j has stream state
   state[j] and left[j] redraws left. */
static struct tally
pool_campaign(const struct codes *c, uint64_t start, long long count, uint64_t seed, double tol)
{
    struct rows r;
    init_rows(&r, c);
    uint64_t state[BATCH];
    double violation[BATCH], tallied[BATCH];
    long long left[BATCH];
    struct tally t = {0, 0, 0};
    int npool = 0;
    long long next = 0, exhausted = 0; /* next: the first sample not yet in the pool */
    while (next < count || npool > 0) {
        int fresh = count - next < BATCH - npool ? (int)(count - next) : BATCH - npool;
        for (int j = 0; j < fresh; j++) {
            /* sample index i = start + next + j, wrapping like & _MASK64 */
            state[npool + j] = mix(seed + (start + (uint64_t)(next + j) + 1) * GOLDEN);
            left[npool + j] = c->budget;
        }
        npool += fresh;
        next += fresh;
        attempt_stage(c, &r, npool, state, violation);
        /* the branch-free sort of the header; kept <= j, so no write lands
           on an entry not yet read */
        int nacc = 0, kept = 0;
        for (int j = 0; j < npool; j++) {
            int accepted = (0.0 <= r.solved[j]) & (r.solved[j] <= 1.0);
            int retry = !accepted & (left[j] > 0);
            tallied[nacc] = violation[j];
            nacc += accepted;
            state[kept] = state[j];
            left[kept] = left[j] - 1;
            kept += retry;
            exhausted += !accepted & !retry;
        }
        tally_batch(nacc, tallied, tol, &t);
        npool = kept;
    }
    t.exhausted = exhausted;
    return t;
}

/* The H1/H5 loop over fixed lanes (see the header): lane j runs sample
   sample[j] of the campaign, whose stream state is state[j], with left[j]
   redraws left; key[j] is the key its stream state was mixed from, seed +
   (start + sample[j] + 1) * GOLDEN. */
LANES_TARGET static struct tally
lane_campaign(const struct codes *c, uint64_t start, long long count, uint64_t seed, double tol)
{
    struct rows r;
    init_rows(&r, c);
    uint64_t state[BATCH], key[BATCH], sample[BATCH];
    double violation[BATCH];
    long long left[BATCH];
    const long long budget = c->budget;
    int lanes = count < BATCH ? (int)count : BATCH;
    /* a lane steps over stride samples, and its key over jump */
    const uint64_t stride = (uint64_t)lanes, jump = stride * GOLDEN, total = (uint64_t)count;
    for (int j = 0; j < lanes; j++) {
        sample[j] = (uint64_t)j;
        /* sample index i = start + j, wrapping like & _MASK64 */
        key[j] = seed + (start + (uint64_t)j + 1) * GOLDEN;
        state[j] = mix(key[j]);
        left[j] = budget;
    }
    int64_t m = 0;
    long long failed = 0, exhausted = 0;
    while (lanes > 0) {
        attempt_stage(c, &r, lanes, state, violation);
        /* tally the accepted attempts of lanes still within count, and move
           on every lane whose sample is done; no branch, no running index */
        int passed = 0;
        for (int j = 0; j < lanes; j++) {
            int live = sample[j] < total;
            int accepted = (0.0 <= r.solved[j]) & (r.solved[j] <= 1.0);
            int spent = !accepted & (left[j] == 0);
            int done = accepted | spent;
            int counted = accepted & live;
            failed += counted & (fabs(violation[j]) > tol);
            int64_t b = abs_bits(violation[j]) & -(int64_t)counted;
            if (b > m)
                m = b;
            exhausted += spent & live;
            uint64_t moved = -(uint64_t)done; /* all ones when done */
            sample[j] += stride & moved;
            key[j] += jump & moved;
            state[j] = done ? mix(key[j]) : state[j];
            left[j] = done ? budget : left[j] - 1;
            passed += sample[j] >= total;
        }
        /* once half the lanes have passed count, keep the live ones */
        if (2 * passed >= lanes) {
            int kept = 0;
            for (int j = 0; j < lanes; j++) {
                if (sample[j] < total) {
                    sample[kept] = sample[j];
                    key[kept] = key[j];
                    state[kept] = state[j];
                    left[kept] = left[j];
                    kept++;
                }
            }
            lanes = kept;
        }
    }
    return (struct tally){m, failed, exhausted};
}

/* The campaign, run with the GIL released: its (max_violation, failures,
   exhausted) go to out. */
static void
campaign(const struct codes *c, uint64_t start, long long count, uint64_t seed, double tol,
         double *max_out, long long *failures_out, long long *exhausted_out)
{
    struct tally t = c->eq == EQ_NONE ? free_campaign(c, start, count, seed, tol)
                     : LANES_CPU()     ? lane_campaign(c, start, count, seed, tol)
                                       : pool_campaign(c, start, count, seed, tol);
    memcpy(max_out, &t.max_bits, sizeof *max_out);
    *failures_out = t.failures;
    *exhausted_out = t.exhausted;
}

/* Read the codes run_campaign() and grid_tally() share into *c, with the
   checks of _pykernel._read_codes in its order: ValueError unless rep is
   7 slot indices in 0..6, model is 1, 2 or 3 (True == 1, yet it is no
   model number), eq and conclusion are codes of this module and budget is
   non-negative, and unless under H1 or H5 rep leaves the solved slot s
   untied: rep[s] == s and no other position reads slot s.  No sample can
   spend 2**63 redraws, so a larger budget reads as that. */
static int
read_codes(PyObject *model_obj, PyObject *rep_obj, PyObject *eq_obj, PyObject *conclusion_obj,
           PyObject *budget_obj, struct codes *c)
{
    long long model, eq, conclusion;
    if (read_rep(rep_obj, c->rep) < 0)
        return -1;
    if (PyBool_Check(model_obj)) {
        PyErr_SetString(PyExc_ValueError, MODEL_ERROR);
        return -1;
    }
    if (read_int(model_obj, 1, 3, MODEL_ERROR, &model) < 0
        || read_int(eq_obj, EQ_NONE, EQ_H5, "eq must be EQ_NONE, EQ_H1 or EQ_H5", &eq) < 0
        || read_int(conclusion_obj, IRRELEVANT, NO_CONFOUNDING,
                    "conclusion must be IRRELEVANT or NO_CONFOUNDING", &conclusion) < 0
        || read_int(budget_obj, 0, LLONG_MAX, "budget must be non-negative", &c->budget) < 0)
        return -1;
    c->model = (int)model;
    c->eq = (int)eq;
    c->no_confounding = conclusion == NO_CONFOUNDING;
    int s = solved_slot(c->eq);
    if (s >= 0) {
        int readers = 0;
        for (int k = 0; k < 7; k++)
            readers += c->rep[k] == s;
        if (c->rep[s] != s || readers > 1) {
            PyErr_SetString(PyExc_ValueError, "rep must not tie the slot eq solves for");
            return -1;
        }
    }
    return 0;
}

/* The entry points' argument readers, one per PyArg_ParseTuple format unit
   (see the header): */

/* - the argument count; */
static int
check_nargs(const char *fname, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)", fname, expected,
                 nargs);
    return -1;
}

/* - "K": an int reduced modulo 2**64, like & _MASK64 (argno counts from 1); */
static int
read_wrapped(PyObject *o, const char *fname, int argno, uint64_t *out)
{
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s() argument %d must be int, not %.50s", fname, argno,
                     o == Py_None ? "None" : Py_TYPE(o)->tp_name);
        return -1;
    }
    *out = PyLong_AsUnsignedLongLongMask(o);
    return *out == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

/* - "L": an object with __index__, as a long long (OverflowError outside it); */
static int
read_long_long(PyObject *o, long long *out)
{
    *out = PyLong_AsLongLong(o);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* - "n": the same, as a Py_ssize_t; */
static int
read_ssize(PyObject *o, Py_ssize_t *out)
{
    PyObject *index = PyNumber_Index(o);
    if (index == NULL)
        return -1;
    *out = PyLong_AsSsize_t(index);
    Py_DECREF(index);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* - "d": a real number, as a double. */
static int
read_double(PyObject *o, double *out)
{
    *out = PyFloat_AsDouble(o);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* A new tuple of the n items, whose references it steals; NULL, with the
   items released, when an item or the tuple could not be made. */
static PyObject *
tuple_of(int n, PyObject *items[])
{
    int made = 1;
    for (int i = 0; i < n; i++)
        made &= items[i] != NULL;
    PyObject *t = made ? PyTuple_New(n) : NULL;
    for (int i = 0; i < n; i++) {
        if (t != NULL)
            PyTuple_SET_ITEM(t, i, items[i]);
        else
            Py_XDECREF(items[i]);
    }
    return t;
}

PyDoc_STRVAR(run_campaign_doc,
"run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget)\n\n"
"See _pykernel.run_campaign; identical contract and results.");

static PyObject *
run_campaign(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long start, count;
    uint64_t seed;
    double tol;
    struct codes c;
    if (check_nargs("run_campaign", nargs, 9) < 0 || read_long_long(args[4], &start) < 0
        || read_long_long(args[5], &count) < 0 || read_wrapped(args[6], "run_campaign", 7, &seed) < 0
        || read_double(args[7], &tol) < 0
        || read_codes(args[0], args[1], args[2], args[3], args[8], &c) < 0)
        return NULL;

    double max_violation;
    long long failures, exhausted;
    Py_BEGIN_ALLOW_THREADS
    campaign(&c, (uint64_t)start, count, seed, tol, &max_violation, &failures, &exhausted);
    Py_END_ALLOW_THREADS

    return tuple_of(3, (PyObject *[]){PyFloat_FromDouble(max_violation),
                                      PyLong_FromLongLong(failures),
                                      PyLong_FromLongLong(exhausted)});
}

/* The grid row of the attempt that starts at state, as _pykernel.grid_tally
   draws it: each planned slot's 10 + u64 % 981, placed by rep, and 0 in a
   slot no position reads. */
ALWAYS_INLINE void
grid_row(const struct draws *d, const int rep[7], uint64_t state, int64_t row[7])
{
    int64_t n[7] = {0};
    for (int i = 0; i < d->n; i++)
        n[d->slot[i]] = (int64_t)(10 + mix(state + d->step[i]) % 981);
    for (int j = 0; j < 7; j++)
        row[j] = n[rep[j]];
}

/* The signed violation *num / *den of the conclusion (the bias, else the
   standardized minus the observed proportion) on a grid row n with no
   solved slot: joint._cells over one = GRID and joint._exact_pairs, as
   _pykernel.grid_tally cross-multiplies them, in fixed-width integers:
   h * od - o * hd over hd * od, else s * od - o * sd over sd * od, where
   sd = stratum0 * stratum1 * pe and s = p5 * weight0 * stratum1 +
   p7 * weight1 * stratum0.  The bounds that make them exact:
   - each mass is in [0, 10**6] (MODEL_ALGEBRA) and each outcome factor in
     [0, 1000], so each cell is in [0, 10**9]: int64.  The masses sum to
     1000**2 and each mass's two cells to the mass times 1000, so the cells
     sum to 10**9 = pe + pu, and stratum0 + stratum1 = pu;
   - no confounding: (p1 + p3) * pu and (p5 + p7) * pe lie in [0, den],
     den = pe * pu <= (10**9 / 2)**2 = 2.5e17 < 2**63: int64;
   - irrelevance: p5 <= stratum0 and p7 <= stratum1, so the bracket lies in
     [0, stratum0 * stratum1 * pe], and every partial product of both terms
     of num lies in [0, den], den = pe * pu * stratum0 * stratum1
     <= pe * pu**3 / 4, which with pe + pu = 10**9 is at most
     27/1024 * 10**36 < 2.7e34 < 2**115: int128.
   So 0 <= den < 2**115, |num| <= den, and num is 0 wherever den is.

   solved_violation() runs the same conclusions on a row whose H1/H5 solve
   gave its solved slot as num / den (solve_exact()), over the smaller common
   denominator of _pykernel.grid_tally.  Scaled to q = 1000 * den, every
   cell of joint._cells carries den**2 from its mass; divided out, each
   cell is a mass over 1000**2 (as above) times an outcome factor over q,
   and the cells sum to T = 1000**2 * q.  The bounds:
   - den < 10**15 and an accepted solve has 0 <= num <= den, so every
     outcome value over q (a slot times den, or num * 1000) and its
     complement lie in [0, q], q < 10**18: int64;
   - each cell is a mass times such a factor, below 10**6 * q < 10**24 <
     2**80: int128; so is every sum of cells, all below T < 10**24;
   - no confounding: both terms of num lie in [0, den],
     den = pe * pu <= T**2 / 4 < 2**158;
   - irrelevance: every partial product lies in [0, den] as above, and
     den = pe * pu * stratum0 * stratum1 <= (T**2 / 4) * (pu**2 / 4)
     < T**4 / 16 < 2**316, since T < 2**79.73.
   So num and den fit LIMBS = 5 limbs of 64 bits, and the cross products
   that compare two pairs of either kind fit 2 * LIMBS. */
ALWAYS_INLINE void
exact_violation(int model, int irrelevant, const int64_t n[7], i128 *num, i128 *den)
{
    const int64_t one = GRID;
    int64_t m[4];
    masses_exact(model, one, n[0], n[1], n[2], m);
    int64_t p0 = m[0] * (one - n[5]), p1 = m[0] * n[5];
    int64_t p2 = m[1] * (one - n[6]), p3 = m[1] * n[6];
    int64_t p4 = m[2] * (one - n[3]), p5 = m[2] * n[3];
    int64_t p6 = m[3] * (one - n[4]), p7 = m[3] * n[4];
    int64_t pe = p0 + p1 + p2 + p3;
    int64_t pu = p4 + p5 + p6 + p7;
    if (irrelevant) {
        i128 stratum0 = p4 + p5, stratum1 = p6 + p7;
        *num = ((i128)p5 * (p0 + p1) * stratum1 + (i128)p7 * (p2 + p3) * stratum0) * pu
               - (i128)(p5 + p7) * pe * stratum0 * stratum1;
        *den = (i128)pe * pu * stratum0 * stratum1;
    } else {
        *num = (p1 + p3) * pu - (p5 + p7) * pe;
        *den = pe * pu;
    }
}

#define LIMBS 5

/* A non-negative integer below 2**320: LIMBS 64-bit limbs, least
   significant first.  The tally keeps only |num|, so its pairs need no
   sign. */
typedef struct {
    uint64_t w[LIMBS];
} wide;

ALWAYS_INLINE wide
wide_from(u128 x)
{
    wide r = {{(uint64_t)x, (uint64_t)(x >> 64)}};
    return r;
}

/* The low n limbs of a * b, schoolbook; the product must be below
   2**(64 * n). */
ALWAYS_INLINE void
mul_limbs(const uint64_t a[LIMBS], const uint64_t b[LIMBS], uint64_t *out, int n)
{
    memset(out, 0, n * sizeof *out);
    for (int i = 0; i < LIMBS; i++) {
        if (a[i] == 0)
            continue;
        uint64_t carry = 0;
        for (int j = 0; j < LIMBS && i + j < n; j++) {
            /* below 2**128: (2**64 - 1)**2 + 2 * (2**64 - 1) = 2**128 - 1 */
            u128 t = (u128)a[i] * b[j] + out[i + j] + carry;
            out[i + j] = (uint64_t)t;
            carry = (uint64_t)(t >> 64);
        }
        if (i + LIMBS < n)
            out[i + LIMBS] = carry;
    }
}

ALWAYS_INLINE wide
wide_mul(wide a, wide b)
{
    wide r;
    mul_limbs(a.w, b.w, r.w, LIMBS);
    return r;
}

ALWAYS_INLINE wide
wide_add(wide a, wide b)
{
    wide r;
    uint64_t carry = 0;
    for (int i = 0; i < LIMBS; i++) {
        u128 t = (u128)a.w[i] + b.w[i] + carry;
        r.w[i] = (uint64_t)t;
        carry = (uint64_t)(t >> 64);
    }
    return r;
}

/* Compare the n-limb integers a and b: negative, zero or positive. */
ALWAYS_INLINE int
cmp_limbs(const uint64_t *a, const uint64_t *b, int n)
{
    for (int i = n - 1; i >= 0; i--)
        if (a[i] != b[i])
            return a[i] > b[i] ? 1 : -1;
    return 0;
}

/* |a - b| */
ALWAYS_INLINE wide
wide_distance(wide a, wide b)
{
    if (cmp_limbs(a.w, b.w, LIMBS) < 0) {
        wide t = a;
        a = b;
        b = t;
    }
    wide r;
    uint64_t borrow = 0;
    for (int i = 0; i < LIMBS; i++) {
        uint64_t d = a.w[i] - b.w[i];
        uint64_t under = a.w[i] < b.w[i];
        r.w[i] = d - borrow;
        borrow = under | (d < borrow);
    }
    return r;
}

ALWAYS_INLINE int
wide_is_zero(wide a)
{
    uint64_t any = 0;
    for (int i = 0; i < LIMBS; i++)
        any |= a.w[i];
    return any == 0;
}

/* a / b > c / d for positive b and d, exactly: a * d > c * b in 2 * LIMBS
   limbs. */
ALWAYS_INLINE int
wide_exceeds(const wide *a, const wide *b, const wide *c, const wide *d)
{
    uint64_t ad[2 * LIMBS], cb[2 * LIMBS];
    mul_limbs(a->w, d->w, ad, 2 * LIMBS);
    mul_limbs(c->w, b->w, cb, 2 * LIMBS);
    return cmp_limbs(ad, cb, 2 * LIMBS) > 0;
}

/* Count the nonzero |violation| size / den as a failure, and keep it as the
   maximum best_num / best_den when larger: the first of equal maxima stays. */
ALWAYS_INLINE void
tally_pair(wide size, wide den, long long *failures, wide *best_num, wide *best_den)
{
    (*failures)++;
    if (wide_exceeds(&size, &den, best_num, best_den)) {
        *best_num = size;
        *best_den = den;
    }
}

/* |violation| as *size / *den on a grid row n whose solved slot is num / den
   (see exact_violation() for the representation and its bounds). */
ALWAYS_INLINE void
solved_violation(int model, int h1, int irrelevant, const int64_t n[7], int64_t num,
                 int64_t den, wide *size, wide *den_out)
{
    int64_t m[4];
    masses_exact(model, GRID, n[0], n[1], n[2], m);
    const int64_t q = GRID * den;
    /* b0, b1, u0, u1 over q */
    int64_t o[4] = {n[3] * den, n[4] * den, n[5] * den, n[6] * den};
    o[h1 ? 3 : 2] = num * GRID;
    u128 p0 = (u128)m[0] * (uint64_t)(q - o[2]), p1 = (u128)m[0] * (uint64_t)o[2];
    u128 p2 = (u128)m[1] * (uint64_t)(q - o[3]), p3 = (u128)m[1] * (uint64_t)o[3];
    u128 p4 = (u128)m[2] * (uint64_t)(q - o[0]), p5 = (u128)m[2] * (uint64_t)o[0];
    u128 p6 = (u128)m[3] * (uint64_t)(q - o[1]), p7 = (u128)m[3] * (uint64_t)o[1];
    wide pe = wide_from(p0 + p1 + p2 + p3), pu = wide_from(p4 + p5 + p6 + p7);
    wide plus, minus;
    if (irrelevant) {
        wide stratum0 = wide_from(p4 + p5), stratum1 = wide_from(p6 + p7);
        wide strata = wide_mul(stratum0, stratum1);
        wide bracket = wide_add(wide_mul(wide_from(p5), wide_mul(wide_from(p0 + p1), stratum1)),
                                wide_mul(wide_from(p7), wide_mul(wide_from(p2 + p3), stratum0)));
        plus = wide_mul(bracket, pu);
        minus = wide_mul(wide_mul(wide_from(p5 + p7), pe), strata);
        *den_out = wide_mul(wide_mul(pe, pu), strata);
    } else {
        plus = wide_mul(wide_from(p1 + p3), pu);
        minus = wide_mul(wide_from(p5 + p7), pe);
        *den_out = wide_mul(pe, pu);
    }
    *size = wide_distance(plus, minus);
}

/* The exact tally of grid_tally(), run with the GIL released: a clause with
   no H1/H5 member in 64- and 128-bit integers, any other through
   solved_violation(); the maximum is a wide pair in both. */
static void
tally_grid(const struct codes *c, uint64_t seed, uint64_t start, Py_ssize_t count,
           long long *failures_out, wide *max_num, wide *max_den, long long *exhausted_out)
{
    struct draws d = plan_draws(c->model, c->rep, c->eq);
    int irrelevant = !c->no_confounding;
    long long failures = 0, exhausted = 0;
    wide best_num = {{0}}, best_den = {{1}};
    if (c->eq == EQ_NONE) {
        for (Py_ssize_t k = 0; k < count; k++) {
            int64_t n[7];
            i128 num, den;
            /* sample index start + k, wrapping like & _MASK64 */
            grid_row(&d, c->rep, mix(seed + (start + (uint64_t)k + 1) * GOLDEN), n);
            exact_violation(c->model, irrelevant, n, &num, &den);
            if (num != 0)
                tally_pair(wide_from((u128)(num < 0 ? -num : num)), wide_from((u128)den),
                           &failures, &best_num, &best_den);
        }
    } else {
        int h1 = c->eq == EQ_H1;
        for (Py_ssize_t k = 0; k < count; k++) {
            uint64_t state = mix(seed + (start + (uint64_t)k + 1) * GOLDEN);
            int64_t n[7], num = 0, den = 0;
            int accepted = 0;
            for (long long attempt = 0; !accepted && attempt <= c->budget; attempt++) {
                grid_row(&d, c->rep, state, n);
                state += d.advance;
                solve_exact(c->model, h1, GRID, n[0], n[1], n[2], n[3], n[4], n[5], n[6],
                            &num, &den);
                accepted = den != 0 && 0 <= num && num <= den;
            }
            if (!accepted) {
                exhausted++;
                continue;
            }
            wide size, vden;
            solved_violation(c->model, h1, irrelevant, n, num, den, &size, &vden);
            if (!wide_is_zero(size))
                tally_pair(size, vden, &failures, &best_num, &best_den);
        }
    }
    *max_num = best_num;
    *max_den = best_den;
    *failures_out = failures;
    *exhausted_out = exhausted;
}

/* x as a Python int: one limb directly, more through their hex digits,
   since the C API has no public constructor from limbs before Python 3.13. */
static PyObject *
long_from_wide(const wide *x)
{
    int n = LIMBS;
    while (n > 1 && x->w[n - 1] == 0)
        n--;
    if (n == 1)
        return PyLong_FromUnsignedLongLong(x->w[0]);
    char hex[16 * LIMBS + 1], *p = hex;
    for (int i = n - 1; i >= 0; i--)
        for (int shift = 60; shift >= 0; shift -= 4)
            *p++ = "0123456789abcdef"[(x->w[i] >> shift) & 15];
    *p = '\0';
    return PyLong_FromString(hex, NULL, 16);
}

PyDoc_STRVAR(grid_tally_doc,
"grid_tally(model, rep, eq, conclusion, seed, start, count, budget)\n\n"
"See _pykernel.grid_tally; identical contract and results.");

static PyObject *
grid_tally(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed, start;
    Py_ssize_t count;
    struct codes c;
    if (check_nargs("grid_tally", nargs, 8) < 0 || read_wrapped(args[4], "grid_tally", 5, &seed) < 0
        || read_wrapped(args[5], "grid_tally", 6, &start) < 0 || read_ssize(args[6], &count) < 0
        || read_codes(args[0], args[1], args[2], args[3], args[7], &c) < 0)
        return NULL;
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        return NULL;
    }
    long long failures, exhausted;
    wide max_num, max_den;
    Py_BEGIN_ALLOW_THREADS
    tally_grid(&c, seed, start, count, &failures, &max_num, &max_den, &exhausted);
    Py_END_ALLOW_THREADS

    return tuple_of(4, (PyObject *[]){PyLong_FromLongLong(failures), long_from_wide(&max_num),
                                      long_from_wide(&max_den), PyLong_FromLongLong(exhausted)});
}

static PyMethodDef methods[] = {
    {"run_campaign", (PyCFunction)(void (*)(void))run_campaign, METH_FASTCALL, run_campaign_doc},
    {"grid_tally", (PyCFunction)(void (*)(void))grid_tally, METH_FASTCALL, grid_tally_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernel",
    .m_doc = "Compiled campaign kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&module);
}
