/* Compiled campaign kernel.
 *
 * Returns what _pykernel.run_campaign returns, bit for bit.  The pure kernel
 * runs the library's helpers, so this file transliterates them with the same
 * operand order: masses() is joint._masses, the cells in violation_at() are
 * joint._cells, and solve() is hypotheses._solve, each at one = 1.  setup.py
 * compiles this file with -ffp-contract=off, because a fused multiply-add
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
 * A clause with an H1 or H5 member runs a second loop over a pool of up to
 * BATCH samples whose solve has not been accepted yet.  Each round tops the
 * pool up with fresh samples in index order, draws every entry's next
 * attempt from its own stream state, solves and evaluates the whole pool,
 * tallies the samples whose solve landed in [0, 1] and keeps the rejected
 * ones that have budget left for the next round.  So a redraw runs in a
 * full-width round beside fresh samples, and each sample's k-th attempt is
 * still the k-th round of its own stream, as in the reference loop.  The
 * round sorts its entries without a branch: each is written to the end of
 * both the accepted and the kept list, and only the list it belongs to
 * grows; the accepted list is then tallied as one batch.  Tallying the
 * whole pool instead, with the rejected entries' bits set to a NaN, was
 * measured: no faster on the AVX-512 clone, and the default clone ran the
 * H1 clauses 20-25% slower, so it is not used.  The maximum, failures and
 * exhausted count do not depend on the order samples are tallied in.
 * Clauses without such a member keep the plain loop, which has no pool to
 * keep.
 *
 * On x86-64 with GCC and glibc the campaign loop is compiled twice, for
 * x86-64-v4 (AVX-512) and for the default target, and the loader picks the
 * clone the CPU can run.  Only AVX-512DQ has vector forms of the 64-bit
 * multiply and of the 64-bit integer to double conversion the draws need.
 * The clones give the same bits: -ffp-contract=off applies to both, so
 * neither fuses a multiply-add; vector multiplies and divides round as IEEE
 * scalar ones do; and z >> 11 < 2**53 converts to double exactly.
 *
 * Exact campaigns run on the thousandths grid.  grid_rows() gives them
 * their draws as rows of grid numerators, a block of samples per call, as
 * _pykernel.grid_rows does.  grid_tally() runs a whole exact campaign of a
 * clause without an H1/H5 member, as _pykernel.grid_tally does in Python
 * integers, here in fixed-width ones (see exact_violation()); a clause with
 * such a member stays in Python integers, since after model 1's H1 solve
 * the cells pass 160 bits.  Both take the campaign's draw plan with no
 * solved position, so they draw only the slots a row reads.  The build
 * fails without __int128, and setup.py then installs the pure kernel alone.
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
#define CONCLUSION_ERROR "conclusion must be IRRELEVANT or NO_CONFOUNDING"
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

/* Read a model number into *out; raise ValueError unless it is 1, 2 or 3.
   True == 1, yet it is no model number. */
static int
read_model(PyObject *o, long long *out)
{
    if (PyBool_Check(o)) {
        PyErr_SetString(PyExc_ValueError, MODEL_ERROR);
        return -1;
    }
    return read_int(o, 1, 3, MODEL_ERROR, out);
}

/* joint._masses at one = 1: m = (exposed0, exposed1, unexposed0, unexposed1),
   P(E, C) from the model's first slots. */
ALWAYS_INLINE void
masses(int model, double v0, double v1, double v2, double m[4])
{
    if (model == 1) { /* t, a0, a1 */
        m[0] = v1 * (1.0 - v0);
        m[1] = v2 * v0;
        m[2] = (1.0 - v1) * (1.0 - v0);
        m[3] = (1.0 - v2) * v0;
    } else if (model == 2) { /* a, c0, c1 */
        m[0] = v0 * (1.0 - v2);
        m[1] = v0 * v2;
        m[2] = (1.0 - v0) * (1.0 - v1);
        m[3] = (1.0 - v0) * v1;
    } else { /* a, t */
        m[0] = v0 * (1.0 - v1);
        m[1] = v0 * v1;
        m[2] = (1.0 - v0) * (1.0 - v1);
        m[3] = (1.0 - v0) * v1;
    }
}

/* hypotheses._solve at one = 1, divided once as impose divides it: u1 (v6)
   under H1, else u0 (v5) under H5.  Its dens carry a leading factor one,
   which is dropped here: 1.0 * x is x. */
ALWAYS_INLINE double
solve(int model, int h1, double v0, double v1, double v2, double v3,
      double v4, double v5, double v6)
{
    double num, den;
    if (h1) {
        if (model == 1) {
            double m[4];
            masses(1, v0, v1, v2, m);
            double unexposed = m[2] + m[3];
            num = (v3 * m[2] + v4 * m[3]) * (m[0] + m[1]) - v5 * m[0] * unexposed;
            den = unexposed * m[1];
        } else if (model == 2) {
            num = v3 * (1.0 - v1) + v4 * v1 - v5 * (1.0 - v2);
            den = v2;
        } else {
            num = v3 * (1.0 - v1) + v4 * v1 - v5 * (1.0 - v1);
            den = v1;
        }
    } else if (model == 1) {
        num = v6 * v2 + v4 * (1.0 - v2) - v3 * (1.0 - v1);
        den = v1;
    } else if (model == 2) {
        double target = v6 * v2 * v0 + v4 * v1 * (1.0 - v0);
        double mass1 = v2 * v0 + v1 * (1.0 - v0);
        double mass0 = (1.0 - v2) * v0 + (1.0 - v1) * (1.0 - v0);
        num = target * mass0 - v3 * (1.0 - v1) * (1.0 - v0) * mass1;
        den = mass1 * (1.0 - v2) * v0;
    } else {
        num = v6 * v0 + (v4 - v3) * (1.0 - v0);
        den = v0;
    }
    return num / den;
}

/* The signed violation of the conclusion (no confounding, else irrelevance)
   on the cells of joint._cells. */
ALWAYS_INLINE double
violation_at(int model, int no_confounding, double v0, double v1, double v2,
             double v3, double v4, double v5, double v6)
{
    double m[4];
    masses(model, v0, v1, v2, m);
    double p0 = m[0] * (1.0 - v5);
    double p1 = m[0] * v5;
    double p2 = m[1] * (1.0 - v6);
    double p3 = m[1] * v6;
    double p4 = m[2] * (1.0 - v3);
    double p5 = m[2] * v3;
    double p6 = m[3] * (1.0 - v4);
    double p7 = m[3] * v4;
    double pe = p0 + p1 + p2 + p3;
    double pu = p4 + p5 + p6 + p7;
    double obs = (p5 + p7) / pu;
    if (no_confounding)
        return (p1 + p3) / pe - obs;
    return (p5 / (p4 + p5)) * ((p0 + p1) / pe)
           + (p7 / (p6 + p7)) * ((p2 + p3) / pe)
           - obs;
}

ALWAYS_INLINE void
solve_batch(int model, int h1, int nb, const double *const v[7], double *out)
{
    for (int j = 0; j < nb; j++)
        out[j] = solve(model, h1, v[0][j], v[1][j], v[2][j], v[3][j], v[4][j],
                       v[5][j], v[6][j]);
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
   the solved one takes its value.  The solved position's own rep is not
   enough to leave a slot out, since another position may read the same
   draw.  Model 3 draws no slot 2. */
static struct draws
plan_draws(int model, const int rep[7], int eq)
{
    int solved_at = eq == EQ_H1 ? 6 : eq == EQ_H5 ? 5 : -1;
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

/* The x86-64-v4 and default clones of campaign(), picked once at load time
   through a glibc ifunc.  Other compilers and platforms (GCC before 11
   knows no x86-64-v4) compile the loop once, for the default target. */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 11
#define CAMPAIGN_CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define CAMPAIGN_CLONES
#endif

/* Add the n signed violations x[0 .. n-1] to the campaign's failures and to
   the bit pattern of its maximum, as the header says.  GCC vectorizes this
   loop on signed patterns, not on unsigned ones. */
ALWAYS_INLINE void
tally_batch(int n, const double *x, double tol, int64_t *max_bits, long long *failures)
{
    long long failed = 0;
    int64_t m = *max_bits;
    for (int j = 0; j < n; j++) {
        failed += fabs(x[j]) > tol;
        int64_t b;
        memcpy(&b, &x[j], sizeof b);
        b &= INT64_MAX; /* |x| */
        if (b > INF_BITS) /* a NaN */
            b = 0;
        if (b > m)
            m = b;
    }
    *failures += failed;
    *max_bits = m;
}

/* The campaign loop, run with the GIL released: its (max_violation,
   failures, exhausted) go to out. */
CAMPAIGN_CLONES static void
campaign(int model, const int rep[7], int eq, int no_confounding, uint64_t start,
         long long count, uint64_t seed, double tol, long long budget, double *max_out,
         long long *failures_out, long long *exhausted_out)
{
    /* q[s][j]: slot s of sample j; a slot that is not drawn stays 0.0 */
    double q[7][BATCH] = {{0.0}};
    uint64_t state[BATCH];
    double violation[BATCH];
    /* drawn[k]: the row slot k takes its value from; v: the same, with the
       solved slot's row in place of its drawn one */
    const double *drawn[7], *v[7];
    for (int k = 0; k < 7; k++)
        drawn[k] = q[rep[k]];
    memcpy(v, drawn, sizeof v);
    struct draws d = plan_draws(model, rep, eq);
    int64_t max_bits = 0; /* +0.0 */
    long long failures = 0;
    long long exhausted = 0;
    if (eq == EQ_NONE) {
        for (long long base = 0; base < count; base += BATCH) {
            int nb = count - base < BATCH ? (int)(count - base) : BATCH;
            /* sample index i = start + base + j; unsigned, so it wraps like & _MASK64 */
            uint64_t first = start + (uint64_t)base;
            for (int j = 0; j < nb; j++)
                state[j] = mix(seed + (first + (uint64_t)j + 1) * GOLDEN);
            draw_stage(&d, nb, q, state);
            DISPATCH(violation_batch, model, no_confounding, nb, v, violation);
            tally_batch(nb, violation, tol, &max_bits, &failures);
        }
    } else {
        /* the pool (see the header): entry j has stream state state[j] and
           left[j] redraws left */
        double solved[BATCH], tallied[BATCH];
        long long left[BATCH];
        if (eq == EQ_H1)
            v[6] = solved;
        else
            v[5] = solved;
        int npool = 0;
        long long next = 0; /* the first sample not yet in the pool */
        while (next < count || npool > 0) {
            int fresh = count - next < BATCH - npool ? (int)(count - next) : BATCH - npool;
            for (int j = 0; j < fresh; j++) {
                /* sample index i = start + next + j, wrapping like & _MASK64 */
                state[npool + j] = mix(seed + (start + (uint64_t)(next + j) + 1) * GOLDEN);
                left[npool + j] = budget;
            }
            npool += fresh;
            next += fresh;
            draw_stage(&d, npool, q, state);
            DISPATCH(solve_batch, model, eq == EQ_H1, npool, drawn, solved);
            DISPATCH(violation_batch, model, no_confounding, npool, v, violation);
            /* the branch-free sort of the header; kept <= j, so no write
               lands on an entry not yet read */
            int nacc = 0, kept = 0;
            for (int j = 0; j < npool; j++) {
                int accepted = (0.0 <= solved[j]) & (solved[j] <= 1.0);
                int retry = !accepted & (left[j] > 0);
                tallied[nacc] = violation[j];
                nacc += accepted;
                state[kept] = state[j];
                left[kept] = left[j] - 1;
                kept += retry;
                exhausted += !accepted & !retry;
            }
            tally_batch(nacc, tallied, tol, &max_bits, &failures);
            npool = kept;
        }
    }
    memcpy(max_out, &max_bits, sizeof *max_out);
    *failures_out = failures;
    *exhausted_out = exhausted;
}

PyDoc_STRVAR(run_campaign_doc,
"run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget)\n\n"
"See _pykernel.run_campaign; identical contract and results.");

static PyObject *
run_campaign(PyObject *self, PyObject *args)
{
    PyObject *model_obj, *rep_obj, *eq_obj, *conclusion_obj, *budget_obj;
    long long model, eq, conclusion, budget, start, count;
    unsigned long long seed; /* "K" wraps modulo 2**64, like & _MASK64 */
    double tol;
    int rep[7];
    if (!PyArg_ParseTuple(args, "OOOOLLKdO:run_campaign", &model_obj, &rep_obj, &eq_obj,
                          &conclusion_obj, &start, &count, &seed, &tol, &budget_obj))
        return NULL;
    /* no sample can spend 2**63 redraws, so a larger budget reads as that */
    if (read_rep(rep_obj, rep) < 0
        || read_model(model_obj, &model) < 0
        || read_int(eq_obj, EQ_NONE, EQ_H5, "eq must be EQ_NONE, EQ_H1 or EQ_H5", &eq) < 0
        || read_int(conclusion_obj, IRRELEVANT, NO_CONFOUNDING,
                    CONCLUSION_ERROR, &conclusion) < 0
        || read_int(budget_obj, 0, LLONG_MAX, "budget must be non-negative", &budget) < 0)
        return NULL;

    double max_violation;
    long long failures, exhausted;
    Py_BEGIN_ALLOW_THREADS
    campaign((int)model, rep, (int)eq, conclusion == NO_CONFOUNDING, (uint64_t)start, count,
             (uint64_t)seed, tol, budget, &max_violation, &failures, &exhausted);
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(dLL)", max_violation, failures, exhausted);
}

/* The grid row of sample index, as _pykernel.grid_rows gives it, from the
   attempt whose state lies skip past the first: each planned slot's
   10 + u64 % 981, placed by rep, and 0 in a slot no position reads. */
static inline void
grid_row(const struct draws *d, const int rep[7], uint64_t seed, uint64_t index,
         uint64_t skip, int64_t row[7])
{
    uint64_t state = mix(seed + (index + 1) * GOLDEN) + skip;
    int64_t n[7] = {0};
    for (int i = 0; i < d->n; i++)
        n[d->slot[i]] = (int64_t)(10 + mix(state + d->step[i]) % 981);
    for (int j = 0; j < 7; j++)
        row[j] = n[rep[j]];
}

PyDoc_STRVAR(grid_rows_doc,
"grid_rows(model, rep, seed, start, count, attempt)\n\n"
"See _pykernel.grid_rows; identical contract and results.");

static PyObject *
grid_rows(PyObject *self, PyObject *args)
{
    PyObject *model_obj, *rep_obj;
    long long model;
    /* "K" wraps modulo 2**64, like & _MASK64 */
    unsigned long long seed, start, attempt;
    Py_ssize_t count;
    int rep[7];
    if (!PyArg_ParseTuple(args, "OOKKnK:grid_rows", &model_obj, &rep_obj, &seed, &start,
                          &count, &attempt))
        return NULL;
    if (read_rep(rep_obj, rep) < 0 || read_model(model_obj, &model) < 0)
        return NULL;
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        return NULL;
    }
    /* each attempt before this one moved the state by d.advance */
    struct draws d = plan_draws((int)model, rep, EQ_NONE);
    uint64_t skip = (uint64_t)attempt * d.advance;
    PyObject *rows = PyList_New(count);
    if (rows == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < count; k++) {
        int64_t n[7];
        grid_row(&d, rep, (uint64_t)seed, (uint64_t)start + (uint64_t)k, skip, n);
        /* owned by rows from here, so one Py_DECREF(rows) frees a partial row */
        PyObject *row = PyList_New(7);
        if (row == NULL) {
            Py_DECREF(rows);
            return NULL;
        }
        PyList_SET_ITEM(rows, k, row);
        for (int j = 0; j < 7; j++) {
            PyObject *v = PyLong_FromLongLong(n[j]);
            if (v == NULL) {
                Py_DECREF(rows);
                return NULL;
            }
            PyList_SET_ITEM(row, j, v);
        }
    }
    return rows;
}

/* The signed violation *num / *den of the conclusion (the bias, else the
   standardized minus the observed proportion) on a grid row n: joint._cells
   over one = GRID and _pykernel._exact_violation, in fixed-width integers.
   The bounds that make them exact:
   - each slot is in [10, 990], or 0 for model 3's undrawn slot 2, so each
     mass factor is in [0, 1000], each mass in [0, 10**6] and each cell in
     [0, 10**9]: int64.  The masses sum to 1000**2 and each mass's two cells
     to the mass times 1000, so the cells sum to 10**9 = pe + pu, and
     stratum0 + stratum1 = pu;
   - no confounding: (p1 + p3) * pu and (p5 + p7) * pe lie in [0, den],
     den = pe * pu <= (10**9 / 2)**2 = 2.5e17 < 2**63: int64;
   - irrelevance: p5 <= stratum0 and p7 <= stratum1, so the bracket lies in
     [0, stratum0 * stratum1 * pe], and every partial product of both terms
     of num lies in [0, den], den = pe * pu * stratum0 * stratum1
     <= pe * pu**3 / 4, which with pe + pu = 10**9 is at most
     27/1024 * 10**36 < 2.7e34 < 2**115: int128.
   So 0 <= den < 2**115, |num| <= den, and num is 0 wherever den is. */
ALWAYS_INLINE void
exact_violation(int model, int irrelevant, const int64_t n[7], i128 *num, i128 *den)
{
    const int64_t one = GRID;
    int64_t m0, m1, m2, m3;
    if (model == 1) { /* t, a0, a1 */
        m0 = n[1] * (one - n[0]);
        m1 = n[2] * n[0];
        m2 = (one - n[1]) * (one - n[0]);
        m3 = (one - n[2]) * n[0];
    } else if (model == 2) { /* a, c0, c1 */
        m0 = n[0] * (one - n[2]);
        m1 = n[0] * n[2];
        m2 = (one - n[0]) * (one - n[1]);
        m3 = (one - n[0]) * n[1];
    } else { /* a, t */
        m0 = n[0] * (one - n[1]);
        m1 = n[0] * n[1];
        m2 = (one - n[0]) * (one - n[1]);
        m3 = (one - n[0]) * n[1];
    }
    int64_t p0 = m0 * (one - n[5]), p1 = m0 * n[5];
    int64_t p2 = m1 * (one - n[6]), p3 = m1 * n[6];
    int64_t p4 = m2 * (one - n[3]), p5 = m2 * n[3];
    int64_t p6 = m3 * (one - n[4]), p7 = m3 * n[4];
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

/* (*hi, *lo) = a * b, the full 256-bit product. */
static inline void
mul_256(u128 a, u128 b, u128 *hi, u128 *lo)
{
    u128 a0 = (uint64_t)a, a1 = a >> 64, b0 = (uint64_t)b, b1 = b >> 64;
    u128 low = a0 * b0, cross0 = a0 * b1, cross1 = a1 * b0;
    /* the second 64-bit column with the carry from the first: below 3 * 2**64 */
    u128 mid = (low >> 64) + (uint64_t)cross0 + (uint64_t)cross1;
    *lo = (mid << 64) | (uint64_t)low;
    *hi = a1 * b1 + (cross0 >> 64) + (cross1 >> 64) + (mid >> 64);
}

/* a / b > c / d for positive b and d, exactly: a * d > c * b in 256 bits,
   where the operands below 2**115 give products below 2**230. */
static inline int
exceeds(u128 a, u128 b, u128 c, u128 d)
{
    u128 ad_hi, ad_lo, cb_hi, cb_lo;
    mul_256(a, d, &ad_hi, &ad_lo);
    mul_256(c, b, &cb_hi, &cb_lo);
    return ad_hi > cb_hi || (ad_hi == cb_hi && ad_lo > cb_lo);
}

/* The exact tally of grid_tally(), run with the GIL released. */
static void
tally_grid(int model, const int rep[7], int irrelevant, uint64_t seed, uint64_t start,
           Py_ssize_t count, long long *failures_out, u128 *max_num, u128 *max_den)
{
    struct draws d = plan_draws(model, rep, EQ_NONE);
    long long failures = 0;
    u128 best_num = 0, best_den = 1;
    for (Py_ssize_t k = 0; k < count; k++) {
        int64_t n[7];
        i128 num, den;
        grid_row(&d, rep, seed, start + (uint64_t)k, 0, n);
        exact_violation(model, irrelevant, n, &num, &den);
        if (num != 0) {
            failures++;
            u128 size = (u128)(num < 0 ? -num : num);
            if (exceeds(size, (u128)den, best_num, best_den)) {
                best_num = size;
                best_den = (u128)den;
            }
        }
    }
    *failures_out = failures;
    *max_num = best_num;
    *max_den = best_den;
}

/* x as a Python int, through its hex digits: the C API has no public
   128-bit int constructor before Python 3.13. */
static PyObject *
long_from_u128(u128 x)
{
    char hex[33];
    snprintf(hex, sizeof hex, "%016llx%016llx", (unsigned long long)(x >> 64),
             (unsigned long long)x);
    return PyLong_FromString(hex, NULL, 16);
}

PyDoc_STRVAR(grid_tally_doc,
"grid_tally(model, rep, conclusion, seed, start, count)\n\n"
"See _pykernel.grid_tally; identical contract and results.");

static PyObject *
grid_tally(PyObject *self, PyObject *args)
{
    PyObject *model_obj, *rep_obj, *conclusion_obj;
    long long model, conclusion;
    /* "K" wraps modulo 2**64, like & _MASK64 */
    unsigned long long seed, start;
    Py_ssize_t count;
    int rep[7];
    if (!PyArg_ParseTuple(args, "OOOKKn:grid_tally", &model_obj, &rep_obj, &conclusion_obj,
                          &seed, &start, &count))
        return NULL;
    if (read_rep(rep_obj, rep) < 0 || read_model(model_obj, &model) < 0
        || read_int(conclusion_obj, IRRELEVANT, NO_CONFOUNDING, CONCLUSION_ERROR, &conclusion) < 0)
        return NULL;
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        return NULL;
    }
    long long failures;
    u128 max_num, max_den;
    Py_BEGIN_ALLOW_THREADS
    tally_grid((int)model, rep, conclusion == IRRELEVANT, (uint64_t)seed, (uint64_t)start, count,
               &failures, &max_num, &max_den);
    Py_END_ALLOW_THREADS

    PyObject *num = long_from_u128(max_num), *den = long_from_u128(max_den);
    PyObject *result = num && den ? Py_BuildValue("(LOO)", failures, num, den) : NULL;
    Py_XDECREF(num);
    Py_XDECREF(den);
    return result;
}

static PyMethodDef methods[] = {
    {"run_campaign", run_campaign, METH_VARARGS, run_campaign_doc},
    {"grid_rows", grid_rows, METH_VARARGS, grid_rows_doc},
    {"grid_tally", grid_tally, METH_VARARGS, grid_tally_doc},
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
