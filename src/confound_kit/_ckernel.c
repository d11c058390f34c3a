/* Compiled campaign kernel.
 *
 * Line-by-line transliteration of _pykernel.run_campaign; keep the two in
 * lockstep (same expressions, same operand order) so both backends return
 * bit-identical results.  setup.py compiles this file with
 * -ffp-contract=off: a fused multiply-add would round differently from
 * Python's separate multiply and add.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define DOUBLE_SCALE (1.0 / 9007199254740992.0) /* 2**-53 */

/* equational-constraint and conclusion codes, as in _pykernel */
enum { EQ_NONE = 0, EQ_H1 = 1, EQ_H5 = 2 };
enum { IRRELEVANT = 0, NO_CONFOUNDING = 1 };

static inline uint64_t
mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Read rep into out[7]; raise ValueError unless it is 7 slot indices in 0..6. */
static int
read_rep(PyObject *rep, int out[7])
{
    PyObject *seq = PySequence_Fast(rep, "rep must be a sequence");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != 7) {
        PyErr_SetString(PyExc_ValueError, "rep must be 7 slot indices in 0..6");
        Py_DECREF(seq);
        return -1;
    }
    for (int j = 0; j < 7; j++) {
        long r = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, j));
        if (r == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (r < 0 || r > 6) {
            PyErr_SetString(PyExc_ValueError, "rep must be 7 slot indices in 0..6");
            Py_DECREF(seq);
            return -1;
        }
        out[j] = (int)r;
    }
    Py_DECREF(seq);
    return 0;
}

PyDoc_STRVAR(run_campaign_doc,
"run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget)\n\n"
"See _pykernel.run_campaign; identical contract and results.");

static PyObject *
run_campaign(PyObject *self, PyObject *args)
{
    int model, eq, conclusion, budget;
    PyObject *rep_obj;
    long long start, count;
    unsigned long long seed; /* "K" wraps modulo 2**64, like & _MASK64 */
    double tol;
    int rep[7];
    if (!PyArg_ParseTuple(args, "iOiiLLKdi:run_campaign", &model, &rep_obj, &eq,
                          &conclusion, &start, &count, &seed, &tol, &budget))
        return NULL;
    if (read_rep(rep_obj, rep) < 0)
        return NULL;

    static const int slots7[7] = {0, 1, 2, 3, 4, 5, 6};
    static const int slots6[6] = {0, 1, 3, 4, 5, 6};
    const int *draw_slots = model == 3 ? slots6 : slots7;
    int nslots = model == 3 ? 6 : 7;
    double q[7] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    double max_violation = 0.0;
    long long failures = 0;
    long long exhausted = 0;

    Py_BEGIN_ALLOW_THREADS
    for (long long n = 0; n < count; n++) {
        /* sample index i = start + n; unsigned, so it wraps like & _MASK64 */
        uint64_t state = mix((uint64_t)seed + ((uint64_t)start + (uint64_t)n + 1) * GOLDEN);
        int accepted = 0;
        double v0 = 0.0, v1 = 0.0, v2 = 0.0, v3 = 0.0, v4 = 0.0, v5 = 0.0, v6 = 0.0;
        for (int attempt = 0; attempt <= budget; attempt++) {
            for (int k = 0; k < nslots; k++) {
                state = state + GOLDEN;
                uint64_t z = mix(state);
                q[draw_slots[k]] = 0.01 + ((double)(z >> 11) * DOUBLE_SCALE) * 0.98;
            }
            v0 = q[0];
            v1 = q[rep[1]];
            v2 = q[rep[2]];
            v3 = q[rep[3]];
            v4 = q[rep[4]];
            v5 = q[rep[5]];
            v6 = q[rep[6]];
            if (eq == EQ_H1) {
                double obs;
                if (model == 1) {
                    double e0 = v1 * (1.0 - v0);
                    double e1 = v2 * v0;
                    double n0 = (1.0 - v1) * (1.0 - v0);
                    double n1 = (1.0 - v2) * v0;
                    obs = (v3 * n0 + v4 * n1) / (n0 + n1);
                    v6 = (obs * (e0 + e1) - v5 * e0) / e1;
                } else if (model == 2) {
                    obs = v3 * (1.0 - v1) + v4 * v1;
                    v6 = (obs - v5 * (1.0 - v2)) / v2;
                } else {
                    obs = v3 * (1.0 - v1) + v4 * v1;
                    v6 = (obs - v5 * (1.0 - v1)) / v1;
                }
                if (0.0 <= v6 && v6 <= 1.0) {
                    accepted = 1;
                    break;
                }
            } else if (eq == EQ_H5) {
                if (model == 1) {
                    v5 = (v6 * v2 + v4 * (1.0 - v2) - v3 * (1.0 - v1)) / v1;
                } else if (model == 2) {
                    double target = (v6 * v2 * v0 + v4 * v1 * (1.0 - v0)) /
                                    (v2 * v0 + v1 * (1.0 - v0));
                    double mass0 = (1.0 - v2) * v0 + (1.0 - v1) * (1.0 - v0);
                    v5 = (target * mass0 - v3 * (1.0 - v1) * (1.0 - v0)) /
                         ((1.0 - v2) * v0);
                } else {
                    v5 = v6 + (v4 - v3) * (1.0 - v0) / v0;
                }
                if (0.0 <= v5 && v5 <= 1.0) {
                    accepted = 1;
                    break;
                }
            } else {
                accepted = 1;
                break;
            }
        }
        if (!accepted) {
            exhausted += 1;
            continue;
        }
        double p0, p1, p2, p3, p4, p5, p6, p7;
        if (model == 1) {
            double tb = 1.0 - v0;
            p0 = tb * v1 * (1.0 - v5);
            p1 = tb * v1 * v5;
            p2 = v0 * v2 * (1.0 - v6);
            p3 = v0 * v2 * v6;
            p4 = tb * (1.0 - v1) * (1.0 - v3);
            p5 = tb * (1.0 - v1) * v3;
            p6 = v0 * (1.0 - v2) * (1.0 - v4);
            p7 = v0 * (1.0 - v2) * v4;
        } else if (model == 2) {
            double ab = 1.0 - v0;
            p0 = v0 * (1.0 - v2) * (1.0 - v5);
            p1 = v0 * (1.0 - v2) * v5;
            p2 = v0 * v2 * (1.0 - v6);
            p3 = v0 * v2 * v6;
            p4 = ab * (1.0 - v1) * (1.0 - v3);
            p5 = ab * (1.0 - v1) * v3;
            p6 = ab * v1 * (1.0 - v4);
            p7 = ab * v1 * v4;
        } else {
            double ab = 1.0 - v0;
            double tb = 1.0 - v1;
            p0 = v0 * tb * (1.0 - v5);
            p1 = v0 * tb * v5;
            p2 = v0 * v1 * (1.0 - v6);
            p3 = v0 * v1 * v6;
            p4 = ab * tb * (1.0 - v3);
            p5 = ab * tb * v3;
            p6 = ab * v1 * (1.0 - v4);
            p7 = ab * v1 * v4;
        }
        double pe = p0 + p1 + p2 + p3;
        double pu = p4 + p5 + p6 + p7;
        double obs = (p5 + p7) / pu;
        double violation;
        if (conclusion == NO_CONFOUNDING) {
            violation = (p1 + p3) / pe - obs;
        } else {
            violation = (p5 / (p4 + p5)) * ((p0 + p1) / pe)
                        + (p7 / (p6 + p7)) * ((p2 + p3) / pe)
                        - obs;
        }
        if (violation < 0.0)
            violation = -violation;
        if (violation > tol)
            failures += 1;
        if (violation > max_violation)
            max_violation = violation;
    }
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(dLL)", max_violation, failures, exhausted);
}

static PyMethodDef methods[] = {
    {"run_campaign", run_campaign, METH_VARARGS, run_campaign_doc},
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
