/* The compiled form of wvcsim.vehicles.Fleet.advance, a CPython extension
   module built on first use: a port of rounds of the reference functions
   desired_gap, idm_acceleration and step_vehicles, which the Python body of
   Fleet.advance steps, and of emergency_brake_needed for a braking last
   step. Its one function, advance, writes each VehicleState's x and v, and
   its emergency_braking where a flag may change, itself.

   Every float operation is the reference's, in CPython's semantics and in
   the same order, so both give the same bits: % is CPython's float_rem
   (fmod plus its sign fix); the IDM powers are the reference's products, a
   square b * b and, for delta == 4, the fourth power (b * b) * (b * b); for
   any other delta, ** is libm pow. Build with -ffp-contract=off (no fused
   multiply-add) and -fno-builtin (no pow folded into a multiply).

   py_mod answers almost every % without fmod, on paths where float_rem's
   result is exact and takes one subtraction or addition at most: a gap's
   (xs[j] - xi) * dir[i] lies in [-L, L], and a position update
   xi + nv * dt * dir[i] from xi in [0, L) lies in (-L, 2L), up to rounding,
   whenever nv * dt < L.

   Where the Python body would raise (a gap <= 0, a power that overflows, a
   division by zero, a leader out of range) or treats a case apart (an
   infinite or NaN power, a ** with a negative or NaN base, an animal
   coordinate that is not a float), the kernel stops before that step, or
   before the first, and returns its index, with x and v holding the state
   before it: the Python body takes over from there and raises, or goes on,
   as it would have. A braking vehicle makes the same checks, so it stops
   where the Python body raises too, and then takes -a_em in place of its
   IDM acceleration. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* The buffer's slots: the parameters, then the flag slot, then n each of
   directions, lane centres, positions and speeds, and 3n of scratch. */
enum {
    S0, HEADWAY, A_MAX, DELTA, A_FLOOR, CLOSING, DT, RING, LENGTH, FREE_GAP,
    TWO_B, T_REACT, HOLD, BAND,
    BRAKED,    /* 1.0 where some emergency_braking may be True, else 0.0 */
    STATE      /* the first direction */
};

static PyObject *name_x, *name_y, *name_v, *name_braking;

/* CPython's float_rem: fmod, then the remainder takes the sign of the
   divisor. For w > 0, three exact paths answer without fmod, each with
   float_rem's bits:
   - 0 < a < w: fmod(a, w) is a, already of w's sign;
   - w <= a < 2w: the quotient is 1, so fmod gives a - w, which is exact
     (Sterbenz's lemma, since w/2 <= a <= 2w); at a == w that is +0.0, the
     copysign(0.0, w) of float_rem;
   - -w < a < 0: fmod(a, w) is a, and the sign fix is the same one a + w.
   w + w is exact, or +inf where a < 2w holds for every finite a. Every
   other case (a zero, a <= -w, a >= 2w, a NaN or infinite operand, w <= 0)
   takes the fmod body. */
static double py_mod(double a, double w)
{
    double m;

    if (w > 0.0) {
        if (a > 0.0) {
            if (a < w)
                return a;
            if (a < w + w)
                return a - w;
        } else if (a < 0.0 && a > -w) {
            return a + w;
        }
    }
    m = fmod(a, w);
    if (m) {
        if ((w < 0) != (m < 0))
            m += w;
    } else {
        m = copysign(0.0, w);
    }
    return m;
}

/* emergency_brake_needed for a vehicle at xi with speed vi: the stopping
   envelope (at least the hold zone) against each animal in the lane band
   around the vehicle's lane centre, ahead along its direction. */
static int brake_needed(const double *buf, double xi, double vi, double dir,
                        double centre, const double *ax, const double *ay,
                        Py_ssize_t m)
{
    double reach = vi * vi / buf[TWO_B] + vi * buf[T_REACT];
    Py_ssize_t k;

    if (reach < buf[HOLD])
        reach = buf[HOLD];
    for (k = 0; k < m; k++)
        if (fabs(ay[k] - centre) < buf[BAND]
                && py_mod((ax[k] - xi) * dir, buf[RING]) < reach)
            return 1;
    return 0;
}

/* The float attribute ``name`` of ``obj`` into *out; 0 where it is missing
   or not a float, with no exception left set. */
static int read_float(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    int ok;

    if (value == NULL) {
        PyErr_Clear();
        return 0;
    }
    ok = PyFloat_Check(value);
    if (ok)
        *out = PyFloat_AS_DOUBLE(value);
    Py_DECREF(value);
    return ok;
}

static int set_float(PyObject *obj, PyObject *name, double value)
{
    PyObject *f = PyFloat_FromDouble(value);
    int rc;

    if (f == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, f);
    Py_DECREF(f);
    return rc;
}

/* n_steps rounds at desired speed v0 of one fleet: its buffer (see the
   slots above) and leaders, and its vehicles, a list of n. Where animals
   is a list, the last step is a braking step: each driver whose
   emergency_brake_needed holds for those animals, from that step's
   pre-step snapshot, brakes at -a_em (A_FLOOR) in place of its IDM
   acceleration. The positions and speeds are written to the buffer and to
   the vehicles; on a call that takes all its steps, each emergency_braking
   is set to its driver's brake test (False without animals), where the
   flag slot or a new flag says one may change. Returns the steps taken. */
static long run(double *buf, const long *lead, Py_ssize_t n, long n_steps,
                double v0, PyObject *vehicles, PyObject *animals)
{
    const double s0 = buf[S0], T = buf[HEADWAY], a_max = buf[A_MAX];
    const double delta = buf[DELTA], a_floor = buf[A_FLOOR];
    const double closing = buf[CLOSING], dt = buf[DT], L = buf[RING];
    const double len = buf[LENGTH], free_gap = buf[FREE_GAP];
    const double *dir = buf + STATE, *centre = dir + n;
    double *x = buf + STATE + 2 * n, *v = x + n;
    double *xs = x, *vs = v, *nxs = v + n, *nvs = v + 2 * n, *t;
    double *flag = v + 3 * n;
    double *ax = NULL, *ay = NULL;
    const int quartic = delta == 4.0;
    Py_ssize_t m = 0, i;
    long step = 0, braking_step = animals ? n_steps - 1 : -1;
    int any = 0;

    if (n_steps <= 0)
        goto stop;
    for (i = 0; i < n; i++)
        if (lead[i] >= n)
            goto stop;
    if (n > 0 && (L == 0.0 || v0 == 0.0 || closing == 0.0
                  || (animals && buf[TWO_B] == 0.0)))
        goto stop;
    if (animals) {
        m = PyList_GET_SIZE(animals);
        /* For m == 0 too, NULL only on a failure: the Python body goes on. */
        if ((ax = PyMem_Malloc(2 * m * sizeof *ax)) == NULL)
            goto stop;
        ay = ax + m;
        for (i = 0; i < m; i++) {
            PyObject *a = PyList_GET_ITEM(animals, i);
            if (!read_float(a, name_x, ax + i) || !read_float(a, name_y, ay + i))
                goto stop;
        }
    }
    for (; step < n_steps; step++) {
        for (i = 0; i < n; i++) {
            double xi = xs[i], vi = vs[i], gap, dv, s_star, a, nv, f, q;
            long j = lead[i];
            if (j < 0) {
                gap = free_gap;
                dv = 0.0;
            } else {
                gap = py_mod((xs[j] - xi) * dir[i], L) - len;
                if (gap <= 0.0)
                    goto stop;
                dv = vi - vs[j];
            }
            s_star = s0 + vi * T + vi * dv / closing;
            if (!(s_star > 0.0))    /* desired_gap's clamp, NaN included */
                s_star = 0.0;
            f = vi / v0;
            if (quartic) {
                f *= f;
                f *= f;
            } else if (f >= 0.0) {
                f = pow(f, delta);
            } else {
                goto stop;    /* ** of a negative or NaN base */
            }
            q = s_star / gap;
            q *= q;
            if (!isfinite(f) || !isfinite(q))
                goto stop;
            a = a_max * (1.0 - f - q);
            if (step == braking_step) {
                flag[i] = brake_needed(buf, xi, vi, dir[i], centre[i], ax, ay, m);
                if (flag[i] != 0.0)
                    a = a_floor;
            }
            nv = vi + (a > a_floor ? a : a_floor) * dt;
            if (nv < 0.0)
                nv = 0.0;
            nvs[i] = nv;
            nxs[i] = py_mod(xi + nv * dt * dir[i], L);
        }
        t = xs; xs = nxs; nxs = t;
        t = vs; vs = nvs; nvs = t;
    }
stop:
    PyMem_Free(ax);
    if (xs != x) {
        memcpy(x, xs, n * sizeof *x);
        memcpy(v, vs, n * sizeof *v);
    }
    for (i = 0; i < n; i++) {
        PyObject *vehicle = PyList_GET_ITEM(vehicles, i);
        if (set_float(vehicle, name_x, x[i]) < 0 || set_float(vehicle, name_v, v[i]) < 0)
            return -1;
    }
    if (step < n_steps)
        return step;    /* stopped: the Python body sets the flags */
    for (i = 0; braking_step >= 0 && i < n; i++)
        any |= flag[i] != 0.0;
    if (any || buf[BRAKED] != 0.0) {
        for (i = 0; i < n; i++) {
            PyObject *f = braking_step >= 0 && flag[i] != 0.0 ? Py_True : Py_False;
            if (PyObject_SetAttr(PyList_GET_ITEM(vehicles, i), name_braking, f) < 0)
                return -1;
        }
    }
    buf[BRAKED] = any;
    return step;
}

/* A buffer of ``format`` items of ``size`` bytes, writable or not. */
static int get_buffer(PyObject *obj, Py_buffer *view, int flags, const char *format,
                      Py_ssize_t size, const char *what)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != size || view->format == NULL
            || strcmp(view->format, format) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "advance: %s must be an array of '%s'",
                     what, format);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(advance_doc,
"advance(buf, lead, n_steps, v0, vehicles, animals) -> steps taken\n\n"
"n_steps rounds of the IDM at desired speed v0 for a fleet's buffer (an\n"
"array of 'd') and leaders (an array of 'l'), written to vehicles, a list;\n"
"animals is None, or the list of animals the last step brakes for.");

static PyObject *advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer buf, lead;
    Py_ssize_t n;
    long n_steps, taken = -1;
    double v0;
    PyObject *vehicles, *animals;

    (void)self;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "advance takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    n_steps = PyLong_AsLong(args[2]);
    if (n_steps == -1 && PyErr_Occurred())
        return NULL;
    v0 = PyFloat_AsDouble(args[3]);
    if (v0 == -1.0 && PyErr_Occurred())
        return NULL;
    vehicles = args[4];
    animals = args[5] == Py_None ? NULL : args[5];
    if (!PyList_Check(vehicles) || (animals && !PyList_Check(animals))) {
        PyErr_SetString(PyExc_TypeError,
                        "advance: vehicles must be a list, animals a list or None");
        return NULL;
    }
    if (get_buffer(args[0], &buf, PyBUF_WRITABLE, "d", sizeof(double), "buf") < 0)
        return NULL;
    if (get_buffer(args[1], &lead, PyBUF_SIMPLE, "l", sizeof(long), "lead") < 0) {
        PyBuffer_Release(&buf);
        return NULL;
    }
    n = lead.len / (Py_ssize_t)sizeof(long);
    if (PyList_GET_SIZE(vehicles) != n || buf.len != (STATE + 7 * n) * (Py_ssize_t)sizeof(double))
        PyErr_SetString(PyExc_ValueError,
                        "advance: buf, lead and vehicles disagree on the fleet's size");
    else
        taken = run(buf.buf, lead.buf, n, n_steps, v0, vehicles, animals);
    PyBuffer_Release(&lead);
    PyBuffer_Release(&buf);
    return taken < 0 ? NULL : PyLong_FromLong(taken);
}

static PyMethodDef methods[] = {
    {"advance", (PyCFunction)(void (*)(void))advance, METH_FASTCALL, advance_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "advance_idm", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit_advance_idm(void)
{
    name_x = PyUnicode_InternFromString("x");
    name_y = PyUnicode_InternFromString("y");
    name_v = PyUnicode_InternFromString("v");
    name_braking = PyUnicode_InternFromString("emergency_braking");
    if (!name_x || !name_y || !name_v || !name_braking)
        return NULL;
    return PyModule_Create(&module);
}
