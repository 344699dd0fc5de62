/* The compiled form of wvcsim.vehicles.Fleet's steps and contact scan, of
   wvcsim.detection.Detector's detection and of wvcsim.animals.Herd's
   behaviour, a CPython extension module built on first use, with four
   entries: advance, detect_collisions, detect and behave. A fleet's buffer
   is its vehicles' only state: x, v and the brake flags live there, and no
   entry reads or writes a VehicleState.

   advance is a port of rounds of the Python body of Fleet.advance: the
   reference functions desired_gap, idm_acceleration and step_vehicles on
   the buffer, and emergency_brake_needed for a braking last step. It steps
   x and v and sets the brake flags in the buffer.

   detect_collisions is a port of the reference scan of the same name in
   wvcsim.vehicles. It reads x and the lane centres from the buffer and
   names vehicles by their index.

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
   coordinate that is not a float), advance stops before that step, or
   before the first, and returns its index, with x and v holding the state
   before it: the Python body takes over from there, on the buffer, and
   raises, or goes on, as it would have. A braking vehicle makes the same
   checks, so it stops where the Python body raises too, and then takes
   -a_em in place of its IDM acceleration. detect_collisions returns None
   where it reads an animal coordinate that is not a float: Fleet then asks
   the reference.

   detect is phase 2 of a trial step, a port of wvcsim.detection.Detector's
   Python loop: try_detect (radars_in_range, detection_probability and
   AwarenessState.beta_for) for each awake animal within the radar band. It
   reads a radar buffer (its slots below) and the boost clocks, and draws
   from the trial's detection stream through numpy's bitgen_t (the
   "BitGenerator" capsule; numpy/random/bitgen.h, no numpy library linked):
   Generator.random() is one next_double, so one call per covering radar,
   in rid order, draws what the reference draws; math.exp is libm's exp,
   which detect calls too. Where the reference would
   raise (a zero spacing, a NaN or infinite grid quotient, sigma <= 0, a
   negative kappa, beta or dt, a boost clock past the list) or reads a value
   that is not a float (an animal's x, y or sigma, a boost clock, the time),
   detect stops before that animal, before any draw or write for it, and
   returns its index: Detector's Python loop goes on from there.

   behave is phase 5 of a trial step, a port of wvcsim.animals.Herd's
   Python loop: step_animal for each awake animal, the engine's visit and
   frozen-time accounting, and, for an animal left off the carriageway, its
   quiet walk, take_quiet_steps and its sleep. The walk, quiet_walk, is a
   port of step_animal's quiet steps, which wvcsim.animals.quiet_steps
   walks with step_animal itself. It reads a herd buffer (its
   slots below) and the vehicles from the fleet's buffer, with its own
   ports of the reference threat tests (threatened for threat_present,
   dangerous for crossing_dangers), and draws from the trial's behaviour
   stream as detect draws: Generator.random() is one next_double, and
   Generator.uniform(lo, hi) is numpy's lo + (hi - lo) * next_double. It
   writes the activities as the objects the reference writes, and y and the
   dwell as floats. Where the reference would raise (a state that is not an
   Activity, or is MOVED_AWAY; a ring of length 0 under a threat test; a
   hesitate range numpy's uniform rejects) or reads a value that is not a
   float or the like (an animal's x, y or dwell, a detected that is not a
   bool, interacted vehicles that are not a set), behave stops before that
   animal, before any draw or write for it, and returns its index: Herd's
   Python loop goes on from there. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>
#include <numpy/random/bitgen.h>

/* The buffer's slots: the parameters, then n each of directions, lane
   centres, positions and speeds, 2n of scratch, and n brake flags, each
   1.0 where the last advance had a braking step and that vehicle braked on
   it, else 0.0. */
enum {
    S0, HEADWAY, A_MAX, DELTA, A_FLOOR, CLOSING, DT, RING, LENGTH, FREE_GAP,
    TWO_B, T_REACT, HOLD, BAND,
    CONTACT_X, CONTACT_Y, ROAD_WIDTH,    /* detect_collisions */
    V_THREAT, T_THREAT, NEAR_PASS,       /* vehicle_is_threat */
    INTERACT,  /* BRAKING_INTERACTION_DISTANCE */
    STATE      /* the first direction */
};

/* detect's radar buffer: the parameters, then n each of the radars' x and
   y, by rid, and n of scratch. */
enum {
    SPACING, R_DET, KAPPA, FRAME, BOOST, BAND_LO, BAND_HI,
    RADARS     /* the first radar's x */
};

/* The names of the animal attributes the kernel reads and writes. */
static PyObject *animal_x, *animal_y, *animal_aid, *animal_sigma, *animal_detected,
    *animal_first_in_range_at, *animal_detected_at, *animal_state, *animal_dwell,
    *animal_left_foraging, *animal_entered_road, *animal_crossed, *animal_frozen_from,
    *animal_interacted;

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

/* n_steps rounds at desired speed v0 of one fleet: its buffer (see the
   slots above) and leaders. Where animals is a list, the last step is a
   braking step: each driver whose emergency_brake_needed holds for those
   animals, from that step's pre-step snapshot, brakes at -a_em (A_FLOOR)
   in place of its IDM acceleration, and its brake flag is set; a call with
   no braking step clears the flags. Returns the steps taken, with x and v
   after them. */
static long run(double *buf, const long *lead, Py_ssize_t n, long n_steps,
                double v0, PyObject *animals)
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

    if (braking_step < 0)
        memset(flag, 0, n * sizeof *flag);
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
            if (!read_float(a, animal_x, ax + i) || !read_float(a, animal_y, ay + i))
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
    return step;
}

/* A buffer of ``format`` items of ``size`` bytes, writable or not: the
   argument ``what`` of the function ``name``. */
static int get_buffer(PyObject *obj, Py_buffer *view, int flags, const char *format,
                      Py_ssize_t size, const char *name, const char *what)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != size || view->format == NULL
            || strcmp(view->format, format) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s: %s must be an array of '%s'",
                     name, what, format);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(advance_doc,
"advance(buf, lead, n_steps, v0, animals) -> steps taken\n\n"
"n_steps rounds of the IDM at desired speed v0 for a fleet's buffer (an\n"
"array of 'd') and leaders (an array of 'l'); animals is None, or the list\n"
"of animals the last step brakes for.");

static PyObject *advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer buf, lead;
    Py_ssize_t n;
    long n_steps, taken = -1;
    double v0;
    PyObject *animals;

    (void)self;
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "advance takes 5 arguments (%zd given)", nargs);
        return NULL;
    }
    n_steps = PyLong_AsLong(args[2]);
    if (n_steps == -1 && PyErr_Occurred())
        return NULL;
    v0 = PyFloat_AsDouble(args[3]);
    if (v0 == -1.0 && PyErr_Occurred())
        return NULL;
    animals = args[4] == Py_None ? NULL : args[4];
    if (animals && !PyList_Check(animals)) {
        PyErr_SetString(PyExc_TypeError, "advance: animals must be a list or None");
        return NULL;
    }
    if (get_buffer(args[0], &buf, PyBUF_WRITABLE, "d", sizeof(double), "advance",
                   "buf") < 0)
        return NULL;
    if (get_buffer(args[1], &lead, PyBUF_SIMPLE, "l", sizeof(long), "advance",
                   "lead") < 0) {
        PyBuffer_Release(&buf);
        return NULL;
    }
    n = lead.len / (Py_ssize_t)sizeof(long);
    if (buf.len != (STATE + 7 * n) * (Py_ssize_t)sizeof(double))
        PyErr_SetString(PyExc_ValueError,
                        "advance: buf and lead disagree on the fleet's size");
    else
        taken = run(buf.buf, lead.buf, n, n_steps, v0, animals);
    PyBuffer_Release(&lead);
    PyBuffer_Release(&buf);
    return taken < 0 ? NULL : PyLong_FromLong(taken);
}

/* vehicle_is_threat for an animal at ax and a vehicle at xi with speed vi
   and direction dir. */
static int is_threat(const double *buf, double ax, double xi, double vi, double dir)
{
    double dx;

    if (vi <= buf[V_THREAT])
        return 0;
    dx = py_mod((ax - xi) * dir, buf[RING]);
    if (dx < buf[T_THREAT] * vi)
        return 1;
    return buf[RING] - dx < buf[NEAR_PASS];
}

/* min(dx, L - dx) as Python's min gives it: dx unless L - dx is less. */
static double ring_distance(double dx, double L)
{
    double rest = L - dx;

    return rest < dx ? rest : dx;
}

/* threat_present for an animal at ax and the n vehicles of the fleet's
   buffer b. */
static int threatened(const double *b, Py_ssize_t n, double ax)
{
    const double *dir = b + STATE, *x = dir + 2 * n, *v = x + n;
    Py_ssize_t i;

    for (i = 0; i < n; i++)
        if (is_threat(b, ax, x[i], v[i], dir[i]))
            return 1;
    return 0;
}

/* Whether vehicle i of the n of the fleet's buffer b meets a crossing
   animal at ax dangerously (crossing_dangers): braking within the
   interaction distance, or not braking and a threat. */
static int dangerous(const double *b, Py_ssize_t n, Py_ssize_t i, double ax)
{
    const double *dir = b + STATE, *x = dir + 2 * n, *v = x + n, *flag = v + 3 * n;

    if (flag[i] != 0.0)
        return !(ring_distance(fabs(x[i] - ax), b[RING]) >= b[INTERACT]);
    return is_threat(b, ax, x[i], v[i], dir[i]);
}

/* A fleet's buffer obj, read only, the argument ``what`` of the function
   ``name``, and the size n that its length, STATE + 7n doubles, gives. */
static int fleet_buffer(PyObject *obj, Py_buffer *buf, Py_ssize_t *n, const char *name,
                        const char *what)
{
    Py_ssize_t slots;

    if (get_buffer(obj, buf, PyBUF_SIMPLE, "d", sizeof(double), name, what) < 0)
        return -1;
    slots = buf->len / (Py_ssize_t)sizeof(double) - STATE;
    *n = slots / 7;
    if (slots < 0 || slots % 7) {
        PyBuffer_Release(buf);
        PyErr_Format(PyExc_ValueError, "%s: %s is not a fleet's buffer", name, what);
        return -1;
    }
    return 0;
}

/* Appends (i, animal.aid) to pairs; NULL, with pairs released, on an
   error. */
static PyObject *add_pair(PyObject *pairs, Py_ssize_t i, PyObject *animal)
{
    PyObject *vid = PyLong_FromSsize_t(i);
    PyObject *aid = vid ? PyObject_GetAttr(animal, animal_aid) : NULL;
    PyObject *pair = aid ? PyTuple_Pack(2, vid, aid) : NULL;

    Py_XDECREF(vid);
    Py_XDECREF(aid);
    if (pair == NULL || PyList_Append(pairs, pair) < 0)
        Py_CLEAR(pairs);
    Py_XDECREF(pair);
    return pairs;
}

PyDoc_STRVAR(detect_collisions_doc,
"detect_collisions(buf, animals) -> list, or None\n\n"
"The (vehicle index, animal id) contact pairs of a fleet's buffer with\n"
"the animals on the carriageway, a list; None where the reference is to\n"
"answer.");

static PyObject *detect_collisions(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Py_buffer buf;
    Py_ssize_t n, i, k;
    const double *b, *centre, *x;
    double ax, ay;
    PyObject *animals, *pairs;

    (void)self;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "detect_collisions takes 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (fleet_buffer(args[0], &buf, &n, "detect_collisions", "buf") < 0)
        return NULL;
    animals = args[1];
    if (!PyList_Check(animals)) {
        PyBuffer_Release(&buf);
        PyErr_SetString(PyExc_TypeError, "detect_collisions: animals must be a list");
        return NULL;
    }
    b = buf.buf;
    centre = b + STATE + n;
    x = centre + n;
    pairs = PyList_New(0);
    for (k = 0; pairs && k < PyList_GET_SIZE(animals); k++) {
        PyObject *a = PyList_GET_ITEM(animals, k);
        int ok;

        Py_INCREF(a);
        ok = read_float(a, animal_y, &ay);
        if (ok && 0.0 < ay && ay <= b[ROAD_WIDTH] && n > 0) {
            ok = read_float(a, animal_x, &ax);
            for (i = 0; ok && pairs && i < n; i++)
                if (ring_distance(fabs(x[i] - ax), b[RING]) < b[CONTACT_X]
                        && fabs(ay - centre[i]) < b[CONTACT_Y])
                    pairs = add_pair(pairs, i, a);
        }
        Py_DECREF(a);
        if (!ok) {
            Py_XDECREF(pairs);
            PyBuffer_Release(&buf);
            Py_RETURN_NONE;
        }
    }
    PyBuffer_Release(&buf);
    return pairs;
}

/* Whether radar i of the n in the radar buffer b covers an animal at (x, y):
   radars_in_range's distance test. */
static int covers(const double *b, Py_ssize_t n, Py_ssize_t i, double x, double y)
{
    double dx = b[RADARS + i] - x, dy = b[RADARS + n + i] - y;

    return dx * dx + dy * dy <= b[R_DET] * b[R_DET];
}

/* radars_in_range's window of grid indices around x, *lo to *hi (empty
   where *lo > *hi); 0 where math.ceil or math.floor would raise: a zero
   spacing, or a NaN or infinite quotient. */
static int window(const double *b, Py_ssize_t n, double x, Py_ssize_t *lo,
                  Py_ssize_t *hi)
{
    double first, last;

    if (b[SPACING] == 0.0)
        return 0;
    first = (x - b[R_DET]) / b[SPACING];
    last = (x + b[R_DET]) / b[SPACING];
    if (!isfinite(first) || !isfinite(last))
        return 0;
    first = ceil(first);
    last = floor(last);
    if (first < 0.0)
        first = 0.0;
    if (last > (double)(n - 1))
        last = (double)(n - 1);
    *lo = 0;
    *hi = -1;
    if (first <= last) {
        *lo = (Py_ssize_t)first;
        *hi = (Py_ssize_t)last;
    }
    return 1;
}

/* Phase 2's filter and try_detect for the animal a at time now (the float
   now_obj): each radar covering it draws with its probability, kept in the
   buffer's scratch slots, until one succeeds; a success sets detected and
   detected_at and appends (rid, aid) to hits. Returns 0 once the animal is
   done, 1 to leave it to the reference, before any draw or write for it,
   and -1 on an error, with an exception set. */
static int try_animal(double *b, Py_ssize_t n, PyObject *a, PyObject *sleeping,
                      PyObject *clocks, PyObject *now_obj, bitgen_t *bitgen,
                      PyObject *hits)
{
    const double now = PyFloat_AS_DOUBLE(now_obj);
    double *p = b + RADARS + 2 * n;
    double x, y, sigma = 0.0, f;
    PyObject *value, *aid = NULL, *hit;
    Py_ssize_t lo, hi, i;
    int skip, covered = 0, unset;

    value = PyObject_GetAttr(a, animal_detected);
    skip = value ? PyObject_IsTrue(value) : -1;
    Py_XDECREF(value);
    if (skip == 0) {
        if (!read_float(a, animal_y, &y))
            return 1;
        if (!(b[BAND_LO] <= y && y <= b[BAND_HI]))
            return 0;
        aid = PyObject_GetAttr(a, animal_aid);
        skip = aid ? PyDict_Contains(sleeping, aid) : -1;
    }
    if (skip) {    /* detected or asleep; -1 on an error */
        Py_XDECREF(aid);
        if (skip > 0)
            return 0;
        PyErr_Clear();
        return 1;
    }
    if (!read_float(a, animal_x, &x) || !window(b, n, x, &lo, &hi))
        goto leave;
    /* Every check the reference makes before it draws for a covering
       radar, for each of them, before the first write. */
    f = 2.0;
    for (i = lo; i <= hi; i++) {
        double beta = 1.0;
        PyObject *clock;

        if (!covers(b, n, i, x, y))
            continue;
        if (!covered++) {
            if (!read_float(a, animal_sigma, &sigma) || sigma <= 0.0
                    || b[KAPPA] < 0.0 || b[FRAME] < 0.0)
                goto leave;
            /* f_size: min(2.0, ...), 2.0 unless the sum is less. */
            if (0.4 + 0.6 * sigma < 2.0)
                f = 0.4 + 0.6 * sigma;
        }
        if (i >= PyList_GET_SIZE(clocks))
            goto leave;
        clock = PyList_GET_ITEM(clocks, i);
        if (!PyFloat_Check(clock))
            goto leave;
        if (PyFloat_AS_DOUBLE(clock) > now)
            beta = b[BOOST];
        if (beta < 0.0)
            goto leave;
        p[i] = 1.0 - exp(((-b[KAPPA] * f) * beta) * b[FRAME]);
    }
    if (!covered) {
        Py_DECREF(aid);
        return 0;
    }
    value = PyObject_GetAttr(a, animal_first_in_range_at);
    if (value == NULL)
        goto leave;
    unset = value == Py_None;
    Py_DECREF(value);
    if (unset && PyObject_SetAttr(a, animal_first_in_range_at, now_obj) < 0)
        goto leave;
    for (i = lo; i <= hi; i++) {
        if (!covers(b, n, i, x, y) || !(bitgen->next_double(bitgen->state) < p[i]))
            continue;
        hit = NULL;
        if (PyObject_SetAttr(a, animal_detected, Py_True) == 0
                && PyObject_SetAttr(a, animal_detected_at, now_obj) == 0) {
            value = PyLong_FromSsize_t(i);
            hit = value ? PyTuple_Pack(2, value, aid) : NULL;
            Py_XDECREF(value);
        }
        Py_DECREF(aid);
        if (hit == NULL || PyList_Append(hits, hit) < 0) {
            Py_XDECREF(hit);
            return -1;
        }
        Py_DECREF(hit);
        return 0;
    }
    Py_DECREF(aid);
    return 0;
leave:
    PyErr_Clear();
    Py_DECREF(aid);
    return 1;
}

PyDoc_STRVAR(detect_doc,
"detect(radars, animals, sleeping, boost_until, now, bitgen) -> (stop, hits)\n\n"
"Phase 2 of a step at time now: try_detect for each animal of the list\n"
"animals, in order, that is undetected, inside the radar band and not a\n"
"key of the dict sleeping, against a radar buffer (an array of 'd') and\n"
"the boost clocks boost_until (a list), drawing through the\n"
"\"BitGenerator\" capsule bitgen. hits lists the (rid, aid) of each\n"
"detection; stop is the index of the first animal left to the reference,\n"
"len(animals) where none is.");

static PyObject *detect(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    Py_ssize_t n, k = 0;
    PyObject *animals, *hits;
    bitgen_t *bitgen;

    (void)self;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "detect takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    animals = args[1];
    if (!PyList_Check(animals) || !PyDict_Check(args[2]) || !PyList_Check(args[3])) {
        PyErr_SetString(PyExc_TypeError,
                        "detect: animals and boost_until must be lists, sleeping a dict");
        return NULL;
    }
    bitgen = PyCapsule_GetPointer(args[5], "BitGenerator");
    if (bitgen == NULL)
        return NULL;
    if (get_buffer(args[0], &view, PyBUF_WRITABLE, "d", sizeof(double), "detect",
                   "radars") < 0)
        return NULL;
    n = (view.len / (Py_ssize_t)sizeof(double) - RADARS) / 3;
    if (n < 0 || view.len != (RADARS + 3 * n) * (Py_ssize_t)sizeof(double)) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, "detect: radars is not a radar buffer");
        return NULL;
    }
    hits = PyList_New(0);
    /* A time that is not a float is left to the reference, at the first animal. */
    for (; hits && PyFloat_Check(args[4]) && k < PyList_GET_SIZE(animals); k++) {
        PyObject *a = PyList_GET_ITEM(animals, k);
        int status;

        Py_INCREF(a);
        status = try_animal(view.buf, n, a, args[2], args[3], args[4], bitgen, hits);
        Py_DECREF(a);
        if (status < 0)
            Py_CLEAR(hits);
        else if (status > 0)
            break;
    }
    PyBuffer_Release(&view);
    return hits ? Py_BuildValue("(nN)", k, hits) : NULL;
}

/* behave's herd buffer: the frame length, the behaviour parameters it
   reads (HESITATE_LO and HESITATE_HI are hesitate_dwell, FREE_BELOW is
   p_frozen_threat + p_flee_threat, FROZEN_MAX is frozen_max_dwell), the
   road width, the spawn offset, the exit edge (the road width plus
   exit_offset), _DWELL_EPS and the radar band. */
enum {
    TICK, V_APPROACH, V_CROSS, V_FLEE, HESITATE_LO, HESITATE_HI, P_CROSS,
    P_FROZEN, FREE_BELOW, P_FREEZE, FROZEN_MAX, WIDTH, SPAWN, EXIT, EPS, QUIET_LO,
    QUIET_HI, HERD_SLOTS
};

/* behave's constants: the activities, in Activity's order, then their
   visit keys (each activity's value). */
enum {
    FORAGING, APPROACHING, HESITATING, CROSSING, FROZEN, FLEEING, MOVED_AWAY,
    ACTIVITIES, CONSTANTS = 2 * ACTIVITIES
};

/* One behave call: the herd's and the fleet's buffers, the fleet's size,
   the constants, the behaviour stream, and the step's running totals. */
typedef struct {
    const double *h, *f;
    Py_ssize_t n;
    PyObject *const *c;
    bitgen_t *bitgen;
    PyObject *sleeping, *on_road;
    long k, limit, next_wake;
    double frozen_time;
    Py_ssize_t visits[ACTIVITIES];
    int pruned, ring_ok, range_ok;
} Step;

/* Generator.uniform(*hesitate_dwell): numpy's low + (high - low) * next_double. */
static double hesitate_dwell(Step *p)
{
    const double lo = p->h[HESITATE_LO], hi = p->h[HESITATE_HI];

    return lo + (hi - lo) * p->bitgen->next_double(p->bitgen->state);
}

/* obj.name = value, a new float; -1 on an error. */
static int set_float(PyObject *obj, PyObject *name, double value)
{
    PyObject *f = PyFloat_FromDouble(value);
    int status = f ? PyObject_SetAttr(obj, name, f) : -1;

    Py_XDECREF(f);
    return status;
}

/* A port of step_animal's quiet steps (wvcsim.animals.quiet_steps), for an
   animal off the carriageway that is not frozen, departed, crossing short
   of the far edge or undetected inside the radar band, in activity *s with
   dwell *dwell at *y, and the radar band lo to hi, empty (lo > hi) for a
   detected animal: its steps walked, up to limit, with *s, *dwell and *y
   after them. */
static long quiet_walk(const double *h, long limit, double lo, double hi, int *s,
                       double *dwell, double *y)
{
    const double dt = h[TICK];
    double d = *dwell, wy = *y, next;
    long n = 0;

    if (*s == FORAGING)
        while (n < limit) {
            d -= dt;
            n++;
            if (d <= h[EPS]) {
                *s = APPROACHING;
                break;
            }
        }
    if (*s == APPROACHING) {
        while (n < limit && !(lo <= wy && wy <= hi)) {
            next = wy + h[V_APPROACH] * dt;
            if (next >= 0.0)
                break;
            wy = next;
            n++;
        }
    } else if (*s == HESITATING) {
        while (n < limit && !(lo <= wy && wy <= hi)) {
            next = d - dt;
            if (next <= h[EPS])
                break;
            d = next;
            n++;
        }
    } else if (*s == CROSSING) {
        while (n < limit && !(lo <= wy && wy <= hi)) {
            next = wy + h[V_CROSS] * dt;
            if (next >= h[EXIT])
                break;
            wy = next;
            n++;
        }
    } else if (*s == FLEEING) {
        while (n < limit && !(lo <= wy && wy <= hi)) {
            next = wy - h[V_FLEE] * dt;
            if (next <= h[SPAWN])
                break;
            wy = next;
            n++;
        }
    }
    *dwell = d;
    *y = wy;
    return n;
}

/* Phase 5 for the animal a: unless it sleeps, step_animal, its visit and
   frozen-time accounting and, where it is left off the carriageway and has
   quiet steps, its quiet walk (quiet_walk, take_quiet_steps) and sleep.
   Returns 0 once the animal is done, 1 to leave it to the reference,
   before any draw or write for it, and -1 on an error, with an exception
   set. */
static int behave_animal(Step *p, PyObject *a)
{
    const double *h = p->h;
    const double dt = h[TICK];
    PyObject *aid, *value, *interacted = NULL, *frozen_from = NULL;
    PyObject *came_from = NULL, *wake;
    double x, y, dwell, u, lo = h[QUIET_LO], hi = h[QUIET_HI];
    int s = MOVED_AWAY, s0, walked, asleep, detected, status = 1;
    int set_y = 0, set_dwell = 0, left = 0, entered = 0, crossed = 0;
    Py_ssize_t i;
    long n;

    aid = PyObject_GetAttr(a, animal_aid);
    asleep = aid ? PyDict_Contains(p->sleeping, aid) : -1;
    if (asleep > 0)
        status = 0;
    if (asleep)
        goto done;
    value = PyObject_GetAttr(a, animal_state);
    if (value) {
        for (s = 0; s < MOVED_AWAY && value != p->c[s]; s++)
            ;
        Py_DECREF(value);    /* the constants hold each activity */
    }
    /* Every check the reference makes for the animal, and every read of a
       value that is not a float, before the first draw or write. */
    if (s == MOVED_AWAY || !read_float(a, animal_x, &x) || !read_float(a, animal_y, &y)
            || !read_float(a, animal_dwell, &dwell))
        goto done;
    value = PyObject_GetAttr(a, animal_detected);
    detected = value == Py_True ? 1 : value == Py_False ? 0 : -1;
    Py_XDECREF(value);
    if (detected < 0
            || (!p->ring_ok && (s == HESITATING || s == CROSSING || s == FROZEN))
            || (!p->range_ok && (s == APPROACHING || s == HESITATING || s == FROZEN)))
        goto done;
    if (s == CROSSING && y < h[WIDTH]) {
        interacted = PyObject_GetAttr(a, animal_interacted);
        if (interacted == NULL || !PySet_CheckExact(interacted))
            goto done;
    }
    if (s == FROZEN && (frozen_from = PyObject_GetAttr(a, animal_frozen_from)) == NULL)
        goto done;

    /* step_animal. */
    status = -1;
    s0 = s;
    switch (s) {
    case FORAGING:
        dwell -= dt;
        set_dwell = 1;
        if (dwell <= h[EPS]) {
            s = APPROACHING;
            left = 1;
        }
        break;
    case APPROACHING:
        y += h[V_APPROACH] * dt;
        set_y = 1;
        if (y >= 0.0) {
            y = 0.0;
            s = HESITATING;
            dwell = hesitate_dwell(p);
            set_dwell = 1;
        }
        break;
    case HESITATING:
        dwell -= dt;
        set_dwell = 1;
        if (dwell > h[EPS])
            break;
        u = p->bitgen->next_double(p->bitgen->state);
        if (threatened(p->f, p->n, x)) {
            if (u < h[P_FROZEN]) {
                s = FROZEN;
                came_from = p->c[HESITATING];
                dwell = h[FROZEN_MAX];
            } else if (u < h[FREE_BELOW]) {
                s = FLEEING;
            } else {
                dwell = hesitate_dwell(p);
            }
        } else if (u < h[P_CROSS]) {
            s = CROSSING;
        } else {
            dwell = hesitate_dwell(p);
        }
        break;
    case CROSSING:
        /* A dangerous interaction rolls a freeze at most once per vehicle. */
        for (i = 0; interacted && i < p->n; i++) {
            PyObject *vid;
            int seen;

            if (!dangerous(p->f, p->n, i, x))
                continue;
            vid = PyLong_FromSsize_t(i);
            seen = vid ? PySet_Contains(interacted, vid) : -1;
            if (seen == 0)
                seen = PySet_Add(interacted, vid);
            Py_XDECREF(vid);
            if (seen < 0)
                goto done;
            if (seen == 0 && p->bitgen->next_double(p->bitgen->state) < h[P_FREEZE]) {
                s = FROZEN;
                came_from = p->c[CROSSING];
                dwell = h[FROZEN_MAX];
                set_dwell = 1;
                break;
            }
        }
        if (s == FROZEN)
            break;
        y += h[V_CROSS] * dt;
        set_y = 1;
        entered = y > 0.0;
        crossed = y >= h[WIDTH];
        if (crossed && y >= h[EXIT])
            s = MOVED_AWAY;
        break;
    case FROZEN:
        dwell -= dt;
        set_dwell = 1;
        if (dwell <= h[EPS] || !threatened(p->f, p->n, x)) {
            if (frozen_from == p->c[CROSSING]) {
                s = CROSSING;
            } else {
                s = HESITATING;
                dwell = hesitate_dwell(p);
            }
            came_from = Py_None;
        }
        break;
    case FLEEING:
        y -= h[V_FLEE] * dt;
        set_y = 1;
        if (y <= h[SPAWN])
            s = MOVED_AWAY;
        break;
    }
    if ((set_y && set_float(a, animal_y, y) < 0)
            || (set_dwell && set_float(a, animal_dwell, dwell) < 0)
            || (s != s0 && PyObject_SetAttr(a, animal_state, p->c[s]) < 0)
            || (came_from && PyObject_SetAttr(a, animal_frozen_from, came_from) < 0)
            || (left && PyObject_SetAttr(a, animal_left_foraging, Py_True) < 0)
            || (entered && PyObject_SetAttr(a, animal_entered_road, Py_True) < 0)
            || (crossed && PyObject_SetAttr(a, animal_crossed, Py_True) < 0))
        goto done;

    /* The engine's accounting, then the quiet walk. */
    if (s != s0) {
        p->visits[s]++;
        p->pruned |= s == MOVED_AWAY;
    }
    if (s == FROZEN && 0.0 <= y && y <= h[WIDTH])
        p->frozen_time += dt;
    status = 0;
    if (0.0 < y && y <= h[WIDTH]) {
        if (PyList_Append(p->on_road, a) < 0)
            status = -1;
        goto done;
    }
    if (s == FROZEN || s == MOVED_AWAY || (s == CROSSING && y <= h[WIDTH])
            || (!detected && lo <= y && y <= hi))
        goto done;
    if (detected) {    /* no detection left to try */
        lo = INFINITY;
        hi = -INFINITY;
    }
    walked = s;
    n = quiet_walk(h, p->limit, lo, hi, &walked, &dwell, &y);
    if (n == 0)
        goto done;
    status = -1;
    if (PyObject_SetAttr(a, animal_state, p->c[walked]) < 0
            || set_float(a, animal_dwell, dwell) < 0 || set_float(a, animal_y, y) < 0)
        goto done;
    if (walked != s) {
        p->visits[APPROACHING]++;
        if (PyObject_SetAttr(a, animal_left_foraging, Py_True) < 0)
            goto done;
    } else if (walked == CROSSING) {
        if (PyObject_SetAttr(a, animal_entered_road, Py_True) < 0
                || PyObject_SetAttr(a, animal_crossed, Py_True) < 0)
            goto done;
    }
    wake = PyLong_FromLong(p->k + n);
    if (wake == NULL || PyDict_SetItem(p->sleeping, aid, wake) < 0) {
        Py_XDECREF(wake);
        goto done;
    }
    Py_DECREF(wake);
    if (p->k + n < p->next_wake)
        p->next_wake = p->k + n;
    status = 0;
done:
    if (status > 0)
        PyErr_Clear();
    Py_XDECREF(aid);
    Py_XDECREF(interacted);
    Py_XDECREF(frozen_from);
    return status;
}

/* Adds each activity's count of visits to the dict visits, at its key. */
static int add_visits(PyObject *visits, PyObject *const *c, const Py_ssize_t *counts)
{
    int s;

    for (s = 0; s < ACTIVITIES; s++) {
        PyObject *key = c[ACTIVITIES + s], *old, *add, *sum;
        int status;

        if (counts[s] == 0)
            continue;
        old = PyDict_GetItemWithError(visits, key);
        if (old == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, key);
            return -1;
        }
        add = PyLong_FromSsize_t(counts[s]);
        sum = add ? PyNumber_Add(old, add) : NULL;
        Py_XDECREF(add);
        status = sum ? PyDict_SetItem(visits, key, sum) : -1;
        Py_XDECREF(sum);
        if (status < 0)
            return -1;
    }
    return 0;
}

PyDoc_STRVAR(behave_doc,
"behave(herd, fleet, animals, sleeping, visits, constants, k, n_steps,\n"
"       next_wake, frozen_time, bitgen)\n"
"    -> (stop, frozen_time, next_wake, pruned, on_road)\n\n"
"Phase 5 of the step before step k: step_animal for each animal of the\n"
"list animals, in order, that is not a key of the dict sleeping, reading\n"
"the vehicles from a fleet's buffer and drawing through the\n"
"\"BitGenerator\" capsule bitgen, with a herd buffer and constants (an\n"
"array of 'd' and a tuple), each change of activity counted in the dict\n"
"visits and each frozen animal on the road adding a frame to frozen_time;\n"
"an animal left off the carriageway walks its quiet steps, up to n_steps,\n"
"and goes into sleeping with the step it wakes at. next_wake is the first\n"
"wake, pruned whether an animal left the corridor, on_road the animals\n"
"left on the carriageway, and stop the index of the first animal left to\n"
"the reference, len(animals) where none is.");

static PyObject *behave(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer herd, fleet;
    Step p;
    PyObject *animals, *visits, *constants;
    Py_ssize_t stop = 0;
    long n_steps;
    double range;

    (void)self;
    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError, "behave takes 11 arguments (%zd given)", nargs);
        return NULL;
    }
    animals = args[2];
    visits = args[4];
    constants = args[5];
    if (!PyList_Check(animals) || !PyDict_Check(args[3]) || !PyDict_Check(visits)
            || !PyTuple_Check(constants) || PyTuple_GET_SIZE(constants) != CONSTANTS) {
        PyErr_SetString(PyExc_TypeError, "behave: animals must be a list, sleeping and "
                        "visits dicts, constants a tuple of 14");
        return NULL;
    }
    memset(&p, 0, sizeof p);
    p.sleeping = args[3];
    p.c = &PyTuple_GET_ITEM(constants, 0);
    if (((p.k = PyLong_AsLong(args[6])) == -1 && PyErr_Occurred())
            || ((n_steps = PyLong_AsLong(args[7])) == -1 && PyErr_Occurred())
            || ((p.next_wake = PyLong_AsLong(args[8])) == -1 && PyErr_Occurred())
            || ((p.frozen_time = PyFloat_AsDouble(args[9])) == -1.0 && PyErr_Occurred()))
        return NULL;
    p.limit = n_steps - p.k;
    p.bitgen = PyCapsule_GetPointer(args[10], "BitGenerator");
    if (p.bitgen == NULL)
        return NULL;
    if (get_buffer(args[0], &herd, PyBUF_SIMPLE, "d", sizeof(double), "behave",
                   "herd") < 0)
        return NULL;
    if (herd.len != HERD_SLOTS * (Py_ssize_t)sizeof(double)) {
        PyBuffer_Release(&herd);
        PyErr_SetString(PyExc_ValueError, "behave: herd is not a herd's buffer");
        return NULL;
    }
    if (fleet_buffer(args[1], &fleet, &p.n, "behave", "fleet") < 0) {
        PyBuffer_Release(&herd);
        return NULL;
    }
    p.h = herd.buf;
    p.f = fleet.buf;
    /* A ring of length 0 leaves the threat tests to the reference, and a
       hesitate range that numpy's uniform rejects (high - low infinite,
       NaN or negative, -0.0 included) the dwell draws. */
    range = p.h[HESITATE_HI] - p.h[HESITATE_LO];
    p.ring_ok = p.n == 0 || p.f[RING] != 0.0;
    p.range_ok = isfinite(range) && !signbit(range);
    p.on_road = PyList_New(0);
    for (; p.on_road && stop < PyList_GET_SIZE(animals); stop++) {
        PyObject *a = PyList_GET_ITEM(animals, stop);
        int status;

        Py_INCREF(a);
        status = behave_animal(&p, a);
        Py_DECREF(a);
        if (status < 0)
            Py_CLEAR(p.on_road);
        else if (status > 0)
            break;
    }
    PyBuffer_Release(&fleet);
    PyBuffer_Release(&herd);
    if (p.on_road == NULL || add_visits(visits, p.c, p.visits) < 0) {
        Py_XDECREF(p.on_road);
        return NULL;
    }
    return Py_BuildValue("(ndlNN)", stop, p.frozen_time, p.next_wake,
                         PyBool_FromLong(p.pruned), p.on_road);
}

static PyMethodDef methods[] = {
    {"advance", (PyCFunction)(void (*)(void))advance, METH_FASTCALL, advance_doc},
    {"detect_collisions", (PyCFunction)(void (*)(void))detect_collisions, METH_FASTCALL,
     detect_collisions_doc},
    {"detect", (PyCFunction)(void (*)(void))detect, METH_FASTCALL, detect_doc},
    {"behave", (PyCFunction)(void (*)(void))behave, METH_FASTCALL, behave_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "advance_idm", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit_advance_idm(void)
{
    animal_x = PyUnicode_InternFromString("x");
    animal_y = PyUnicode_InternFromString("y");
    animal_aid = PyUnicode_InternFromString("aid");
    animal_sigma = PyUnicode_InternFromString("sigma");
    animal_detected = PyUnicode_InternFromString("detected");
    animal_first_in_range_at = PyUnicode_InternFromString("first_in_range_at");
    animal_detected_at = PyUnicode_InternFromString("detected_at");
    animal_state = PyUnicode_InternFromString("state");
    animal_dwell = PyUnicode_InternFromString("dwell_remaining");
    animal_left_foraging = PyUnicode_InternFromString("left_foraging");
    animal_entered_road = PyUnicode_InternFromString("entered_road");
    animal_crossed = PyUnicode_InternFromString("crossed");
    animal_frozen_from = PyUnicode_InternFromString("frozen_from");
    animal_interacted = PyUnicode_InternFromString("interacted_vehicles");
    if (!animal_x || !animal_y || !animal_aid || !animal_sigma || !animal_detected
            || !animal_first_in_range_at || !animal_detected_at || !animal_state
            || !animal_dwell || !animal_left_foraging || !animal_entered_road
            || !animal_crossed || !animal_frozen_from || !animal_interacted)
        return NULL;
    return PyModule_Create(&module);
}
