/* The compiled form of a trial's step loop, wvcsim.engine.run_trial's
   phases 1-7 for every step, a CPython extension module built on first use,
   with one entry, trial. It reads a fleet's buffer and leaders, a herd
   buffer, a radar buffer (their slots below) and the arrival schedule, and
   draws from the trial's behaviour and detection streams through numpy's
   bitgen_t (the "BitGenerator" capsules; numpy/random/bitgen.h, no numpy
   library linked). The fleet's buffer is the vehicles' only state: the loop
   steps x, v and the brake flags there, and leaves them there. The animals
   live in C arrays (struct-of-arrays) for the trial's life; trial returns
   their end states, the visit counts, the frozen-on-road time and the
   detection latencies, from which the engine builds the TrialResult.

   Each step runs the Python loop's phase order on every live animal: there
   is no sleep, quiet walk or next-event gate, which exist only to save the
   Python loop's time. (1) Spawn the due arrivals, each with its forage
   dwell drawn from the behaviour stream. (2) try_detect for each undetected
   animal inside the radar band (radars_in_range, detection_probability and
   AwarenessState.beta_for), against the boost clocks as the last step left
   them; (3) AwarenessState.on_detection for each of the step's events, in
   order. (4) AwarenessState.dms_active, DriverAlert.update and one round of
   the Python body of Fleet.advance at the drivers' desired speed: the
   reference functions desired_gap, idm_acceleration and step_vehicles, and,
   where the drivers are alerted and an animal is on the carriageway,
   emergency_brake_needed for those animals as a braking step. (5)
   step_animal for each animal, with its own ports of the threat tests
   (threatened for threat_present, dangerous for crossing_dangers) and the
   engine's visit and frozen-time accounting. (6) The contact scan of
   detect_collisions for the animals phase 5 left on the carriageway.

   Every float operation is the reference's, in CPython's semantics and in
   the same order, so both give the same bits: % is CPython's float_rem
   (fmod plus its sign fix); the IDM powers are the reference's products, a
   square b * b and, for delta == 4, the fourth power (b * b) * (b * b); for
   any other delta, ** is libm pow; math.exp is libm's exp. Build with
   -ffp-contract=off (no fused multiply-add) and -fno-builtin (no pow folded
   into a multiply). Generator.random() is one next_double, and
   Generator.uniform(lo, hi) is numpy's lo + (hi - lo) * next_double.

   py_mod answers almost every % without fmod, on paths where float_rem's
   result is exact and takes one subtraction or addition at most: a gap's
   (xs[j] - xi) * dir[i] lies in [-L, L], and a position update
   xi + nv * dt * dir[i] from xi in [0, L) lies in (-L, 2L), up to rounding,
   whenever nv * dt < L.

   Where the Python loop would raise or treats a case apart, trial declines
   the trial and returns None, and the engine runs the Python loop from the
   start with a fresh world and fresh streams, so that every error is raised
   there: a gap <= 0, a power that overflows, a division by zero, a leader
   out of range, an infinite or NaN power, a ** with a negative or NaN base,
   a ring of length 0 under a threat test, a dwell range that numpy's
   uniform rejects, a zero spacing or a NaN or infinite grid quotient,
   sigma <= 0, and a negative kappa, beta or frame length. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <numpy/random/bitgen.h>

/* The fleet's buffer: the parameters, then n each of directions, lane
   centres, positions and speeds, 2n of scratch, and n brake flags, each 1.0
   where the vehicle braked on the last step, else 0.0. */
enum {
    S0, HEADWAY, A_MAX, DELTA, A_FLOOR, CLOSING, DT, RING, LENGTH, FREE_GAP,
    TWO_B, T_REACT, HOLD, BAND,
    CONTACT_X, CONTACT_Y,                /* detect_collisions */
    V_THREAT, T_THREAT, NEAR_PASS,       /* vehicle_is_threat */
    INTERACT,  /* BRAKING_INTERACTION_DISTANCE */
    STATE      /* the first direction */
};

/* The radar buffer: the parameters, then n each of the radars' x and y, by
   rid. */
enum {
    SPACING, R_DET, KAPPA, FRAME, BOOST, BAND_LO, BAND_HI,
    RADARS     /* the first radar's x */
};

/* The herd buffer: the frame length, the behaviour parameters it reads
   (HESITATE_LO and HESITATE_HI are hesitate_dwell, FREE_BELOW is
   p_frozen_threat + p_flee_threat, FROZEN_MAX is frozen_max_dwell), the
   road width, the spawn offset, the exit edge (the road width plus
   exit_offset) and _DWELL_EPS. */
enum {
    TICK, V_APPROACH, V_CROSS, V_FLEE, HESITATE_LO, HESITATE_HI, P_CROSS,
    P_FROZEN, FREE_BELOW, P_FREEZE, FROZEN_MAX, WIDTH, SPAWN, EXIT, EPS,
    HERD_SLOTS
};

/* The activities, in Activity's order, and the modes, in Mode's. */
enum {
    FORAGING, APPROACHING, HESITATING, CROSSING, FROZEN, FLEEING, MOVED_AWAY,
    ACTIVITIES
};
enum { CONTROL, DETECTION, AWARE };

/* An animal's monotone flags, and whether it has a first-in-range time. */
enum {
    DETECTED = 1, ENTERED_ROAD = 2, CROSSED = 4, COLLIDED = 8, LEFT_FORAGING = 16,
    IN_RANGE = 32
};

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

/* min(dx, L - dx) as Python's min gives it: dx unless L - dx is less. */
static double ring_distance(double dx, double L)
{
    double rest = L - dx;

    return rest < dx ? rest : dx;
}

/* One trial: the fleet's buffer (x and v where the last step left them,
   which is the buffer's own slots or its scratch), the radars and their
   boost clocks, the herd buffer, the two streams, the animals and the
   running totals. */
typedef struct {
    double *f, *x, *v, *nx, *nv, *flag;
    const double *dir, *centre;
    const long *lead;
    Py_ssize_t n;
    const double *r;
    double *p, *boost_until, dms_until;
    Py_ssize_t nr;
    const double *h;
    bitgen_t *behaviour, *detection;
    /* The animals, by aid: the schedule's x and sigma, then their state. */
    const double *ax, *sigma;
    double *y, *dwell, *first_in, *detected_at;
    signed char *state, *frozen_from;
    unsigned char *flags;
    uint64_t *met;    /* each animal's interacted vehicles, words bits each */
    Py_ssize_t words;
    /* The live animals in aid order, and those on the carriageway. */
    Py_ssize_t *active, n_active, *road, n_road;
    double *cx, *cy;    /* the braking step's animals */
    Py_ssize_t visits[ACTIVITIES];
    double frozen_time;
} Trial;

static double next_double(bitgen_t *bitgen)
{
    return bitgen->next_double(bitgen->state);
}

/* emergency_brake_needed for a vehicle at xi with speed vi: the stopping
   envelope (at least the hold zone) against each of the m animals at cx,
   cy in the lane band around the vehicle's lane centre, ahead along its
   direction. */
static int brake_needed(const double *f, double xi, double vi, double dir,
                        double centre, const double *cx, const double *cy,
                        Py_ssize_t m)
{
    double reach = vi * vi / f[TWO_B] + vi * f[T_REACT];
    Py_ssize_t k;

    if (reach < f[HOLD])
        reach = f[HOLD];
    for (k = 0; k < m; k++)
        if (fabs(cy[k] - centre) < f[BAND]
                && py_mod((cx[k] - xi) * dir, f[RING]) < reach)
            return 1;
    return 0;
}

/* One round of the Python body of Fleet.advance at desired speed v0: the
   IDM for each vehicle from the pre-step state, then the position update.
   With m >= 0 it is a braking step for the m animals at t->cx, t->cy: each
   driver whose emergency_brake_needed holds brakes at -a_em (A_FLOOR) in
   place of its IDM acceleration, and its brake flag is set; a step with
   m < 0 clears the flags. Returns 1 where the Python body would raise or
   treats the case apart, else 0. */
static int step_fleet(Trial *t, double v0, Py_ssize_t m)
{
    const double *f = t->f;
    const double s0 = f[S0], T = f[HEADWAY], a_max = f[A_MAX], delta = f[DELTA];
    const double a_floor = f[A_FLOOR], closing = f[CLOSING], dt = f[DT];
    const double L = f[RING], len = f[LENGTH];
    const double *xs = t->x, *vs = t->v, *dir = t->dir;
    double *swap;
    Py_ssize_t i;

    for (i = 0; i < t->n; i++) {
        double xi = xs[i], vi = vs[i], gap, dv, s_star, a, nv, b, q;
        long j = t->lead[i];

        if (j < 0) {
            gap = f[FREE_GAP];
            dv = 0.0;
        } else {
            gap = py_mod((xs[j] - xi) * dir[i], L) - len;
            if (gap <= 0.0)
                return 1;
            dv = vi - vs[j];
        }
        s_star = s0 + vi * T + vi * dv / closing;
        if (!(s_star > 0.0))    /* desired_gap's clamp, NaN included */
            s_star = 0.0;
        b = vi / v0;
        if (delta == 4.0) {
            b *= b;
            b *= b;
        } else if (b >= 0.0) {
            b = pow(b, delta);
        } else {
            return 1;    /* ** of a negative or NaN base */
        }
        q = s_star / gap;
        q *= q;
        if (!isfinite(b) || !isfinite(q))
            return 1;
        a = a_max * (1.0 - b - q);
        t->flag[i] = m >= 0 && brake_needed(f, xi, vi, dir[i], t->centre[i], t->cx,
                                            t->cy, m);
        if (t->flag[i] != 0.0)
            a = a_floor;
        nv = vi + (a > a_floor ? a : a_floor) * dt;
        if (nv < 0.0)
            nv = 0.0;
        t->nv[i] = nv;
        t->nx[i] = py_mod(xi + nv * dt * dir[i], L);
    }
    swap = t->x; t->x = t->nx; t->nx = swap;
    swap = t->v; t->v = t->nv; t->nv = swap;
    return 0;
}

/* vehicle_is_threat for an animal at ax and vehicle i. */
static int is_threat(const Trial *t, Py_ssize_t i, double ax)
{
    const double *f = t->f;
    double dx, vi = t->v[i];

    if (vi <= f[V_THREAT])
        return 0;
    dx = py_mod((ax - t->x[i]) * t->dir[i], f[RING]);
    if (dx < f[T_THREAT] * vi)
        return 1;
    return f[RING] - dx < f[NEAR_PASS];
}

/* threat_present for an animal at ax. */
static int threatened(const Trial *t, double ax)
{
    Py_ssize_t i;

    for (i = 0; i < t->n; i++)
        if (is_threat(t, i, ax))
            return 1;
    return 0;
}

/* Whether vehicle i meets a crossing animal at ax dangerously
   (crossing_dangers): braking within the interaction distance, or not
   braking and a threat. */
static int dangerous(const Trial *t, Py_ssize_t i, double ax)
{
    if (t->flag[i] != 0.0)
        return !(ring_distance(fabs(t->x[i] - ax), t->f[RING]) >= t->f[INTERACT]);
    return is_threat(t, i, ax);
}

/* Whether radar i covers an animal at (x, y): radars_in_range's distance
   test. */
static int covers(const Trial *t, Py_ssize_t i, double x, double y)
{
    const double *r = t->r;
    double dx = r[RADARS + i] - x, dy = r[RADARS + t->nr + i] - y;

    return dx * dx + dy * dy <= r[R_DET] * r[R_DET];
}

/* radars_in_range's window of grid indices around x, *lo to *hi (empty
   where *lo > *hi); 0 where math.ceil or math.floor would raise: a zero
   spacing, or a NaN or infinite quotient. */
static int window(const Trial *t, double x, Py_ssize_t *lo, Py_ssize_t *hi)
{
    const double *r = t->r;
    double first, last;

    if (r[SPACING] == 0.0)
        return 0;
    first = (x - r[R_DET]) / r[SPACING];
    last = (x + r[R_DET]) / r[SPACING];
    if (!isfinite(first) || !isfinite(last))
        return 0;
    first = ceil(first);
    last = floor(last);
    if (first < 0.0)
        first = 0.0;
    if (last > (double)(t->nr - 1))
        last = (double)(t->nr - 1);
    *lo = 0;
    *hi = -1;
    if (first <= last) {
        *lo = (Py_ssize_t)first;
        *hi = (Py_ssize_t)last;
    }
    return 1;
}

/* try_detect for animal a at time now: each radar covering it draws with
   its probability, kept in the scratch p, until one succeeds. Returns the
   radar's rid on a success, -1 without one, and -2 where the reference
   would raise, before any draw. */
static Py_ssize_t try_detect(Trial *t, Py_ssize_t a, double now)
{
    const double *r = t->r;
    const double x = t->ax[a], y = t->y[a];
    double f = 2.0;
    Py_ssize_t lo, hi, i;
    int covered = 0;

    if (!window(t, x, &lo, &hi))
        return -2;
    /* Every check the reference makes before it draws for a covering
       radar, for each of them, before the first draw. */
    for (i = lo; i <= hi; i++) {
        double beta;

        if (!covers(t, i, x, y))
            continue;
        if (!covered++) {
            if (t->sigma[a] <= 0.0 || r[KAPPA] < 0.0 || r[FRAME] < 0.0)
                return -2;
            /* f_size: min(2.0, ...), 2.0 unless the sum is less. */
            if (0.4 + 0.6 * t->sigma[a] < 2.0)
                f = 0.4 + 0.6 * t->sigma[a];
        }
        beta = t->boost_until[i] > now ? r[BOOST] : 1.0;
        if (beta < 0.0)
            return -2;
        t->p[i] = 1.0 - exp(((-r[KAPPA] * f) * beta) * r[FRAME]);
    }
    if (!covered)
        return -1;
    if (!(t->flags[a] & IN_RANGE)) {
        t->flags[a] |= IN_RANGE;
        t->first_in[a] = now;
    }
    for (i = lo; i <= hi; i++)
        if (covers(t, i, x, y) && next_double(t->detection) < t->p[i]) {
            t->flags[a] |= DETECTED;
            t->detected_at[a] = now;
            return i;
        }
    return -1;
}

/* AwarenessState.on_detection for a detection by radar rid at time now. */
static void on_detection(Trial *t, int mode, double persistence, double reach,
                         Py_ssize_t rid, double now)
{
    const double expiry = now + persistence, L = t->f[RING];
    const double *rx = t->r + RADARS;
    Py_ssize_t i;

    if (expiry > t->dms_until)
        t->dms_until = expiry;
    if (mode != AWARE)
        return;
    for (i = 0; i < t->nr; i++)
        /* Where the reach is half the ring or more, every radar is reached
           (see AwarenessState.on_detection). */
        if ((reach >= L / 2.0 || ring_distance(fabs(rx[i] - rx[rid]), L) <= reach)
                && expiry > t->boost_until[i])
            t->boost_until[i] = expiry;
}

/* Generator.uniform(*hesitate_dwell). */
static double hesitate_dwell(Trial *t)
{
    const double lo = t->h[HESITATE_LO], hi = t->h[HESITATE_HI];

    return lo + (hi - lo) * next_double(t->behaviour);
}

/* step_animal for animal a, then the engine's visit and frozen-time
   accounting; an animal left on the carriageway joins t->road. */
static void step_animal(Trial *t, Py_ssize_t a)
{
    const double *h = t->h;
    const double dt = h[TICK], x = t->ax[a];
    double y = t->y[a], dwell = t->dwell[a], u;
    const int s0 = t->state[a];
    int s = s0;
    Py_ssize_t i;

    switch (s) {
    case FORAGING:
        dwell -= dt;
        if (dwell <= h[EPS]) {
            s = APPROACHING;
            t->flags[a] |= LEFT_FORAGING;
        }
        break;
    case APPROACHING:
        y += h[V_APPROACH] * dt;
        if (y >= 0.0) {
            y = 0.0;
            s = HESITATING;
            dwell = hesitate_dwell(t);
        }
        break;
    case HESITATING:
        dwell -= dt;
        if (dwell > h[EPS])
            break;
        u = next_double(t->behaviour);
        if (threatened(t, x)) {
            if (u < h[P_FROZEN]) {
                s = FROZEN;
                t->frozen_from[a] = HESITATING;
                dwell = h[FROZEN_MAX];
            } else if (u < h[FREE_BELOW]) {
                s = FLEEING;
            } else {
                dwell = hesitate_dwell(t);
            }
        } else if (u < h[P_CROSS]) {
            s = CROSSING;
        } else {
            dwell = hesitate_dwell(t);
        }
        break;
    case CROSSING:
        /* A dangerous interaction rolls a freeze at most once per vehicle. */
        for (i = 0; y < h[WIDTH] && i < t->n; i++) {
            uint64_t *word = t->met + a * t->words + i / 64, bit = (uint64_t)1 << i % 64;

            if (!dangerous(t, i, x) || *word & bit)
                continue;
            *word |= bit;
            if (next_double(t->behaviour) < h[P_FREEZE]) {
                s = FROZEN;
                t->frozen_from[a] = CROSSING;
                dwell = h[FROZEN_MAX];
                break;
            }
        }
        if (s == FROZEN)
            break;
        y += h[V_CROSS] * dt;
        if (y > 0.0)
            t->flags[a] |= ENTERED_ROAD;
        if (y >= h[WIDTH]) {
            t->flags[a] |= CROSSED;
            if (y >= h[EXIT])
                s = MOVED_AWAY;
        }
        break;
    case FROZEN:
        dwell -= dt;
        if (dwell <= h[EPS] || !threatened(t, x)) {
            if (t->frozen_from[a] == CROSSING) {
                s = CROSSING;
            } else {
                s = HESITATING;
                dwell = hesitate_dwell(t);
            }
            t->frozen_from[a] = -1;
        }
        break;
    case FLEEING:
        y -= h[V_FLEE] * dt;
        if (y <= h[SPAWN])
            s = MOVED_AWAY;
        break;
    }
    t->y[a] = y;
    t->dwell[a] = dwell;
    if (s != s0) {
        t->state[a] = (signed char)s;
        t->visits[s]++;
    }
    if (s == FROZEN && 0.0 <= y && y <= h[WIDTH])
        t->frozen_time += dt;
    if (0.0 < y && y <= h[WIDTH])
        t->road[t->n_road++] = a;
}

/* Whether any vehicle touches animal a: detect_collisions' test. */
static int hit(const Trial *t, Py_ssize_t a)
{
    const double *f = t->f;
    Py_ssize_t i;

    for (i = 0; i < t->n; i++)
        if (ring_distance(fabs(t->x[i] - t->ax[a]), f[RING]) < f[CONTACT_X]
                && fabs(t->y[a] - t->centre[i]) < f[CONTACT_Y])
            return 1;
    return 0;
}

/* Drops the animals that left the corridor from the list of n at list. */
static Py_ssize_t prune(const Trial *t, Py_ssize_t *list, Py_ssize_t n)
{
    Py_ssize_t i, kept = 0;

    for (i = 0; i < n; i++)
        if (t->state[list[i]] != MOVED_AWAY)
            list[kept++] = list[i];
    return kept;
}


/* The trial's scalars: the mode, the awareness parameters, the desired
   speeds, the forage dwell range and the step count. */
typedef struct {
    long mode, n_steps;
    double persistence, reach, v_cruise, v_caution, forage_lo, forage_hi;
} Scalars;

/* Whether numpy's uniform(lo, hi) draws: high - low finite and not
   negative, -0.0 included. */
static int range_ok(double lo, double hi)
{
    return isfinite(hi - lo) && !signbit(hi - lo);
}

/* run_trial's step loop over the n_arrivals arrivals due at times, with
   room for 2 * n_arrivals indices at events. Returns the count of the
   latencies it wrote, in event order, or -1 where the trial is declined. */
static Py_ssize_t run(Trial *t, const Scalars *c, const double *times,
                      Py_ssize_t n_arrivals, Py_ssize_t *events, double *latencies)
{
    const double *h = t->h, *r = t->r, dt = t->f[DT];
    const double forage_range = c->forage_hi - c->forage_lo;
    double onset = 0.0;
    Py_ssize_t spawned = 0, n_latencies = 0, n_events, m, i, a;
    long k;
    int lit, sign = 0, alerted = 0, pruned;

    for (k = 0; k < c->n_steps; k++) {
        const double now = (double)k * dt;

        /* Phase 1: spawn due arrivals. */
        for (; spawned < n_arrivals && times[spawned] <= now; spawned++) {
            t->dwell[spawned] = c->forage_lo + forage_range * next_double(t->behaviour);
            t->y[spawned] = h[SPAWN];
            t->active[t->n_active++] = spawned;
            t->visits[FORAGING]++;
        }

        /* Phases 2 and 3: detection against the last step's boost clocks,
           then each event's broadcast, in order. */
        n_events = 0;
        for (i = 0; t->nr && i < t->n_active; i++) {
            Py_ssize_t rid;

            a = t->active[i];
            if (t->flags[a] & DETECTED || !(r[BAND_LO] <= t->y[a] && t->y[a] <= r[BAND_HI]))
                continue;
            rid = try_detect(t, a, now);
            if (rid == -2)
                return -1;
            if (rid >= 0) {
                events[2 * n_events] = rid;
                events[2 * n_events++ + 1] = a;
            }
        }
        for (i = 0; i < n_events; i++) {
            a = events[2 * i + 1];
            latencies[n_latencies++] = t->detected_at[a] - t->first_in[a];
            on_detection(t, (int)c->mode, c->persistence, c->reach, events[2 * i], now);
        }

        /* Phase 4: the sign, the drivers' alert and the vehicles, braking
           for the animals on the carriageway once alerted. */
        lit = c->mode != CONTROL && now < t->dms_until;
        for (i = 0; c->mode != CONTROL && !lit && i < t->n_active; i++) {
            a = t->active[i];
            lit = t->flags[a] & DETECTED && (t->state[a] == HESITATING
                                             || t->state[a] == CROSSING
                                             || t->state[a] == FROZEN);
        }
        if (!lit) {
            sign = alerted = 0;
        } else {
            if (!sign) {
                sign = 1;
                onset = now;
            }
            if (!alerted && now - onset >= t->f[T_REACT])
                alerted = 1;
        }
        m = -1;
        if (alerted && t->n_road) {
            for (m = 0; m < t->n_road; m++) {
                t->cx[m] = t->ax[t->road[m]];
                t->cy[m] = t->y[t->road[m]];
            }
        }
        if (step_fleet(t, alerted ? c->v_caution : c->v_cruise, m))
            return -1;

        /* Phase 5: every live animal's step; then phase 6, the contact scan
           of those left on the carriageway. */
        t->n_road = 0;
        pruned = 0;
        for (i = 0; i < t->n_active; i++) {
            step_animal(t, t->active[i]);
            pruned |= t->state[t->active[i]] == MOVED_AWAY;
        }
        for (i = 0; i < t->n_road; i++) {
            a = t->road[i];
            if (hit(t, a)) {
                t->flags[a] |= COLLIDED;
                t->state[a] = MOVED_AWAY;
                t->visits[MOVED_AWAY]++;
                pruned = 1;
            }
        }
        if (pruned) {
            t->n_active = prune(t, t->active, t->n_active);
            t->n_road = prune(t, t->road, t->n_road);
        }
    }
    return n_latencies;
}

/* A buffer of ``format`` items of ``size`` bytes, writable or not: the
   argument ``what`` of trial. */
static int get_buffer(PyObject *obj, Py_buffer *view, int flags, const char *format,
                      Py_ssize_t size, const char *what)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != size || view->format == NULL
            || strcmp(view->format, format) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "trial: %s must be an array of '%s'", what, format);
        return -1;
    }
    return 0;
}

/* Animal a's end state: (activity, y, dwell, detected, first_in_range_at,
   detected_at, entered_road, crossed, collided, left_foraging, frozen_from,
   interacted vehicles), with None for an unset time and -1 for no
   frozen_from. */
static PyObject *end_state(const Trial *t, Py_ssize_t a)
{
    const int flags = t->flags[a];
    PyObject *met = PySet_New(NULL), *first, *at, *vid;
    Py_ssize_t i;

    for (i = 0; met && i < t->n; i++) {
        if (!(t->met[a * t->words + i / 64] >> i % 64 & 1))
            continue;
        vid = PyLong_FromSsize_t(i);
        if (vid == NULL || PySet_Add(met, vid) < 0)
            Py_CLEAR(met);
        Py_XDECREF(vid);
    }
    first = flags & IN_RANGE ? PyFloat_FromDouble(t->first_in[a]) : Py_NewRef(Py_None);
    at = flags & DETECTED ? PyFloat_FromDouble(t->detected_at[a]) : Py_NewRef(Py_None);
    if (met == NULL || first == NULL || at == NULL) {
        Py_XDECREF(met);
        Py_XDECREF(first);
        Py_XDECREF(at);
        return NULL;
    }
    return Py_BuildValue("(iddNNNNNNNiN)", t->state[a], t->y[a], t->dwell[a],
                         PyBool_FromLong(flags & DETECTED), first, at,
                         PyBool_FromLong(flags & ENTERED_ROAD),
                         PyBool_FromLong(flags & CROSSED),
                         PyBool_FromLong(flags & COLLIDED),
                         PyBool_FromLong(flags & LEFT_FORAGING), t->frozen_from[a], met);
}

/* The result of a trial that ran to its end: (end states, visits, frozen
   time, latencies). */
static PyObject *outcome(const Trial *t, Py_ssize_t n_arrivals, const double *latencies,
                         Py_ssize_t n_latencies)
{
    PyObject *ends = PyList_New(n_arrivals), *lat = PyList_New(n_latencies), *item;
    Py_ssize_t i;

    for (i = 0; ends && lat && i < n_arrivals; i++) {
        if ((item = end_state(t, i)) == NULL)
            Py_CLEAR(ends);
        else
            PyList_SET_ITEM(ends, i, item);
    }
    for (i = 0; ends && lat && i < n_latencies; i++) {
        if ((item = PyFloat_FromDouble(latencies[i])) == NULL)
            Py_CLEAR(lat);
        else
            PyList_SET_ITEM(lat, i, item);
    }
    if (ends == NULL || lat == NULL) {
        Py_XDECREF(ends);
        Py_XDECREF(lat);
        return NULL;
    }
    return Py_BuildValue("(N(nnnnnnn)dN)", ends, t->visits[0], t->visits[1],
                         t->visits[2], t->visits[3], t->visits[4], t->visits[5],
                         t->visits[6], t->frozen_time, lat);
}

PyDoc_STRVAR(trial_doc,
"trial(fleet, lead, herd, radars, times, xs, sigmas, mode, persistence,\n"
"      awareness_range, v_cruise, v_caution, forage_lo, forage_hi, n_steps,\n"
"      behaviour, detection) -> (ends, visits, frozen_time, latencies), or None\n\n"
"run_trial's step loop, n_steps steps, for a fleet's buffer and leaders,\n"
"a herd buffer and a radar buffer (arrays of 'd', and of 'l' for the\n"
"leaders) and the arrivals due at times, at xs, of size sigmas (arrays of\n"
"'d'), in mode 0, 1 or 2 (Control, Detection, Aware), drawing through the\n"
"\"BitGenerator\" capsules behaviour and detection. It steps x, v and the\n"
"brake flags in the fleet's buffer. ends holds each arrival's end state,\n"
"visits the visit count of each activity, latencies the detection\n"
"latencies in event order. None where the Python loop is to run the trial.");

/* The buffer arguments of trial, in order. */
enum { FLEET, LEAD, HERD, RADAR, TIMES, XS, SIGMAS, VIEWS };

static PyObject *trial(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *names[VIEWS] = {"fleet", "lead", "herd", "radars", "times", "xs",
                                       "sigmas"};
    Py_buffer views[VIEWS];
    Trial t;
    Scalars c;
    PyObject *out = NULL;
    double *doubles = NULL, *latencies;
    Py_ssize_t *indices = NULL, n, i, n_latencies;
    signed char *chars = NULL;
    int got = 0, ok;

    (void)self;
    if (nargs != 17) {
        PyErr_Format(PyExc_TypeError, "trial takes 17 arguments (%zd given)", nargs);
        return NULL;
    }
    memset(&t, 0, sizeof t);
    if (((c.mode = PyLong_AsLong(args[7])) == -1 && PyErr_Occurred())
            || ((c.persistence = PyFloat_AsDouble(args[8])) == -1.0 && PyErr_Occurred())
            || ((c.reach = PyFloat_AsDouble(args[9])) == -1.0 && PyErr_Occurred())
            || ((c.v_cruise = PyFloat_AsDouble(args[10])) == -1.0 && PyErr_Occurred())
            || ((c.v_caution = PyFloat_AsDouble(args[11])) == -1.0 && PyErr_Occurred())
            || ((c.forage_lo = PyFloat_AsDouble(args[12])) == -1.0 && PyErr_Occurred())
            || ((c.forage_hi = PyFloat_AsDouble(args[13])) == -1.0 && PyErr_Occurred())
            || ((c.n_steps = PyLong_AsLong(args[14])) == -1 && PyErr_Occurred()))
        return NULL;
    if (c.mode < CONTROL || c.mode > AWARE) {
        PyErr_SetString(PyExc_ValueError, "trial: mode must be 0, 1 or 2");
        return NULL;
    }
    if ((t.behaviour = PyCapsule_GetPointer(args[15], "BitGenerator")) == NULL
            || (t.detection = PyCapsule_GetPointer(args[16], "BitGenerator")) == NULL)
        return NULL;
    for (; got < VIEWS; got++)
        if (get_buffer(args[got], &views[got], got == FLEET ? PyBUF_WRITABLE : PyBUF_SIMPLE,
                       got == LEAD ? "l" : "d", got == LEAD ? sizeof(long) : sizeof(double),
                       names[got]) < 0)
            goto done;
    t.n = views[LEAD].len / (Py_ssize_t)sizeof(long);
    t.nr = (views[RADAR].len / (Py_ssize_t)sizeof(double) - RADARS) / 2;
    n = views[TIMES].len / (Py_ssize_t)sizeof(double);
    if (views[FLEET].len != (STATE + 7 * t.n) * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "trial: fleet and lead disagree on the fleet's size");
        goto done;
    }
    if (views[HERD].len != HERD_SLOTS * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "trial: herd is not a herd's buffer");
        goto done;
    }
    if (t.nr < 0 || views[RADAR].len != (RADARS + 2 * t.nr) * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "trial: radars is not a radar buffer");
        goto done;
    }
    if (views[XS].len != views[TIMES].len || views[SIGMAS].len != views[TIMES].len) {
        PyErr_SetString(PyExc_ValueError, "trial: times, xs and sigmas differ in length");
        goto done;
    }
    t.f = views[FLEET].buf;
    t.lead = views[LEAD].buf;
    t.dir = t.f + STATE;
    t.centre = t.dir + t.n;
    t.x = t.f + STATE + 2 * t.n;
    t.v = t.x + t.n;
    t.nx = t.v + t.n;
    t.nv = t.nx + t.n;
    t.flag = t.nv + t.n;
    t.h = views[HERD].buf;
    t.r = views[RADAR].buf;
    t.ax = views[XS].buf;
    t.sigma = views[SIGMAS].buf;
    t.dms_until = -INFINITY;
    t.words = (t.n + 63) / 64;

    /* The cases the Python loop raises on or treats apart wherever they
       arise: a leader past the list, a division by zero in the IDM or the
       stopping envelope or a remainder by a ring of length 0, and a dwell
       range that numpy's uniform rejects. */
    ok = range_ok(t.h[HESITATE_LO], t.h[HESITATE_HI])
        && (n == 0 || range_ok(c.forage_lo, c.forage_hi));
    for (i = 0; i < t.n; i++)
        ok = ok && t.lead[i] < t.n;
    if (t.n > 0 && (t.f[RING] == 0.0 || t.f[CLOSING] == 0.0 || t.f[TWO_B] == 0.0
                    || c.v_cruise == 0.0 || c.v_caution == 0.0))
        ok = 0;
    if (!ok) {
        out = Py_NewRef(Py_None);
        goto done;
    }

    doubles = PyMem_Calloc(7 * n + 2 * t.nr + 1, sizeof *doubles);
    indices = PyMem_Calloc(4 * n + 1, sizeof *indices);
    chars = PyMem_Calloc(3 * n + 1, 1);
    t.met = PyMem_Calloc(n * t.words + 1, sizeof *t.met);
    if (doubles == NULL || indices == NULL || chars == NULL || t.met == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    t.y = doubles;
    t.dwell = t.y + n;
    t.first_in = t.dwell + n;
    t.detected_at = t.first_in + n;
    t.cx = t.detected_at + n;
    t.cy = t.cx + n;
    latencies = t.cy + n;
    t.p = latencies + n;
    t.boost_until = t.p + t.nr;
    for (i = 0; i < t.nr; i++)
        t.boost_until[i] = -INFINITY;
    t.active = indices;
    t.road = t.active + n;
    t.state = chars;    /* FORAGING */
    t.frozen_from = t.state + n;
    memset(t.frozen_from, -1, n);
    t.flags = (unsigned char *)t.frozen_from + n;

    n_latencies = run(&t, &c, views[TIMES].buf, n, t.road + n, latencies);
    /* The fleet's x and v where the last step left them. */
    if (t.x != t.f + STATE + 2 * t.n) {
        memcpy(t.f + STATE + 2 * t.n, t.x, t.n * sizeof *t.x);
        memcpy(t.f + STATE + 3 * t.n, t.v, t.n * sizeof *t.v);
    }
    out = n_latencies < 0 ? Py_NewRef(Py_None) : outcome(&t, n, latencies, n_latencies);
done:
    PyMem_Free(doubles);
    PyMem_Free(indices);
    PyMem_Free(chars);
    PyMem_Free(t.met);
    while (got-- > 0)
        PyBuffer_Release(&views[got]);
    return out;
}

static PyMethodDef methods[] = {
    {"trial", (PyCFunction)(void (*)(void))trial, METH_FASTCALL, trial_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "advance_idm", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit_advance_idm(void)
{
    return PyModule_Create(&module);
}
