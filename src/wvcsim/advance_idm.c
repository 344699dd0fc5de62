/* The compiled form of wvcsim.vehicles.advance_idm, built on first use: a
   port of rounds of the reference functions desired_gap, idm_acceleration
   and step_vehicles, which advance_idm's Python body steps.

   Every float operation is the reference's, in CPython's semantics and in
   the same order, so both give the same bits: % is fmod plus the sign fix of
   CPython's float_rem, ** is libm pow. Build with -ffp-contract=off (no fused
   multiply-add) and -fno-builtin (no pow folded into a multiply).

   Where the Python body would raise (a gap <= 0, a ** that overflows, a
   division by zero, a leader out of range) or treats a case apart (a **
   with a negative or NaN base), the kernel stops before that step and
   returns its index, with x and v holding the state before it: the Python
   body takes over from there and raises, or goes on, as it would have. */

#include <math.h>
#include <string.h>

/* CPython's float_rem: the remainder takes the sign of the divisor. */
static double py_mod(double a, double w)
{
    double m = fmod(a, w);
    if (m) {
        if ((w < 0) != (m < 0))
            m += w;
    } else {
        m = copysign(0.0, w);
    }
    return m;
}

/* CPython's float ** where the kernel may take it: a base >= 0 and a finite
   result. Returns 0 where the Python body must take the step. */
static int py_pow(double b, double e, double *r)
{
    if (!(b >= 0.0))
        return 0;
    *r = pow(b, e);
    return isfinite(*r);
}

/* buf: the 11 parameters (s0, T, a_max, delta, a_floor, closing, v0, dt,
   road_length, vehicle_length, free_road_gap), then n each of directions,
   positions and speeds, which the call updates, and 2n of scratch. Returns
   the steps taken. */
long advance_idm(long n, long n_steps, const long *lead, double *buf)
{
    const double s0 = buf[0], T = buf[1], a_max = buf[2], delta = buf[3];
    const double a_floor = buf[4], closing = buf[5], v0 = buf[6], dt = buf[7];
    const double L = buf[8], len = buf[9], free_gap = buf[10];
    const double *dir = buf + 11;
    double *x = buf + 11 + n, *v = x + n;
    double *xs = x, *vs = v, *nxs = v + n, *nvs = v + 2 * n, *t;
    long step = 0, i;

    for (i = 0; i < n; i++)
        if (lead[i] >= n)
            return 0;
    if (n > 0 && (L == 0.0 || v0 == 0.0 || closing == 0.0))
        return 0;
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
            if (!py_pow(vi / v0, delta, &f) || !py_pow(s_star / gap, 2.0, &q))
                goto stop;
            a = a_max * (1.0 - f - q);
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
    if (xs != x) {
        memcpy(x, xs, n * sizeof *x);
        memcpy(v, vs, n * sizeof *v);
    }
    return step;
}
