/* The compiled form of wvcsim.vehicles.Fleet.advance, built on first use: a
   port of rounds of the reference functions desired_gap, idm_acceleration
   and step_vehicles, which the Python body of Fleet.advance steps, with the
   emergency-brake override of a braking step.

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
   infinite or NaN power, a ** with a negative or NaN base), the kernel
   stops before that step and returns its index, with x and v holding the
   state before it: the Python body takes over from there and raises, or
   goes on, as it would have. A braking vehicle makes the same checks, so it
   stops where the Python body raises too, and then takes -a_em in place of
   its IDM acceleration. */

#include <math.h>
#include <string.h>

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

/* One trial's buffer, written once per trial (x and v again only after the
   Python body has stepped): the 10 parameters (s0, T, a_max, delta, a_floor,
   closing, dt, road_length, vehicle_length, free_road_gap), then n each of
   directions, positions and speeds, which the call updates, and 2n of
   scratch. v0 is the desired speed of these steps; brake is NULL, or n
   flags of the vehicles that brake at -a_em (a_floor) on every step.
   Returns the steps taken. */
long advance_idm(long n, long n_steps, double v0, const long *lead,
                 const unsigned char *brake, double *buf)
{
    const double s0 = buf[0], T = buf[1], a_max = buf[2], delta = buf[3];
    const double a_floor = buf[4], closing = buf[5], dt = buf[6];
    const double L = buf[7], len = buf[8], free_gap = buf[9];
    const double *dir = buf + 10;
    double *x = buf + 10 + n, *v = x + n;
    double *xs = x, *vs = v, *nxs = v + n, *nvs = v + 2 * n, *t;
    const int quartic = delta == 4.0;
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
            if (brake && brake[i])
                a = a_floor;
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
