/* The flight loop of tautuav.sim in C, bit for bit its Python loop.
 *
 * tautuav_fly flies one control law from a given step: the supervisor scan
 * of governor.governor_step with its rate prefilter, the right-hand side of
 * control.closed_loop_rhs, the unrolled RK4 step of sim.closed_loop_rk4_step
 * and the stop at an exact fixed point.  It writes the 13 raw columns of
 * each row into the (13, n_steps + 1) array that sim._finish_log finishes.
 *
 * Every float operation is Python's, in Python's order.  sim builds this
 * file with -O2 -ffp-contract=off -fno-builtin: no fused multiply-adds, and
 * every libm function stays a call, so pow(x, 2.0) is not folded into x * x
 * nor sin and cos fused into sincos.  x ** 2 is CPython's float_pow, and
 * math.hypot and math.atan2 are CPython's own code, ported here.
 */
#include <errno.h>
#include <float.h>
#include <math.h>
#include <string.h>

#define PI 3.14159265358979323846
#define LEAVE(status, at) do { *step = (at); return (status); } while (0)

enum { DONE, SWITCH, BAIL };  /* tautuav_fly's return codes */

/* control.closed_loop's law tuple after its ideal-attitude flag */
typedef struct {
    double r_bar, alpha_bar, t_bar, k_pr, k_dr, lambda1, lambda2, k_pa, k_da,
        k_pt, k_dt, m, grav, j_uav, rho, mg, winch;
} Law;

/* x ** 2, CPython's float_pow: libm pow of |x|.  Sets *bad where Python
 * raises OverflowError, on a range error other than an underflow to 0. */
double tautuav_square(double x, int *bad)
{
    double r;
    if (isnan(x))
        return x;
    if (isinf(x) || x == 0.0 || fabs(x) == 1.0)
        return x * x;  /* exact, as CPython's special cases */
    errno = 0;
    r = pow(fabs(x), 2.0);
    if (errno == 0 ? isinf(r) : !(errno == ERANGE && r == 0.0))
        *bad = 1;
    return r;
}

/* math.sin and math.cos raise ValueError on an infinity */
static double py_sin(double x, int *bad) { *bad |= isinf(x) != 0; return sin(x); }
static double py_cos(double x, int *bad) { *bad |= isinf(x) != 0; return cos(x); }

/* math.atan2: CPython's m_atan2 */
static double py_atan2(double y, double x)
{
    if (isnan(x) || isnan(y))
        return NAN;
    if (isinf(y))
        return copysign(isinf(x) ? (copysign(1.0, x) == 1.0 ? 0.25 : 0.75) * PI
                                 : 0.5 * PI, y);
    if (isinf(x) || y == 0.0)
        return copysign(copysign(1.0, x) == 1.0 ? 0.0 : PI, y);
    return atan2(y, x);
}

/* the exact product a * b and its exact sum with *csum, compensated */
static void accumulate(double a, double b, double *csum, double *frac1,
                       double *frac2)
{
    double hi = a * b, sum = *csum + hi;
    *frac1 += fma(a, b, -hi);
    *frac2 += (*csum - sum) + hi;
    *csum = sum;
}

/* CPython's vector_norm of (|x|, |y|) with max the larger: scaled, exact
 * squares and sums, then a differential correction */
static double vector_norm(double x, double y, double max)
{
    double csum = 1.0, frac1 = 0.0, frac2 = 0.0, scale, h;
    int max_e;
    if (max == 0.0)
        return max;
    frexp(max, &max_e);
    if (max_e < -1023)  /* ldexp(1.0, -max_e) would overflow */
        return DBL_MIN * vector_norm(x / DBL_MIN, y / DBL_MIN, max / DBL_MIN);
    scale = ldexp(1.0, -max_e);
    accumulate(x * scale, x * scale, &csum, &frac1, &frac2);
    accumulate(y * scale, y * scale, &csum, &frac1, &frac2);
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    accumulate(-h, h, &csum, &frac1, &frac2);
    h += (csum - 1.0 + (frac1 + frac2)) / (2.0 * h);
    return h / scale;
}

/* math.hypot(x, y) */
double tautuav_hypot(double x, double y)
{
    double ax = fabs(x), ay = fabs(y), max = 0.0;
    if (ax > max)
        max = ax;
    if (ay > max)
        max = ay;
    if (isinf(max))
        return max;
    if (isnan(ax) || isnan(ay))
        return NAN;
    return vector_norm(ax, ay, max);
}

/* control.closed_loop_rhs at y: the derivative into d, and u1, u2, u3, the
 * tension, u_t, u_alpha and theta_c into o.  Nonzero where Python raises or
 * a result is not finite, for the Python loop to take the step. */
int tautuav_rhs(const Law *L, int ideal, const double *y, double *d, double *o)
{
    const double r = y[0], r_dot = y[1], alpha = y[2], alpha_dot = y[3],
        theta = y[4], theta_dot = y[5];
    double x, r_ddot, sin_a, mr, coriolis, u_t, u_alpha, u1, heading;
    int bad = 0, i;
    if (!(r > 0.0))
        return 1;
    x = L->k_pr * (r - L->r_bar);
    x = L->k_dr * r_dot + (x > L->lambda2 ? L->lambda2
                           : x < -L->lambda2 ? -L->lambda2 : x);
    r_ddot = x > L->lambda1 ? -L->lambda1 : x < -L->lambda1 ? L->lambda1 : -x;
    sin_a = py_sin(alpha, &bad);
    mr = L->m * r;
    coriolis = 2.0 * r_dot * alpha_dot + L->grav * py_cos(alpha, &bad);
    u_t = L->t_bar + L->mg * sin_a + L->m * r_ddot;
    u_alpha = (L->m * coriolis
               - mr * (L->k_pa * (alpha - L->alpha_bar) + L->k_da * alpha_dot));
    o[0] = u1 = tautuav_hypot(u_t, u_alpha);
    o[4] = u_t;
    o[5] = u_alpha;
    o[6] = PI / 2.0 - alpha - py_atan2(u_alpha, u_t);
    d[0] = r_dot;
    d[1] = r_ddot;
    d[2] = alpha_dot;
    if (ideal) {
        o[1] = 0.0;
        o[3] = L->t_bar + mr * tautuav_square(alpha_dot, &bad);
        d[3] = -L->k_pa * (alpha - L->alpha_bar) - L->k_da * alpha_dot;
        d[4] = d[5] = 0.0;
    } else {
        o[1] = -L->j_uav * (L->k_pt * (theta - o[6]) + L->k_dt * theta_dot);
        heading = alpha + theta;
        o[3] = (mr * tautuav_square(alpha_dot, &bad) - L->mg * sin_a
                + u1 * py_sin(heading, &bad) - L->m * r_ddot);
        d[3] = -coriolis / r + u1 * py_cos(heading, &bad) / mr;
        d[4] = theta_dot;
        d[5] = o[1] / L->j_uav;
    }
    o[2] = L->winch * r_ddot - L->rho * o[3];
    for (i = 0; i < 13; i++)
        bad |= !isfinite(i < 6 ? d[i] : o[i - 6]);
    return bad;
}

/* governor.governor_step: the first ball ahead of index that admits y,
 * each ball a row (alpha_bar, theta_bar, dx_alpha ** 2, dx_theta ** 2) */
static long scan(const double *y, const double *balls, long index,
                 const double *rate_bounds, int *bad)
{
    const double a2 = tautuav_square(y[3], bad);
    double t2;
    long j;
    if (a2 > rate_bounds[0] || (t2 = tautuav_square(y[5], bad)) > rate_bounds[1])
        return index;
    for (j = 0; j < index; j++) {
        const double *b = balls + 4 * j;
        if (tautuav_square(y[2] - b[0], bad) + a2 <= b[2]
            && tautuav_square(y[4] - b[1], bad) + t2 <= b[3])
            return j;
    }
    return index;
}

/* Fly the law from step *step, whose supervisor verdict is taken and whose
 * law was just settled, from the state y under supervisor index *index.
 * Returns DONE with *step the number of rows logged, SWITCH with *step the
 * step that switches to the new *index, or BAIL with *step the step for
 * the Python loop to take from y. */
int tautuav_fly(const Law *law, int ideal, const double *balls,
                const double *rate_bounds, long n_steps, double dt, double *y,
                long *step, long *index, double *raw)
{
    const long k0 = *step, stride = n_steps + 1;
    const double coef[3] = {0.5 * dt, 0.5 * dt, dt}, sixth = dt / 6.0;
    double kk[4][6], s[6], o[7];
    long k, j;
    int i, bad;
    for (k = k0;; k++) {
        if (k > k0 && *index > 0) {
            bad = 0;
            j = scan(y, balls, *index, rate_bounds, &bad);
            if (bad)
                LEAVE(BAIL, k);
            if (j != *index) {
                *index = j;
                LEAVE(SWITCH, k);
            }
        }
        if (tautuav_rhs(law, ideal, y, kk[0], o))
            LEAVE(BAIL, k);
        {
            const double row[13] = {(double)k * dt, y[0], y[1], y[2], y[3],
                                    y[4], y[5], o[0], o[1], o[2], o[3], o[6],
                                    (double)*index};
            for (i = 0; i < 13; i++)
                raw[i * stride + k] = row[i];
        }
        if (k == n_steps)
            LEAVE(DONE, k + 1);
        for (j = 0; j < 3; j++) {
            for (i = 0; i < 6; i++)
                s[i] = y[i] + coef[j] * kk[j][i];
            if (tautuav_rhs(law, ideal, s, kk[j + 1], o))
                LEAVE(BAIL, k);
        }
        bad = 0;
        for (i = 0; i < 6; i++) {
            s[i] = y[i] + sixth * (kk[0][i] + 2.0 * kk[1][i] + 2.0 * kk[2][i]
                                   + kk[3][i]);
            bad |= !isfinite(s[i]);
        }
        /* a fixed point, on a step that settled no law: later rows repeat */
        if (k > k0 && memcmp(s, y, sizeof s) == 0 && !bad)
            LEAVE(DONE, k + 1);
        if (bad)
            LEAVE(BAIL, k);
        memcpy(y, s, sizeof s);
    }
}
