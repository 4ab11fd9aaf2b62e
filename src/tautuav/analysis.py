"""Certification mathematics for the cascade-controlled tethered UAV.

Everything here turns the closed-loop structure into checkable numbers:

* **Radial envelope** -- under the nested-saturation winch law the radius is
  trapped between its initial value, its target, and one analytically known
  extremal excursion; the velocity is bounded by ``max(lambda1, lambda2) /
  k_dr``.
* **Rate restriction and attitude budget** -- the elevation loop tolerates a
  bounded pitch error and a bounded ``|r_dot/r|``; the admissible
  attitude-error budget is the root of a cubic in the damping/interior
  parameters.
* **Inner asymptotic gain** -- the attitude error response to the commanded
  pitch rate has an impulse-response L1 norm computable by quadrature, and
  the closed form ``1/(zeta*sqrt(k_pt))`` upper-bounds it.
* **Small-gain certificate** -- when the product of inner and outer gains is
  below one, the interconnection's peak errors are bounded linearly by the
  initial errors through a 2x2 gain matrix; inverting that bound is what
  converts tension-safety limits into initial-condition ball radii.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import equilibria
from .control import GainConfig
from .plant import PlantParams


# RK4 steps per vectorised forcing and pitch-rate pass of estimate_gamma_out
SWEEP_CHUNK = 64
MAX_SWEEP_STEPS = 10**7  # most RK4 steps in one band of estimate_gamma_out


class SmallGainError(ValueError):
    """Raised when the inner/outer gain product is not below one."""


@dataclass(frozen=True, slots=True)
class RadialEnvelope:
    """Guaranteed bounds on the radial trajectory."""

    r_min: float      # lower bound [m]
    r_max: float      # upper bound [m]
    r_star: float     # extremal excursion [m]
    tau_star: float   # time of the extremum, 0 when none [s]
    vel_bound: float  # |r_dot| bound [m/s]


@dataclass(frozen=True, slots=True)
class GainCertificate:
    """Small-gain certificate for the inner/outer interconnection."""

    gamma_in: float        # inner asymptotic gain [-]
    gamma_out: float       # outer asymptotic gain [-]
    r_restriction: float   # admissible |r_dot/r| [1/s]
    lambda1_max: float     # admissible radial saturation [m/s^2]
    small_gain_ok: bool    # gain product below one and inner loop stiff enough
    init_ball: float       # admissible weighted initial-error bound [rad]
    init_ok: bool          # supplied initial errors admit direct application
    bound_alpha: float     # certified peak elevation-error norm [rad]
    bound_theta: float     # certified peak attitude-error norm [rad]
    gamma_out_source: str  # 'configured' or 'empirical'


def radial_envelope(r0: float, rdot0: float, r_bar: float,
                    g: GainConfig) -> RadialEnvelope:
    """Trajectory bounds for the saturated radial loop.

    Valid when the initial speed obeys ``|rdot0| <= lambda1 / k_dr``.  The
    extremal excursion has three regimes: moving away from the target the
    coasting bound ``r0 + rdot0/k_dr`` applies; moving toward it, either the
    critically damped solution overshoots at a computable time or the
    initial radius is already the extremum.
    """
    if abs(rdot0) > g.lambda1 / g.k_dr:
        raise ValueError(
            f"initial radial speed {rdot0} exceeds lambda1/k_dr = "
            f"{g.lambda1 / g.k_dr}")
    r_tilde = r0 - r_bar
    sq = math.sqrt(g.k_pr)
    tau_star = 0.0
    if r_tilde * rdot0 >= 0.0:
        r_star = r0 + rdot0 / g.k_dr
    else:
        denom = g.k_pr * r_tilde + sq * rdot0
        tau = rdot0 / denom if denom != 0.0 else -1.0
        if tau > 0.0:
            tau_star = tau
            r_star = r_bar + (r_tilde + rdot0 / sq) * math.exp(-sq * tau)
        else:
            r_star = r0
    return RadialEnvelope(
        r_min=min(r_bar, r0, r_star),
        r_max=max(r_bar, r0, r_star),
        r_star=r_star,
        tau_star=tau_star,
        vel_bound=max(g.lambda1, g.lambda2) / g.k_dr,
    )


def mission_radial_envelope(r0: float, rdot0: float, r_bars: list[float],
                            g: GainConfig) -> RadialEnvelope:
    """Conservative radial envelope across a sequence of piecewise-constant
    radial references.

    Between reference switches each leg obeys the single-target envelope,
    but a leg may start at the cruise speed rather than inside the entry
    condition, so the box of visited radii and targets is padded by the
    worst-case excursion ``2 * vel_bound / k_dr``.
    """
    if not r_bars:
        raise ValueError("mission envelope needs at least one radial reference")
    vel_bound = max(g.lambda1, g.lambda2) / g.k_dr
    slack = 2.0 * vel_bound / g.k_dr
    lo = min(r0, min(r_bars)) - slack
    hi = max(r0, max(r_bars)) + slack
    if not lo > 0.0:
        raise ValueError(f"mission envelope lower bound {lo} is not positive; "
                         "reduce the saturation levels or keep r away from 0")
    base = radial_envelope(r0, rdot0, r_bars[-1], g)
    return RadialEnvelope(r_min=lo, r_max=hi, r_star=base.r_star,
                          tau_star=base.tau_star, vel_bound=vel_bound)


def restriction_r(g: GainConfig) -> float:
    """Admissible ``|r_dot/r|`` for the elevation loop's disturbance rejection [1/s]."""
    c = math.cos(g.theta_tilde_max)
    return g.nu * (g.k_da / 2.0) * c / (1.0 - c)


def theta_budget(zeta: float, nu: float) -> float:
    """Attitude-error budget: root of ``a*x**3 = b*(1-x)**2`` in (0, 1).

    With ``a = (1-nu)**2 * zeta**2`` and ``b = (1 + 2*(1-nu)**2*zeta**2)**2 / 4``
    the left side minus the right is negative at 0 and positive at 1 and the
    difference is strictly increasing, so bisection finds the unique root.
    Budgets above the root satisfy the damping inequality, budgets below
    fail it.  Boundary values ``zeta = 1`` or ``nu = 0`` are accepted.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"nu must lie in [0, 1), got {nu}")
    a = (1.0 - nu) ** 2 * zeta ** 2
    b = 0.25 * (1.0 + 2.0 * (1.0 - nu) ** 2 * zeta ** 2) ** 2

    def h(x: float) -> float:
        return a * x ** 3 - b * (1.0 - x) ** 2

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def gamma_in_bound(g: GainConfig) -> float:
    """Closed-form upper bound on the inner asymptotic gain: 1/(zeta*sqrt(k_pt))."""
    if not g.k_pt > 1.0:
        raise ValueError(f"the bound requires k_pt > 1, got {g.k_pt}")
    return 1.0 / (g.zeta * math.sqrt(g.k_pt))


def gamma_in_l1(g: GainConfig) -> float:
    """Inner asymptotic gain as the impulse-response L1 norm.

    Integrates ``|cos(w*s) - (zeta/sqrt(1-zeta^2)) * sin(w*s)| *
    exp(-q*zeta*s)`` with ``q = sqrt(k_pt)`` and ``w = q*sqrt(1-zeta^2)`` by
    composite Simpson quadrature, 2e5 intervals on ``[0, t_horizon]`` with
    ``t_horizon = 40/(zeta*q)``.  The geometric tail bound ``exp(-q*zeta*t_horizon)/(q*zeta)`` is added to the
    result so the truncation error is accounted for rather than dropped.
    The value depends only on ``k_pt`` and ``zeta``, and is cached on them.
    """
    return _impulse_l1(g.k_pt, g.zeta)


@functools.lru_cache(maxsize=256)
def _impulse_l1(k_pt: float, zeta: float) -> float:
    """The quadrature of :func:`gamma_in_l1`."""
    q = math.sqrt(k_pt)
    w = q * math.sqrt(1.0 - zeta ** 2)
    t_horizon = 40.0 / (zeta * q)
    n = 200_000
    s = np.linspace(0.0, t_horizon, n + 1)
    f = (np.abs(np.cos(w * s)
                - (zeta / math.sqrt(1.0 - zeta ** 2)) * np.sin(w * s))
         * np.exp(-q * zeta * s))
    h = t_horizon / n
    integral = (h / 3.0) * (f[0] + f[-1]
                            + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    tail = math.exp(-q * zeta * t_horizon) / (q * zeta)
    return float(integral + tail)


def lambda1_bound(g: GainConfig, r_min: float) -> float:
    """Largest admissible radial saturation keeping the rate restriction valid."""
    c = math.cos(g.theta_tilde_max)
    return g.nu * (g.k_da * g.k_dr * r_min / 2.0) * c / (1.0 - c)


def small_gain_certificate(g: GainConfig, gamma_out: float,
                           x_alpha0: float, x_theta0: float,
                           r_min: float,
                           gamma_in: float | None = None,
                           gamma_out_source: str = "configured"
                           ) -> GainCertificate:
    """Certify the inner/outer interconnection and bound its trajectories.

    Raises :class:`SmallGainError` when ``gamma_in * gamma_out >= 1``.
    Otherwise the peak error norms are bounded by

        [bound_alpha]            1        [1         gamma_out] [x_alpha0]
        [bound_theta]  <=  ------------- [gamma_in          1] [x_theta0]
                           1 - gin*gout

    ``small_gain_ok`` requires the inner stiffness to dominate the outer
    gain (``k_pt >= gamma_out**2 / zeta**2``); ``init_ok`` separately
    records whether the supplied initial errors fit the attitude budget,
    i.e. whether the reference may be applied directly.  A governor run can
    proceed with ``init_ok`` false -- extending the admissible initial set
    is its purpose -- but never without ``small_gain_ok``.
    """
    if not 0.0 <= gamma_out < math.inf:
        raise ValueError(f"gamma_out must be non-negative and finite, "
                         f"got {gamma_out}")
    if x_alpha0 < 0.0 or x_theta0 < 0.0:
        raise ValueError("initial error norms must be non-negative")
    gin = gamma_in_l1(g) if gamma_in is None else gamma_in
    product = gin * gamma_out
    if product >= 1.0:
        raise SmallGainError(
            f"gain product gamma_in*gamma_out = {product} >= 1; the "
            "interconnection bound does not apply")
    shrink = 1.0 - product
    bound_alpha = (x_alpha0 + gamma_out * x_theta0) / shrink
    bound_theta = (gin * x_alpha0 + x_theta0) / shrink
    init_ball = shrink * g.theta_tilde_max
    k_pt_ok = g.k_pt >= gamma_out ** 2 / g.zeta ** 2
    init_ok = x_theta0 + gin * x_alpha0 < init_ball
    return GainCertificate(
        gamma_in=gin,
        gamma_out=gamma_out,
        r_restriction=restriction_r(g),
        lambda1_max=lambda1_bound(g, r_min),
        small_gain_ok=k_pt_ok,
        init_ball=init_ball,
        init_ok=init_ok,
        bound_alpha=bound_alpha,
        bound_theta=bound_theta,
        gamma_out_source=gamma_out_source,
    )


def estimate_gamma_out(sp, g: GainConfig, p: PlantParams,
                       freqs: np.ndarray | None = None) -> float:
    """Empirical outer asymptotic gain from pitch error to commanded pitch rate.

    No closed form exists for this gain, so it is estimated by driving the
    exact elevation error dynamics at radial rest with a worst-amplitude
    pitch-error sinusoid ``theta_tilde_max * sin(w*t)`` at every frequency
    of the grid (by default 25 log-spaced frequencies from ``10**-1.2`` to
    ``10**1.2`` times ``sqrt(k_pa)``).  Classical RK4 runs
    ``t_settle = 8/(zeta*sqrt(k_pa))`` seconds of settling plus four periods
    of the slowest frequency, at 80 steps per period of the fastest and at
    most ``t_settle/400`` per step.  The grid is swept in two bands split at
    ``f_cap = 10*pi/t_settle``, where 1/80 of a period equals that cap, and
    each band takes its own step and horizon by these rules: the slow band
    steps at the cap, the fast band stops four of its own periods after
    settling.

    The commanded pitch rate of the thrust-vectoring law is read by the
    chain rule at every settled step.  A frequency's peak is the larger of
    its largest sample and the vertex of the parabola through any three
    consecutive samples whose middle one is a local maximum, so a peak that
    falls between steps is not under-read.  The estimate is the largest
    peak divided by the amplitude, times a safety factor of 2.
    :func:`_gamma_out_sweep` sweeps one band.  A grid with a band of more
    than :data:`MAX_SWEEP_STEPS` steps is rejected before any is taken.
    """
    if freqs is None:
        freqs = math.sqrt(g.k_pa) * np.logspace(-1.2, 1.2, 25)
    freqs = np.asarray(freqs, dtype=float).ravel()
    if not (freqs.size and np.isfinite(freqs).all() and (freqs > 0.0).all()):
        raise ValueError("freqs must be a non-empty grid of positive, finite "
                         f"frequencies, got {freqs.tolist()}")
    t_bar = equilibria.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
    t_settle = 8.0 / (g.zeta * math.sqrt(g.k_pa))
    slow = freqs <= 10.0 * math.pi / t_settle
    bands = [band for band in (freqs[slow], freqs[~slow]) if band.size]
    for band in bands:
        _band_steps(band, t_settle)  # reject a band before sweeping any
    peaks = [_gamma_out_sweep(sp, g, p, band, t_bar, t_settle)[0].max()
             for band in bands]
    return 2.0 * float(max(peaks)) / g.theta_tilde_max


def _band_steps(freqs: np.ndarray, t_settle: float) -> tuple[float, int]:
    """The step of one band of the sweep and the number of steps; a band of
    more than :data:`MAX_SWEEP_STEPS` steps raises."""
    t_final = t_settle + 4.0 * 2.0 * math.pi / freqs.min()
    dt = min(2.0 * math.pi / freqs.max() / 80.0, t_settle / 400.0)
    if not t_final / dt <= MAX_SWEEP_STEPS:
        raise ValueError(f"freqs {freqs.tolist()} need {t_final / dt:.4g} RK4 "
                         f"steps, more than MAX_SWEEP_STEPS = {MAX_SWEEP_STEPS}")
    return dt, int(math.ceil(t_final / dt))


def _gamma_out_sweep(sp, g: GainConfig, p: PlantParams, freqs: np.ndarray,
                     t_bar: float,
                     t_settle: float) -> tuple[np.ndarray, np.ndarray]:
    """One band of the sweep of :func:`estimate_gamma_out`, on the 1-D grid
    ``freqs``: the peak commanded-pitch rate over the settled steps at each
    frequency, and the final ``[a_err; a_dot]``, shape ``(2, nf)``.

    The sweep is bound by the cost of numpy calls, not by arithmetic, so
    it runs in chunks of :data:`SWEEP_CHUNK` steps.  The forcing at every
    stage time of a chunk is evaluated in one pass; each step works in
    place on ``(3, nf)`` stage buffers ``[a_err; a_dot; accel]``, whose rows
    0-1 are the stage state and rows 1-2 its derivative.  Every value goes
    through the same float operations in the same order as
    :func:`~tautuav.plant.rk4_step` stepping the plain derivative, so the
    final state is bit-identical to that direct loop's.

    The pitch rate is computed once per chunk from the stored states, whose
    accel row is the ``k1`` of the next step; only the chunk's last state
    needs its own.  The last two settled rates are carried into the next
    chunk, so that a local maximum across the boundary is refined too.
    """
    amp = g.theta_tilde_max
    r = sp.r_bar
    dt, n = _band_steps(freqs, t_settle)
    half = 0.5 * dt

    # The step loop hands every ufunc same-shape arrays and its output as the
    # third positional argument: a Python scalar operand, a (2, 1) broadcast
    # or the out= keyword each cost more than the arithmetic on 25 entries.
    # A constant filled across the grid (suffix _f) gives the same products
    # and sums.
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    sin, cos = np.sin, np.cos
    nf = freqs.size
    alpha_bar_f, t_bar_f, mg_f, g_f, r_f, mr_f = (
        np.full(nf, v) for v in (sp.alpha_bar, t_bar, p.m * p.g, p.g, r,
                                 p.m * r))
    gains_f = np.repeat([[g.k_pa], [g.k_da]], nf, axis=1)
    half_f, dt_f, two_f, sixth_f = (np.full((2, nf), v)
                                    for v in (half, dt, 2.0, dt / 6.0))
    alpha, u_t, gam = np.empty((3, nf))
    pd, acc, tmp = np.empty((3, 2, nf))
    pd_a, pd_d = pd

    def forcing(times):
        """Rows of (-cos, cos - 1, sin) of the pitch error at each time."""
        tt = amp * sin(np.multiply.outer(times, freqs))
        cos_tt = cos(tt)
        return zip(-cos_tt, cos_tt - 1.0, sin(tt))

    def accel(a_err, y, out, neg_cos_tt, cos_tt_m1, sin_tt):
        """Elevation acceleration at the stage state ``y = [a_err; a_dot]``:

            out = -(k_pa*a_err + k_da*a_dot) * cos(tt) + gam
            gam = (g*cos(alpha)/r) * (cos(tt) - 1) - u_t*sin(tt)/(m*r)
            u_t = t_bar + m*g*sin(alpha),  alpha = alpha_bar + a_err
        """
        add(alpha_bar_f, a_err, alpha)
        sin(alpha, u_t)
        mul(mg_f, u_t, u_t)
        add(t_bar_f, u_t, u_t)
        mul(u_t, sin_tt, u_t)
        div(u_t, mr_f, u_t)
        cos(alpha, gam)
        mul(g_f, gam, gam)
        div(gam, r_f, gam)
        mul(gam, cos_tt_m1, gam)
        sub(gam, u_t, gam)
        mul(gains_f, y, pd)
        add(pd_a, pd_d, out)
        mul(out, neg_cos_tt, out)
        add(out, gam, out)

    def views(z):
        """(a_err, state, derivative, accel) views of a (3, nf) stage buffer."""
        return z[0], z[0:2], z[1:3], z[2]

    # row j: [a_err; a_dot; accel] after j steps of the chunk; row 0 carries
    # the last state of the previous chunk
    states = np.zeros((SWEEP_CHUNK + 1, 3, nf))
    rows = [views(z) for z in states]
    (e2, y2, k2, a2), (e3, y3, k3, a3), (e4, y4, k4, a4) = (
        views(z) for z in np.empty((3, 3, nf)))
    peak = np.zeros(nf)
    carry = np.empty((0, nf))  # the last (up to) two settled rates
    t = 0.0
    for start in range(0, n, SWEEP_CHUNK):
        m = min(SWEEP_CHUNK, n - start)
        ts = [t]
        for _ in range(m):
            t += dt
            ts.append(t)
        times = np.array(ts)
        f_ends = forcing(times)
        f_start = next(f_ends)
        for (e1, y1, k1, a1), nxt, f_mid, f_end in zip(
                rows, rows[1:], forcing(times[:-1] + half), f_ends):
            accel(e1, y1, a1, *f_start)
            mul(half_f, k1, y2)
            add(y1, y2, y2)
            accel(e2, y2, a2, *f_mid)
            mul(half_f, k2, y3)
            add(y1, y3, y3)
            accel(e3, y3, a3, *f_mid)
            mul(dt_f, k3, y4)
            add(y1, y4, y4)
            accel(e4, y4, a4, *f_end)
            # y + (dt/6) * (((k1 + 2*k2) + 2*k3) + k4)
            mul(two_f, k2, acc)
            add(k1, acc, acc)
            mul(two_f, k3, tmp)
            add(acc, tmp, acc)
            add(acc, k4, acc)
            mul(sixth_f, acc, acc)
            add(y1, acc, nxt[1])
            f_start = f_end
        e1, y1, _, a1 = rows[m]
        accel(e1, y1, a1, *f_start)
        settled = states[1:m + 1][times[1:] >= t_settle]
        if settled.size:
            # theta_c = pi/2 - alpha - atan2(u_alpha, u_t) by the chain rule
            a_err, a_dot, a_ddot = settled.transpose(1, 0, 2)
            alpha_c = sp.alpha_bar + a_err
            sin_c, cos_c = np.sin(alpha_c), np.cos(alpha_c)
            u_t_c = t_bar + p.m * p.g * sin_c
            u_alpha = (p.m * p.g * cos_c
                       - p.m * r * (g.k_pa * a_err + g.k_da * a_dot))
            du_t = p.m * p.g * cos_c * a_dot
            du_alpha = (-p.m * p.g * sin_c * a_dot
                        - p.m * r * (g.k_pa * a_dot + g.k_da * a_ddot))
            rate = np.abs(-a_dot - (u_t_c * du_alpha - u_alpha * du_t)
                          / (u_t_c * u_t_c + u_alpha * u_alpha))
            np.maximum(peak, rate.max(axis=0), out=peak)
            # vertex of the parabola through three consecutive rates; a
            # triple whose middle is no strict-curvature local maximum gets
            # an infinite curvature and reads its middle rate
            w = np.concatenate((carry, rate))
            r0, r1, r2 = w[:-2], w[1:-1], w[2:]
            curv = 2.0 * r1 - r0 - r2
            curv[(r1 < r0) | (r1 < r2) | (curv <= 0.0)] = math.inf
            if curv.size:
                np.maximum(peak, (r1 + (r2 - r0) ** 2 / (8.0 * curv)).max(axis=0),
                           out=peak)
            carry = w[-2:]
        states[0] = states[m]
    return peak, states[0, :2].copy()
