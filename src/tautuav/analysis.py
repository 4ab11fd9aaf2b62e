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
* **Error terms** -- the exact perturbation coefficients that a nonzero
  pitch error injects into the elevation dynamics and the cable tension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import equilibria
from .control import GainConfig
from .plant import FullState, PlantParams, rk4_step


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


def error_terms(state: FullState, t_bar: float, theta_tilde: float,
                u_t: float, u_alpha: float, p: PlantParams
                ) -> tuple[float, float, float]:
    """Exact pitch-error perturbation of the elevation loop and the tension.

    Returns ``(delta, gamma, t_predicted)`` where the elevation error obeys

        alpha_ddot = -(k_pa*a_err + k_da*alpha_dot) * cos(theta_tilde)
                     + delta * alpha_dot + gamma

    with ``delta = (2*r_dot/r) * (cos(theta_tilde) - 1)`` and

        gamma = (g*cos(alpha)/r) * (cos(theta_tilde) - 1)
                - u_t * sin(theta_tilde) / (m*r)

    and the cable tension equals

        t_predicted = m*r*alpha_dot**2 + t_bar
                      - u_t*(1 - cos(theta_tilde)) + u_alpha*sin(theta_tilde).

    Both trig factors carry ``cos(theta_tilde) - 1``; expanding the thrust
    rotation leaves no sign asymmetry between them.
    """
    if not state.r > 0.0:
        raise ValueError(f"taut model requires r > 0, got r={state.r}")
    cos_t = math.cos(theta_tilde)
    sin_t = math.sin(theta_tilde)
    delta = (2.0 * state.r_dot / state.r) * (cos_t - 1.0)
    gamma = ((p.g * math.cos(state.alpha) / state.r) * (cos_t - 1.0)
             - u_t * sin_t / (p.m * state.r))
    t_predicted = (p.m * state.r * state.alpha_dot ** 2 + t_bar
                   - u_t * (1.0 - cos_t) + u_alpha * sin_t)
    return delta, gamma, t_predicted


def empirical_inner_peak_gain(g: GainConfig,
                              freqs: np.ndarray | None = None) -> float:
    """Peak steady-state gain of the attitude error loop under sinusoidal drive.

    Simulates the error-coordinate attitude loop (the realisation whose
    impulse response :func:`gamma_in_l1` integrates) driven by a unit
    commanded-pitch-rate sinusoid at each frequency (four cycles of the
    slowest after settling, 60 steps per period of the fastest), and
    returns the largest trailing-window amplitude ratio.  The L1 norm
    dominates this peak gain for any single-input single-output linear
    system, which is what the consistency suite checks.
    """
    q = math.sqrt(g.k_pt)
    if freqs is None:
        freqs = q * np.logspace(-1.5, 1.0, 30)
    freqs = np.asarray(freqs, dtype=float)
    t_settle = 10.0 / (g.zeta * q)
    t_final = t_settle + 4.0 * 2.0 * math.pi / freqs.min()
    dt = min(2.0 * math.pi / freqs.max() / 60.0, t_settle / 200.0)
    n = int(math.ceil(t_final / dt))

    x = (np.zeros_like(freqs), np.zeros_like(freqs))
    peak = np.zeros_like(freqs)
    two_zq = 2.0 * g.zeta * q

    def deriv(t, y):
        y1, y2 = y
        u = np.sin(freqs * t)
        return y2 - u, -g.k_pt * y1 - two_zq * (y2 - u)

    t = 0.0
    for k in range(n):
        x = rk4_step(deriv, t, x, dt)
        t += dt
        if t >= t_settle:
            np.maximum(peak, np.abs(x[0]), out=peak)
    return float(peak.max())


def estimate_gamma_out(sp, g: GainConfig, p: PlantParams,
                       freqs: np.ndarray | None = None) -> float:
    """Empirical outer asymptotic gain from pitch error to commanded pitch rate.

    No closed form exists for this gain, so it is estimated by driving the
    exact elevation error dynamics at radial rest with a worst-amplitude
    pitch-error sinusoid ``theta_tilde_max * sin(w*t)`` over a frequency
    grid, reading the commanded pitch by the thrust-vectoring law,
    differencing it, and taking the peak trailing-window ratio times a
    safety factor of 2.
    """
    t_bar = equilibria.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
    w_alpha = math.sqrt(g.k_pa)
    if freqs is None:
        freqs = w_alpha * np.logspace(-1.2, 1.2, 25)
    freqs = np.asarray(freqs, dtype=float)
    amp = g.theta_tilde_max
    r = sp.r_bar
    t_settle = 8.0 / (g.zeta * w_alpha)
    t_final = t_settle + 4.0 * 2.0 * math.pi / freqs.min()
    dt = min(2.0 * math.pi / freqs.max() / 80.0, t_settle / 400.0)
    n = int(math.ceil(t_final / dt))

    def theta_c_of(a_err, a_dot):
        alpha = sp.alpha_bar + a_err
        u_t = t_bar + p.m * p.g * np.sin(alpha)
        u_alpha = (p.m * p.g * np.cos(alpha)
                   - p.m * r * (g.k_pa * a_err + g.k_da * a_dot))
        return math.pi / 2.0 - alpha - np.arctan2(u_alpha, u_t)

    def deriv(t, y):
        a_err, a_dot = y
        tt = amp * np.sin(freqs * t)
        cos_tt = np.cos(tt)
        alpha = sp.alpha_bar + a_err
        u_t = t_bar + p.m * p.g * np.sin(alpha)
        gam = ((p.g * np.cos(alpha) / r) * (cos_tt - 1.0)
               - u_t * np.sin(tt) / (p.m * r))
        return a_dot, -(g.k_pa * a_err + g.k_da * a_dot) * cos_tt + gam

    y = (np.zeros_like(freqs), np.zeros_like(freqs))
    peak = np.zeros_like(freqs)
    prev_tc = theta_c_of(*y)
    t = 0.0
    for k in range(n):
        y = rk4_step(deriv, t, y, dt)
        t += dt
        tc = theta_c_of(*y)
        if t >= t_settle:
            np.maximum(peak, np.abs(tc - prev_tc) / dt, out=peak)
        prev_tc = tc
    return 2.0 * float(peak.max()) / amp

