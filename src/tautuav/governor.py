"""Backtracking reference governor for the tethered UAV.

A far reference can drag the closed loop through transients that slacken
the cable.  The governor replaces it with a chain of intermediate setpoints
along the attainable interpolation path, each paired with an
invariant-ball radius pair ``(dx_alpha, dx_theta)``: starting inside a
waypoint's ball guarantees convergence to that waypoint with positive
tension throughout.  The chain is built offline from the final reference
backwards, stepping by one ball radius (minus half the global floor) at a
time, so that each waypoint's setpoint offset lies inside its
predecessor's ball.  Online, a supervisor applies the waypoints in reverse
order and advances as soon as the measured elevation and pitch errors enter
the next ball.  The supervisor, :func:`governor_step`, is memoryless: it maps
the measured state and the active waypoint index to the next index; the
simulator keeps the index and records the switch times.

Radii come from the tension-safety inequality: with peak error norms
``l_alpha`` and ``l_theta`` the tension stays positive when

    (t_bar + sqrt(2)*m*g + m*a_rad) * l_theta
      + (2*m*v_max + m*r_max*(k_pa + k_da)) * l_theta * l_alpha  <  t_bar

where ``a_rad`` bounds the radial acceleration (``lambda1``) and ``v_max``,
``r_max`` come from the radial envelope.  The small-gain bound matrix then
maps admissible peak norms back to initial-error radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import equilibria
from .analysis import GainCertificate, RadialEnvelope
from .control import GainConfig
from .equilibria import Setpoint, interpolate_path, interpolate_setpoint
from .plant import PlantParams


#: Share of the tension-safe peak attitude-error budget that the ball radii
#: use, keeping the budget strictly interior.
BUDGET_SPLIT = 0.75


class InfeasibleRadiiError(ValueError):
    """Raised when no positive invariant-ball radii exist for a setpoint."""


class PlanError(ValueError):
    """Raised when waypoint-chain construction cannot complete."""


@dataclass(frozen=True, slots=True)
class Waypoint:
    """A chain entry: setpoint, path parameter, and invariant-ball radii.

    ``s`` runs from 0 at the final reference to 1 at the start of the path,
    increasing along the waypoint list.
    """

    sp: Setpoint
    s: float
    dx_alpha: float  # elevation ball radius [rad]
    dx_theta: float  # attitude ball radius [rad]

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"path parameter s must lie in [0, 1], got {self.s}")
        if not (self.dx_alpha > 0.0 and self.dx_theta > 0.0):
            raise ValueError("ball radii must be strictly positive, got "
                             f"({self.dx_alpha}, {self.dx_theta})")


@dataclass(frozen=True, slots=True)
class WaypointPlan:
    """Ordered waypoint chain; index 0 is the final reference.

    ``rate_bounds`` is ``(max dx_alpha**2, max dx_theta**2)`` over the
    chain: a squared elevation or pitch rate above its bound puts a state
    outside every ball, whatever its angle errors.
    """

    waypoints: tuple[Waypoint, ...]
    min_radii: tuple[float, float]
    rate_bounds: tuple[float, float] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("a plan needs at least the final waypoint")
        s_values = [w.s for w in self.waypoints]
        if any(b <= a for a, b in zip(s_values, s_values[1:])):
            raise ValueError("path parameters must increase along the chain")
        # the squares as switch_ready computes them
        object.__setattr__(self, "rate_bounds", (
            max(w.dx_alpha ** 2 for w in self.waypoints),
            max(w.dx_theta ** 2 for w in self.waypoints)))


def _radii_for_tension(t_bar: float, g: GainConfig, p: PlantParams,
                       cert: GainCertificate, r_env: RadialEnvelope
                       ) -> tuple[float, float]:
    """Invariant-ball radii for a waypoint of equilibrium tension ``t_bar``.

    The peak-norm budget pair is placed on the midpoint ray of the band
    where both back-solved radii are positive, ``l_alpha = kappa *
    l_theta / gamma_in`` with ``kappa = (1 + gamma_in*gamma_out)/2``.  Along
    that ray the tension-safety inequality is a quadratic in ``l_theta``,

        (coeff*kappa/gamma_in) * l_theta**2 + d * l_theta < t_bar,

    solved in closed form, with ``d`` bounding the radial feed-through by
    ``m*lambda1`` (the certified radial acceleration bound);
    :data:`BUDGET_SPLIT` keeps the budget strictly interior.
    Inverting the small-gain bound matrix then gives

        dx_alpha = (1 - gin*gout)/(2*gin) * l_theta
        dx_theta = (1 - gin*gout)/2       * l_theta

    both strictly positive and monotone in ``t_bar``, so radii at any
    attainable waypoint dominate the ``eps``-floor componentwise.
    """
    if not t_bar > 0.0:
        raise InfeasibleRadiiError(f"equilibrium tension must be positive, got {t_bar}")
    if not cert.small_gain_ok:
        raise InfeasibleRadiiError("certificate does not establish the small-gain "
                                   "conditions; radii are undefined")
    gin, gout = cert.gamma_in, cert.gamma_out
    product = gin * gout
    kappa = 0.5 * (1.0 + product)
    d = t_bar + math.sqrt(2.0) * p.m * p.g + p.m * g.lambda1
    coeff = 2.0 * p.m * r_env.vel_bound + p.m * r_env.r_max * (g.k_pa + g.k_da)
    a_quad = coeff * kappa / gin
    l_theta_quad = (-d + math.sqrt(d * d + 4.0 * a_quad * t_bar)) / (2.0 * a_quad)
    l_theta = BUDGET_SPLIT * min(l_theta_quad, g.theta_tilde_max)
    return ((1.0 - product) / (2.0 * gin) * l_theta,
            0.5 * (1.0 - product) * l_theta)


def min_radii(g: GainConfig, p: PlantParams, cert: GainCertificate,
              r_env: RadialEnvelope) -> tuple[float, float]:
    """Global radius floor: ball radii evaluated at the tension margin ``eps``.

    Every attainable waypoint has equilibrium tension above ``eps``, so this
    pair lower-bounds every waypoint's radii.  Requires ``eps > 0``.
    """
    if not g.eps > 0.0:
        raise InfeasibleRadiiError(
            "the governor needs a positive tension margin eps to floor the "
            f"ball radii, got eps={g.eps}")
    return _radii_for_tension(g.eps, g, p, cert, r_env)


def ball_radii(sp: Setpoint, g: GainConfig, p: PlantParams,
               cert: GainCertificate, r_env: RadialEnvelope
               ) -> tuple[float, float]:
    """Invariant-ball radii for a specific waypoint setpoint.

    Evaluated at the waypoint's own equilibrium tension; monotonicity of the
    construction in the tension guarantees the result dominates the
    ``eps``-floor componentwise for every attainable waypoint.
    """
    t_bar = equilibria.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
    return _radii_for_tension(t_bar, g, p, cert, r_env)


def switch_ready(y: Sequence[float], next_wp: Waypoint) -> bool:
    """True when the measured errors of the state ``y`` lie inside the next
    waypoint's ball."""
    _, _, alpha, alpha_dot, theta, theta_dot = y
    return ((alpha - next_wp.sp.alpha_bar) ** 2 + alpha_dot ** 2
            <= next_wp.dx_alpha ** 2
            and (theta - next_wp.sp.theta_bar) ** 2 + theta_dot ** 2
            <= next_wp.dx_theta ** 2)


def governor_step(y: Sequence[float], plan: WaypointPlan,
                  active_index: int) -> int:
    """The index of the most final waypoint whose ball admits the state
    ``y = (r, r_dot, alpha, alpha_dot, theta, theta_dot)``, or
    ``active_index`` when none ahead of it does.

    Each admitting ball guarantees convergence with positive tension, so the
    supervisor may skip any number of intermediate waypoints at once (a
    state already inside the final reference's ball jumps straight to it).
    The index never increases.

    A rate whose square exceeds its bound in ``plan.rate_bounds`` skips the
    scan: adding a non-negative square cannot lower a rounded sum, so no
    ball would admit the state."""
    if not 0 <= active_index < len(plan.waypoints):
        raise ValueError(f"active_index {active_index} outside the plan")
    alpha_rate_bound, theta_rate_bound = plan.rate_bounds
    if y[3] ** 2 > alpha_rate_bound or y[5] ** 2 > theta_rate_bound:
        return active_index
    for k in range(active_index):
        if switch_ready(y, plan.waypoints[k]):
            return k
    return active_index


#: Cap on the chain length; reached only when the ball radii sit at the
#: numerical floor.
MAX_WAYPOINTS = 10_000


def backtrack_plan(start: Setpoint, final: Setpoint, g: GainConfig,
                   p: PlantParams, cert: GainCertificate,
                   r_env: RadialEnvelope) -> WaypointPlan:
    """Build the waypoint chain from ``final`` back to ``start``.

    The interpolation path (one segment, or two joined at the vertical
    apex) is certified attainable first; the chain then marches over its
    segments backwards, final side first.  The step out of each waypoint is
    its own ball radius minus half the global floor, as a fraction of the
    segment's angular span, so each setpoint offset lies inside the
    predecessor's ball with at least half the floor to spare.  On the last
    segment the march stops once the remaining span fits inside the chain
    end's ball, leaving the plan start-adjacent; when the whole path fits
    inside the final reference's ball the plan is the single final
    waypoint.
    """
    path = interpolate_path(start, final, g.eps, p)
    floor = min_radii(g, p, cert, r_env)
    d_alpha, d_theta = floor
    final_radii = ball_radii(final, g, p, cert, r_env)
    waypoints = [Waypoint(sp=final, s=0.0, dx_alpha=final_radii[0],
                          dx_theta=final_radii[1])]
    n_segs = len(path.segments)
    # path segments run start -> final; march them reversed, final side first
    for i, (far, near) in enumerate(reversed(path.segments)):
        span_a = abs(far.alpha_bar - near.alpha_bar)
        span_t = abs(far.theta_bar - near.theta_bar)
        if span_a == 0.0 and span_t == 0.0:
            continue  # purely radial segment: no angular ball constraint
        u = 0.0
        while u < 1.0:
            prev = waypoints[-1]
            step = min(
                (prev.dx_alpha - d_alpha / 2.0) / span_a
                if span_a > 0.0 else math.inf,
                (prev.dx_theta - d_theta / 2.0) / span_t
                if span_t > 0.0 else math.inf)
            if step <= 0.0:
                raise PlanError("waypoint ball radii fell below the spacing floor")
            u = min(1.0, u + step)
            sp = interpolate_setpoint(near, far, u)
            if not (abs(sp.alpha_bar - prev.sp.alpha_bar)
                    <= prev.dx_alpha + 1e-12
                    and abs(sp.theta_bar - prev.sp.theta_bar)
                    <= prev.dx_theta + 1e-12):
                raise PlanError("could not place a waypoint inside the "
                                "predecessor's ball")
            if u == 1.0 and i == n_segs - 1:
                # remaining span fits in the chain end's ball; the start
                # state (zero rates) is therefore already admissible
                break
            radii = ball_radii(sp, g, p, cert, r_env)
            waypoints.append(Waypoint(sp=sp, s=(i + u) / n_segs,
                                      dx_alpha=radii[0], dx_theta=radii[1]))
            if len(waypoints) > MAX_WAYPOINTS:
                raise PlanError(f"waypoint count exceeded {MAX_WAYPOINTS}; "
                                "ball radii are at the numerical floor")
    return WaypointPlan(waypoints=tuple(waypoints), min_radii=floor)
