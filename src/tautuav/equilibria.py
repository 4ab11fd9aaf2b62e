"""Attainable hover configurations of the tethered UAV.

A setpoint ``(r_bar, alpha_bar, theta_bar)`` is an equilibrium of the
taut-cable dynamics when the thrust balances gravity along the elevation
direction and the residual radial force is carried by the cable.  The cable
can only pull, so a setpoint is *attainable with margin eps* when its
equilibrium tension exceeds ``eps``.  Solving the steady-state balance gives,
for ``alpha_bar != pi/2``,

    t_bar  = m*g*(tan(alpha_bar + theta_bar)*cos(alpha_bar) - sin(alpha_bar))
    u1_bar = m*g*cos(alpha_bar) / cos(alpha_bar + theta_bar)

and the admissible pitch band is bounded by the limit angle where
``t_bar == eps``.  At exactly vertical hover (``alpha_bar == pi/2``) the
pitch must be zero and any positive tension can be realised by choosing the
thrust, so the tension there is a configuration choice rather than a derived
quantity (``hover_tension``).

The admissible region splits into two halves, one per side of the vertical,
each convex: linear interpolation between two attainable setpoints on the
same side stays attainable, and paths across the vertical are routed through
the apex point ``((r_a + r_b)/2, pi/2, 0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .plant import ControlInputs, PlantParams

HALF_PI = math.pi / 2.0

#: Interval-tightening margin [rad] used when certifying sampled path points;
#: guards against boundary flapping under floating point.
PATH_MARGIN = 1e-9


class SingularSetpointError(ValueError):
    """Raised where the vertical-hover case needs an explicit tension choice."""


class UnattainableError(ValueError):
    """Raised when an operation requires setpoints inside the attainable set."""


@dataclass(frozen=True, slots=True)
class Setpoint:
    """Hover reference (r_bar [m], alpha_bar [rad], theta_bar [rad])."""

    r_bar: float
    alpha_bar: float
    theta_bar: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta_bar):
            raise ValueError(f"theta_bar must be finite, got {self.theta_bar}")
        if not 0.0 < self.r_bar < math.inf:
            raise ValueError("r_bar must be positive and finite, "
                             f"got {self.r_bar}")
        if not 0.0 <= self.alpha_bar <= math.pi:
            raise ValueError(f"alpha_bar must lie in [0, pi], got {self.alpha_bar}")
        if self.alpha_bar == HALF_PI and self.theta_bar != 0.0:
            raise ValueError("vertical hover admits only theta_bar = 0, "
                             f"got {self.theta_bar}")


@dataclass(frozen=True, slots=True)
class PathSpec:
    """Piecewise-linear chain of setpoints, one or two linearly interpolated segments."""

    segments: tuple[tuple[Setpoint, Setpoint], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.segments) <= 2:
            raise ValueError(f"a path has one or two segments, got {len(self.segments)}")
        if len(self.segments) == 2:
            a_end = self.segments[0][1]
            b_start = self.segments[1][0]
            if a_end != b_start:
                raise ValueError("consecutive segments must share the joining setpoint")


def theta_limit(alpha_bar: float, eps: float, p: PlantParams) -> float:
    """Pitch angle at which the equilibrium tension equals the margin ``eps``.

    Uses the arctangent branch on the same side of the vertical as
    ``alpha_bar`` so that the limit is continuous on each half and reduces
    to 0 for ``eps == 0``.
    """
    if not 0.0 <= alpha_bar <= math.pi:
        raise ValueError(f"alpha_bar must lie in [0, pi], got {alpha_bar}")
    if alpha_bar == HALF_PI:
        raise SingularSetpointError("theta_limit is singular at alpha_bar = pi/2")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be non-negative and finite, got {eps}")
    base = math.atan(eps / (p.m * p.g * math.cos(alpha_bar)) + math.tan(alpha_bar))
    if alpha_bar > HALF_PI:
        base += math.pi
    return base - alpha_bar


def is_attainable(sp: Setpoint, eps: float, p: PlantParams,
                  margin: float = 0.0) -> bool:
    """Membership test for the attainable set with tension margin ``eps``.

    The admissible pitch interval is open; ``margin`` (radians) tightens it
    symmetrically, which path certification uses to stay clear of the
    boundary.
    """
    if sp.alpha_bar == HALF_PI:
        return sp.theta_bar == 0.0
    lim = theta_limit(sp.alpha_bar, eps, p)
    if sp.alpha_bar < HALF_PI:
        return lim + margin < sp.theta_bar < HALF_PI - sp.alpha_bar - margin
    return HALF_PI - sp.alpha_bar + margin < sp.theta_bar < lim - margin


def equilibrium_tension(sp: Setpoint, p: PlantParams,
                        hover_tension: float | None = None) -> float:
    """Cable tension at the setpoint's equilibrium [N].

    At vertical hover the tension is a free positive choice; pass
    ``hover_tension`` to select it, otherwise the singular case raises.
    """
    if sp.alpha_bar == HALF_PI:
        if hover_tension is None:
            raise SingularSetpointError(
                "equilibrium tension at alpha_bar = pi/2 requires a configured "
                "hover_tension")
        if not hover_tension > 0.0:
            raise ValueError(f"hover_tension must be positive, got {hover_tension}")
        return hover_tension
    return p.m * p.g * (math.tan(sp.alpha_bar + sp.theta_bar)
                        * math.cos(sp.alpha_bar) - math.sin(sp.alpha_bar))


def equilibrium_inputs(sp: Setpoint, p: PlantParams,
                       hover_tension: float | None = None) -> ControlInputs:
    """Constant inputs holding the setpoint: u2 = 0, u3 = -rho*t_bar, and the
    thrust that balances gravity along the elevation direction."""
    t_bar = equilibrium_tension(sp, p, hover_tension)
    if sp.alpha_bar == HALF_PI:
        u1 = p.m * p.g + t_bar
    else:
        c = math.cos(sp.alpha_bar + sp.theta_bar)
        if abs(c) < 1e-12:
            raise UnattainableError(
                "thrust is undefined for alpha_bar + theta_bar = +/- pi/2")
        u1 = p.m * p.g * math.cos(sp.alpha_bar) / c
    return ControlInputs(u1=u1, u2=0.0, u3=-p.rho * t_bar)


def interpolate_setpoint(a: Setpoint, b: Setpoint, lam: float) -> Setpoint:
    """Linear interpolation from ``a`` (lam=0) to ``b`` (lam=1)."""
    if lam == 0.0:
        return a
    if lam == 1.0:
        return b
    return Setpoint(
        r_bar=a.r_bar + lam * (b.r_bar - a.r_bar),
        alpha_bar=a.alpha_bar + lam * (b.alpha_bar - a.alpha_bar),
        theta_bar=a.theta_bar + lam * (b.theta_bar - a.theta_bar),
    )


def same_half_interval(a: Setpoint, b: Setpoint) -> bool:
    """True when both elevations lie in [0, pi/2] or both in [pi/2, pi]."""
    return ((a.alpha_bar <= HALF_PI and b.alpha_bar <= HALF_PI)
            or (a.alpha_bar >= HALF_PI and b.alpha_bar >= HALF_PI))


def interpolate_path(start: Setpoint, end: Setpoint, eps: float,
                     p: PlantParams) -> PathSpec:
    """Piecewise-linear attainable path from ``start`` to ``end``.

    One segment when both elevations lie on the same side of the vertical,
    otherwise two segments joined at the apex ``((r_a+r_b)/2, pi/2, 0)``.
    999 interior points per segment are certified attainable at the margin
    :data:`PATH_MARGIN`; convexity of each half guarantees this
    analytically, so the sampling is a regression tripwire rather than the
    proof.
    """
    for name, sp in (("start", start), ("end", end)):
        if not is_attainable(sp, eps, p):
            raise UnattainableError(f"{name} setpoint {sp} is not attainable "
                                    f"with margin eps={eps}")
    if same_half_interval(start, end):
        segments: tuple[tuple[Setpoint, Setpoint], ...] = ((start, end),)
    else:
        mid = Setpoint((start.r_bar + end.r_bar) / 2.0, HALF_PI, 0.0)
        segments = ((start, mid), (mid, end))

    for seg_start, seg_end in segments:
        for k in range(1, 1000):
            sp = interpolate_setpoint(seg_start, seg_end, k / 1000)
            if not is_attainable(sp, eps, p, margin=PATH_MARGIN):
                raise UnattainableError(
                    f"interpolated point {sp} fell outside the attainable set "
                    f"(eps={eps}); path certification failed")
    return PathSpec(segments=segments)
