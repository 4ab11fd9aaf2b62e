"""Physical model of a planar UAV tethered to a ground winch by a taut cable.

The UAV (mass ``m``, inertia ``j_uav``) moves in a vertical plane on polar
coordinates anchored at the winch: radial position ``r``, elevation angle
``alpha`` measured from the horizontal, and body pitch ``theta`` relative to
the horizon.  The cable is inextensible and massless; while it is taut the
unwound length equals ``r`` and the winch (radius ``rho``, inertia
``i_winch``) drives the radial coordinate directly.

Taut-cable equations of motion::

    r_ddot     = (rho / I) * u3 + (rho**2 / I) * T
    alpha_ddot = -(1/r) * (2*r_dot*alpha_dot + g*cos(alpha))
                 + u1 * cos(alpha + theta) / (m*r)
    theta_ddot = u2 / J

with thrust ``u1 >= 0``, body torque ``u2``, winch torque ``u3``, and cable
tension ``T``.  The tension is not a free input: it is the reaction force

    T = m*r*alpha_dot**2 - m*g*sin(alpha) + u1*sin(alpha + theta) - m*r_ddot

and the model is only physically valid while ``T > 0`` (a cable cannot
push).  All functions here are pure evaluations; interpreting the sign of
``T`` is left to the callers that monitor the constraint.

The package's one generic fixed-step integrator, :func:`rk4_step`, lives
here too.  It is the reference for the two written-out copies that take the
steps, :func:`tautuav.sim.closed_loop_rk4_step` and the chunked sweep of
:func:`tautuav.analysis.estimate_gamma_out`; both are tested equal to it
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


@dataclass(frozen=True, slots=True)
class PlantParams:
    """Physical constants of the UAV/winch system (SI units)."""

    m: float = 2.0          # UAV mass [kg]
    j_uav: float = 0.015    # UAV moment of inertia [kg m^2]
    i_winch: float = 0.01   # winch moment of inertia [kg m^2]
    rho: float = 0.1        # winch radius [m]
    g: float = 9.81         # gravity [m/s^2]

    def __post_init__(self) -> None:
        for name in ("m", "j_uav", "i_winch", "rho", "g"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")


@dataclass(frozen=True, slots=True)
class FullState:
    """Six-dimensional plant state (r, r_dot, alpha, alpha_dot, theta, theta_dot)."""

    r: float
    r_dot: float
    alpha: float
    alpha_dot: float
    theta: float
    theta_dot: float

    @classmethod
    def initial(cls, r: float, alpha: float, theta: float,
                r_dot: float = 0.0, alpha_dot: float = 0.0,
                theta_dot: float = 0.0) -> "FullState":
        """Validated constructor for run initial conditions.

        Requires finite entries, a taut cable (``r > 0``) and ``alpha`` in
        [0, pi]; ``theta`` is wrapped to (-pi, pi].  During integration the
        state is propagated without re-validation so that excursions of
        ``alpha`` past the interval ends are observable instead of raising.
        """
        for name, value in (("r", r), ("alpha", alpha), ("theta", theta),
                            ("r_dot", r_dot), ("alpha_dot", alpha_dot),
                            ("theta_dot", theta_dot)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not r > 0.0:
            raise ValueError(f"r must be positive for a taut cable, got {r}")
        if not 0.0 <= alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
        return cls(r, r_dot, alpha, alpha_dot, wrap_angle(theta), theta_dot)

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.r, self.r_dot, self.alpha, self.alpha_dot,
                self.theta, self.theta_dot)


@dataclass(frozen=True, slots=True)
class ControlInputs:
    """Actuator set: total thrust u1 [N], body torque u2 [N m], winch torque u3 [N m]."""

    u1: float
    u2: float
    u3: float

    def __post_init__(self) -> None:
        if self.u1 < 0.0:
            raise ValueError(f"u1 must be non-negative (propellers cannot pull), got {self.u1}")


@dataclass(frozen=True, slots=True)
class StateDerivative:
    """Time derivative of FullState; rate entries mirror the state's rate fields."""

    r_dot: float
    r_ddot: float
    alpha_dot: float
    alpha_ddot: float
    theta_dot: float
    theta_ddot: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.r_dot, self.r_ddot, self.alpha_dot, self.alpha_ddot,
                self.theta_dot, self.theta_ddot)


def tension(state: FullState, u1: float, r_ddot: float, p: PlantParams) -> float:
    """Cable tension implied by the taut-cable kinematic constraint [N].

    Signed on purpose: a negative value means the configuration would
    require the cable to push, i.e. the taut model is being violated.
    """
    return (p.m * state.r * state.alpha_dot ** 2
            - p.m * p.g * math.sin(state.alpha)
            + u1 * math.sin(state.alpha + state.theta)
            - p.m * r_ddot)


def elevation_acceleration(state: FullState, u1: float,
                           p: PlantParams) -> float:
    """Elevation acceleration: polar Coriolis and gravity terms plus the
    thrust's tangential component.  Requires ``r > 0``."""
    return (-(2.0 * state.r_dot * state.alpha_dot
              + p.g * math.cos(state.alpha)) / state.r
            + u1 * math.cos(state.alpha + state.theta) / (p.m * state.r))


def taut_rhs(state: FullState, u: ControlInputs, tension_value: float,
             p: PlantParams) -> StateDerivative:
    """Taut-cable equations of motion for a given tension value."""
    if not state.r > 0.0:
        raise ValueError(f"taut model requires r > 0, got r={state.r}")
    r_ddot = (p.rho / p.i_winch) * u.u3 + (p.rho ** 2 / p.i_winch) * tension_value
    alpha_ddot = elevation_acceleration(state, u.u1, p)
    theta_ddot = u.u2 / p.j_uav
    return StateDerivative(state.r_dot, r_ddot, state.alpha_dot, alpha_ddot,
                           state.theta_dot, theta_ddot)


def resolve_taut_coupling(state: FullState, u: ControlInputs,
                          p: PlantParams) -> tuple[float, float]:
    """Solve the radial-acceleration/tension coupling for open-loop inputs.

    The radial equation contains ``T`` and the tension expression contains
    ``r_ddot``; both are linear, so the pair has a unique solution:

        r_ddot * (1 + m*rho^2/I) = (rho/I)*u3 + (rho^2/I) * c
        T = c - m*r_ddot

    with ``c`` the tension at zero radial acceleration.  Returns
    ``(r_ddot, tension)``.
    """
    if not state.r > 0.0:
        raise ValueError(f"taut model requires r > 0, got r={state.r}")
    c = tension(state, u.u1, 0.0, p)
    scale = 1.0 + p.m * p.rho ** 2 / p.i_winch
    r_ddot = ((p.rho / p.i_winch) * u.u3 + (p.rho ** 2 / p.i_winch) * c) / scale
    return r_ddot, c - p.m * r_ddot


def rk4_step(f: Callable[[float, Sequence], Sequence], t: float,
             y: Sequence, dt: float) -> tuple:
    """One classical fourth-order Runge-Kutta step of ``y' = f(t, y)``.

    ``y`` and the values of ``f`` are sequences of floats, or of equally
    shaped arrays to advance a batch; the arithmetic is elementwise either
    way, so a batch entry equals the scalar step bit for bit.  ``f`` gets
    the intermediate stage states as lists.  Returns the new state as a
    tuple; checking it for finiteness is left to the caller.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    half = 0.5 * dt
    k1 = f(t, y)
    # list comprehensions: cheaper than generators on the scalar path
    k2 = f(t + half, [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = f(t + half, [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = f(t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])
    return tuple([yi + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
