"""Cascade control of the tethered UAV: winch, thrust vectoring, attitude.

Three loops cooperate:

* **Ground control** moves the radial coordinate with a nested-saturation
  winch law whose torque also cancels the tension feed-through, so the
  closed-loop radial acceleration is exactly the saturated PD term and is
  bounded by ``lambda1``.
* **Outer loop** splits the thrust vector into a tension channel ``u_t``
  (holds the cable load at its equilibrium value plus the radial
  feed-forward) and an elevation channel ``u_alpha`` (cancels the polar
  Coriolis/gravity terms and applies a PD law on the elevation error).  The
  thrust magnitude and commanded pitch follow from recombining the two
  channels.
* **Inner loop** is a PD attitude law tracking the commanded pitch; damping
  acts on the measured pitch rate so the feedback path never needs the
  commanded pitch rate.

``closed_loop_rhs`` composes the three into the full state derivative and
also reports the applied inputs and the resulting cable tension.  In
ideal-attitude mode the pitch is assumed to equal its command instantly and
only the radial/elevation states evolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import equilibria
from .equilibria import Setpoint, default_hover_tension
from .plant import (ControlInputs, FullState, PlantParams, StateDerivative,
                    elevation_acceleration, tension)


class PreconditionError(ValueError):
    """Raised when a control law's validity hypothesis fails."""


@dataclass(frozen=True, slots=True)
class GainConfig:
    """Controller gains, saturation levels, and certification knobs.

    The derivative gains are tied to the stiffness gains: the radial loop is
    critically damped (``k_dr = 2*sqrt(k_pr)``) and the attitude loop uses
    the shared damping ratio (``k_dt = 2*zeta*sqrt(k_pt)``).  A derivative
    gain or ``hover_tension`` left as None is derived: the two above, the
    elevation gain ``k_da = 2*zeta*sqrt(k_pa)`` (free when given) and the
    hover tension ``default_hover_tension(eps)``.  ``gamma_out``
    is the outer-loop asymptotic gain used by certificates; it has no closed
    form and is either configured or estimated empirically.
    """

    k_pr: float = 30.0              # radial P gain [1/s^2]
    k_dr: float | None = None       # radial D gain [1/s]
    lambda1: float = 0.4            # outer radial saturation [m/s^2]
    lambda2: float = 2.0            # inner radial saturation [m/s^2]
    k_pa: float = 30.0              # elevation P gain [1/s^2]
    k_da: float | None = None       # elevation D gain [1/s]
    k_pt: float = 200.0             # attitude P gain [1/s^2]
    k_dt: float | None = None       # attitude D gain [1/s]
    zeta: float = 0.9               # damping ratio shared by the PD loops [-]
    eps: float = 1.0                # tension margin defining the usable setpoint set [N]
    nu: float = 0.5                 # interior fraction for the rate restriction [-]
    theta_tilde_max: float = 0.8    # attitude-error budget [rad]
    gamma_out: float = 2.0          # configured outer asymptotic gain [-]
    hover_tension: float | None = None  # tension choice at vertical hover [N]

    def __post_init__(self) -> None:
        # the derived gains take square roots of these, so check them first
        for name in ("k_pr", "k_pa", "k_pt"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.k_dr is None:
            object.__setattr__(self, "k_dr", 2.0 * math.sqrt(self.k_pr))
        if self.k_da is None:
            object.__setattr__(self, "k_da",
                               2.0 * self.zeta * math.sqrt(self.k_pa))
        if self.k_dt is None:
            object.__setattr__(self, "k_dt",
                               2.0 * self.zeta * math.sqrt(self.k_pt))
        if self.hover_tension is None:
            object.__setattr__(self, "hover_tension",
                               default_hover_tension(self.eps))
        for name in ("k_dr", "lambda1", "lambda2", "k_da", "k_dt",
                     "hover_tension"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if not 0.0 < self.theta_tilde_max < math.pi / 2.0:
            raise ValueError("theta_tilde_max must lie in (0, pi/2), "
                             f"got {self.theta_tilde_max}")
        if not self.lambda2 > self.lambda1:
            raise ValueError(f"lambda2 must exceed lambda1, got "
                             f"lambda2={self.lambda2} <= lambda1={self.lambda1}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if self.gamma_out < 0.0:
            raise ValueError(f"gamma_out must be non-negative, got {self.gamma_out}")
        if not math.isclose(self.k_dr, 2.0 * math.sqrt(self.k_pr),
                            rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("k_dr must equal 2*sqrt(k_pr) (critically damped "
                             f"radial loop), got k_dr={self.k_dr}")
        if not math.isclose(self.k_dt, 2.0 * self.zeta * math.sqrt(self.k_pt),
                            rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("k_dt must equal 2*zeta*sqrt(k_pt), "
                             f"got k_dt={self.k_dt}")


@dataclass(frozen=True, slots=True)
class ControlDiagnostics:
    """Outer-loop channel decomposition: u1 reconstructs as hypot(u_t, u_alpha)."""

    u_t: float          # tension-channel command [N]
    u_alpha: float      # elevation-channel command [N]
    theta_c: float      # commanded pitch [rad]
    t_predicted: float  # tension prediction for exact pitch tracking [N]


def saturate(x: float, level: float) -> float:
    """Symmetric saturation: sign(x) * min(|x|, level)."""
    if not level > 0.0:
        raise ValueError(f"saturation level must be positive, got {level}")
    return math.copysign(min(abs(x), level), x)


def radial_acceleration(r: float, r_dot: float, r_bar: float,
                        g: GainConfig) -> float:
    """Closed-loop radial acceleration under the nested-saturation winch law.

    This is the exact acceleration realised once the winch torque cancels
    the tension feed-through; its magnitude never exceeds ``lambda1``.
    """
    return -saturate(g.k_dr * r_dot + saturate(g.k_pr * (r - r_bar), g.lambda2),
                     g.lambda1)


def ground_control(state: FullState, r_bar: float, tension_value: float,
                   g: GainConfig, p: PlantParams) -> float:
    """Winch torque: nested-saturation PD on the radius plus tension cancellation."""
    if r_bar < 0.0:
        raise ValueError(f"r_bar must be non-negative, got {r_bar}")
    return ((p.i_winch / p.rho)
            * radial_acceleration(state.r, state.r_dot, r_bar, g)
            - p.rho * tension_value)


def outer_loop(state: FullState, sp: Setpoint, r_ddot: float,
               g: GainConfig, p: PlantParams
               ) -> tuple[float, float, ControlDiagnostics]:
    """Thrust-vectoring elevation controller.

    Returns ``(u1, theta_c, diagnostics)``.  Requires
    ``lambda1 < t_bar / m`` so the tension channel stays positive for every
    admissible radial acceleration; then the channel recombination
    ``atan2(u_alpha, u_t)`` is never evaluated at the origin.
    """
    t_bar = equilibria.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
    if not g.lambda1 < t_bar / p.m:
        raise PreconditionError(
            f"outer loop requires lambda1 < t_bar/m, got lambda1={g.lambda1} "
            f"with t_bar={t_bar}, m={p.m}")
    sin_a = math.sin(state.alpha)
    cos_a = math.cos(state.alpha)
    u_t = t_bar + p.m * p.g * sin_a + p.m * r_ddot
    u_alpha = (p.m * (2.0 * state.r_dot * state.alpha_dot + p.g * cos_a)
               - p.m * state.r * (g.k_pa * (state.alpha - sp.alpha_bar)
                                  + g.k_da * state.alpha_dot))
    u1 = math.hypot(u_t, u_alpha)
    theta_c = math.pi / 2.0 - state.alpha - math.atan2(u_alpha, u_t)
    diag = ControlDiagnostics(
        u_t=u_t,
        u_alpha=u_alpha,
        theta_c=theta_c,
        t_predicted=t_bar + p.m * state.r * state.alpha_dot ** 2,
    )
    return u1, theta_c, diag


def inner_loop(state: FullState, theta_c: float, g: GainConfig,
               p: PlantParams) -> float:
    """PD attitude torque with damping on the measured pitch rate."""
    return -p.j_uav * (g.k_pt * (state.theta - theta_c) + g.k_dt * state.theta_dot)


def closed_loop_rhs(state: FullState, sp: Setpoint, g: GainConfig,
                    p: PlantParams, ideal_attitude: bool = False
                    ) -> tuple[StateDerivative, ControlInputs, float, ControlDiagnostics]:
    """Full closed-loop state derivative under the cascade controller.

    The radial acceleration is the analytically known saturated value (the
    winch torque cancels the tension feed-through exactly), so it is fed to
    the outer loop directly instead of being differentiated numerically.
    With ``ideal_attitude`` the pitch is pinned to its command: only the
    radial and elevation entries of the derivative are meaningful and the
    tension reduces to ``t_bar + m*r*alpha_dot**2``.

    Returns ``(derivative, inputs, tension, diagnostics)``.
    """
    if not state.r > 0.0:
        raise ValueError(f"taut model requires r > 0, got r={state.r}")
    r_ddot = radial_acceleration(state.r, state.r_dot, sp.r_bar, g)
    u1, theta_c, diag = outer_loop(state, sp, r_ddot, g, p)

    if ideal_attitude:
        alpha_ddot = (-g.k_pa * (state.alpha - sp.alpha_bar)
                      - g.k_da * state.alpha_dot)
        tension_value = diag.t_predicted
        u2 = 0.0
        deriv = StateDerivative(state.r_dot, r_ddot, state.alpha_dot,
                                alpha_ddot, 0.0, 0.0)
    else:
        u2 = inner_loop(state, theta_c, g, p)
        alpha_ddot = elevation_acceleration(state, u1, p)
        tension_value = tension(state, u1, r_ddot, p)
        deriv = StateDerivative(state.r_dot, r_ddot, state.alpha_dot,
                                alpha_ddot, state.theta_dot, u2 / p.j_uav)

    u3 = (p.i_winch / p.rho) * r_ddot - p.rho * tension_value
    inputs = ControlInputs(u1=u1, u2=u2, u3=u3)
    return deriv, inputs, tension_value, diag
