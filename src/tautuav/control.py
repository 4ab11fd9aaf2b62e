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

``closed_loop`` settles the per-setpoint constants of the three and
``closed_loop_rhs`` evaluates them together, one kernel on plain floats.
``radial_acceleration`` and ``ground_control`` with
:func:`tautuav.plant.taut_rhs` state the laws one at a time: the reference
the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import atan2, cos, hypot, sin
from typing import Sequence

from . import equilibria
from .equilibria import HALF_PI, Setpoint
from .plant import ControlInputs, FullState, PlantParams, StateDerivative


class PreconditionError(ValueError):
    """Raised when a control law's validity hypothesis fails."""


@dataclass(frozen=True, slots=True)
class GainConfig:
    """Controller gains, saturation levels, and certification knobs.

    The derivative gains and the hover tension are tied to other fields, so
    they are properties, not fields: the radial loop is critically damped
    (``k_dr = 2*sqrt(k_pr)``), the elevation and attitude loops use the
    shared damping ratio (``k_da = 2*zeta*sqrt(k_pa)``,
    ``k_dt = 2*zeta*sqrt(k_pt)``), and the vertical-hover tension is
    ``2*eps``, or 1 N when ``eps = 0``, so it stays above the margin.
    ``gamma_out`` is the outer-loop asymptotic gain used by certificates; it
    has no closed form and is either configured or estimated empirically.
    """

    k_pr: float = 30.0              # radial P gain [1/s^2]
    lambda1: float = 0.4            # outer radial saturation [m/s^2]
    lambda2: float = 2.0            # inner radial saturation [m/s^2]
    k_pa: float = 30.0              # elevation P gain [1/s^2]
    k_pt: float = 200.0             # attitude P gain [1/s^2]
    zeta: float = 0.9               # damping ratio shared by the PD loops [-]
    eps: float = 1.0                # tension margin defining the usable setpoint set [N]
    nu: float = 0.5                 # interior fraction for the rate restriction [-]
    theta_tilde_max: float = 0.8    # attitude-error budget [rad]
    gamma_out: float = 2.0          # configured outer asymptotic gain [-]

    def __post_init__(self) -> None:
        for name in ("k_pr", "lambda1", "lambda2", "k_pa", "k_pt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
        for name in ("eps", "gamma_out"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {value}")
        if not self.hover_tension < math.inf:
            raise ValueError("eps must be small enough for a finite hover "
                             f"tension 2*eps, got {self.eps}")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if not 0.0 < self.theta_tilde_max < math.pi / 2.0:
            raise ValueError("theta_tilde_max must lie in (0, pi/2), "
                             f"got {self.theta_tilde_max}")
        if not self.lambda2 > self.lambda1:
            raise ValueError(f"lambda2 must exceed lambda1, got "
                             f"lambda2={self.lambda2} <= lambda1={self.lambda1}")

    @property
    def k_dr(self) -> float:
        """Radial D gain [1/s]: critically damped, ``2*sqrt(k_pr)``."""
        return 2.0 * math.sqrt(self.k_pr)

    @property
    def k_da(self) -> float:
        """Elevation D gain [1/s]: ``2*zeta*sqrt(k_pa)``."""
        return 2.0 * self.zeta * math.sqrt(self.k_pa)

    @property
    def k_dt(self) -> float:
        """Attitude D gain [1/s]: ``2*zeta*sqrt(k_pt)``."""
        return 2.0 * self.zeta * math.sqrt(self.k_pt)

    @property
    def hover_tension(self) -> float:
        """Vertical-hover tension [N]: ``2*eps``, or 1 N at zero margin."""
        return 2.0 * self.eps if self.eps > 0.0 else 1.0


@dataclass(frozen=True, slots=True)
class ControlDiagnostics:
    """Outer-loop channel decomposition: u1 reconstructs as hypot(u_t, u_alpha)."""

    u_t: float          # tension-channel command [N]
    u_alpha: float      # elevation-channel command [N]
    theta_c: float      # commanded pitch [rad]


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


def outer_loop(sp: Setpoint, g: GainConfig, p: PlantParams) -> float:
    """Setpoint part of the thrust-vectoring outer loop: the equilibrium
    tension ``t_bar`` feeding the tension channel.  Requires
    ``lambda1 < t_bar/m``, so the tension channel stays positive for every
    admissible radial acceleration and ``atan2(u_alpha, u_t)`` is never
    evaluated at the origin."""
    t_bar = equilibria.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
    if not g.lambda1 < t_bar / p.m:
        raise PreconditionError(
            f"outer loop requires lambda1 < t_bar/m, got lambda1={g.lambda1} "
            f"with t_bar={t_bar}, m={p.m}")
    return t_bar


def closed_loop(sp: Setpoint, g: GainConfig, p: PlantParams,
                ideal_attitude: bool = False) -> tuple:
    """The cascade controller at setpoint ``sp``: the constants that
    :func:`closed_loop_rhs` needs, settled once per setpoint."""
    return (ideal_attitude, sp.r_bar, sp.alpha_bar, outer_loop(sp, g, p),
            g.k_pr, g.k_dr, g.lambda1, g.lambda2,
            g.k_pa, g.k_da, g.k_pt, g.k_dt,
            p.m, p.g, p.j_uav, p.rho, p.m * p.g, p.i_winch / p.rho)


def closed_loop_rhs(y: Sequence[float], law: tuple) -> tuple:
    """Closed-loop right-hand side under the cascade controller ``law``
    (from :func:`closed_loop`) at the state ``y``, six floats.

    Returns ``(derivative, (u1, u2, u3), tension, (u_t, u_alpha, theta_c))``
    as plain tuples, which :func:`evaluate` names.  The radial acceleration
    is the exact saturated value the winch law realises.  With ideal
    attitude the pitch is pinned to its command: only the radial and
    elevation entries of the derivative are meaningful and the tension is
    ``t_bar + m*r*alpha_dot**2``.

    Bit-identity rule: the same float operations in the same order as the
    laws stated one at a time, sharing only common subexpressions.  A
    regrouped sum drifts by ~1e-14, enough to move a governor switch by a
    step.
    """
    (ideal_attitude, r_bar, alpha_bar, t_bar, k_pr, k_dr, lambda1, lambda2,
     k_pa, k_da, k_pt, k_dt, m, grav, j_uav, rho, mg, winch) = law
    r, r_dot, alpha, alpha_dot, theta, theta_dot = y
    if not r > 0.0:
        raise ValueError(f"taut model requires r > 0, got r={r}")
    # nested saturation as comparisons: copysign(min(abs(x), lam), x)
    # exactly, a signed zero and a NaN passing through unchanged
    x = k_pr * (r - r_bar)
    x = k_dr * r_dot + (lambda2 if x > lambda2
                        else -lambda2 if x < -lambda2 else x)
    r_ddot = (-lambda1 if x > lambda1
              else lambda1 if x < -lambda1 else -x)
    # thrust vectoring: tension channel u_t, elevation channel u_alpha
    sin_a = sin(alpha)
    mr = m * r
    coriolis = 2.0 * r_dot * alpha_dot + grav * cos(alpha)
    u_t = t_bar + mg * sin_a + m * r_ddot
    u_alpha = (m * coriolis
               - mr * (k_pa * (alpha - alpha_bar) + k_da * alpha_dot))
    u1 = hypot(u_t, u_alpha)
    theta_c = HALF_PI - alpha - atan2(u_alpha, u_t)
    if ideal_attitude:
        u2 = 0.0
        tension = t_bar + mr * alpha_dot ** 2
        deriv = (r_dot, r_ddot, alpha_dot,
                 -k_pa * (alpha - alpha_bar) - k_da * alpha_dot, 0.0, 0.0)
    else:
        # PD attitude torque, damping on the measured pitch rate
        u2 = -j_uav * (k_pt * (theta - theta_c) + k_dt * theta_dot)
        heading = alpha + theta
        tension = (mr * alpha_dot ** 2 - mg * sin_a
                   + u1 * sin(heading) - m * r_ddot)
        deriv = (r_dot, r_ddot, alpha_dot,
                 -coriolis / r + u1 * cos(heading) / mr,
                 theta_dot, u2 / j_uav)
    return (deriv, (u1, u2, winch * r_ddot - rho * tension), tension,
            (u_t, u_alpha, theta_c))


def evaluate(state: FullState, sp: Setpoint, g: GainConfig, p: PlantParams
             ) -> tuple[StateDerivative, ControlInputs, float, ControlDiagnostics]:
    """One closed-loop evaluation with named fields, for callers outside the
    integrator: :func:`closed_loop_rhs` at ``state`` and setpoint ``sp``."""
    deriv, inputs, tension_value, diag = closed_loop_rhs(
        state.as_tuple(), closed_loop(sp, g, p))
    return (StateDerivative(*deriv), ControlInputs(*inputs), tension_value,
            ControlDiagnostics(*diag))
