"""Deterministic fixed-step simulation of the controlled tethered UAV.

Three closed-loop flavours are supported: ideal attitude (the pitch equals
its command instantly and only the radial/elevation states evolve), the
real attitude loop driven directly by the far reference, and the real loop
supervised by a waypoint governor.  Integration is classical fourth-order
Runge-Kutta at a fixed step, which makes runs bit-reproducible and event
times stable.  The flight takes its steps with :func:`closed_loop_rk4_step`,
the generic :func:`tautuav.plant.rk4_step` written out over the six state
entries; the two are tested equal bit for bit.

Each step logs the full state, the applied inputs, the cable tension, and
the commanded pitch.  Event detection runs on the logged samples: the first
tension threshold crossing is located by linear interpolation between the
bracketing steps (reported at 1e-4 s resolution), and convergence is
declared at the start of the first window in which the six-state error norm
stays below tolerance for the dwell period.  A tension violation is an
event, not an error -- the run continues to the horizon so the three
scenarios stay comparable sample by sample.
"""

from __future__ import annotations

import array
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .control import GainConfig, closed_loop, closed_loop_rhs
from .equilibria import Setpoint
from .governor import GovernorState, WaypointPlan, governor_step
from .plant import FullState, PlantParams, wrap_angle


class SimulationDiverged(RuntimeError):
    """Raised when the integrated state stops being finite."""


class ScenarioMode(enum.Enum):
    IDEAL_ATTITUDE = "ideal-attitude"
    INNER_NO_RG = "inner-no-rg"
    INNER_WITH_RG = "inner-with-rg"


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One run: step, horizon, mode, initial state, reference, detection knobs."""

    dt: float = 1e-3
    t_final: float = 10.0
    mode: ScenarioMode = ScenarioMode.IDEAL_ATTITUDE
    initial: FullState = field(
        default_factory=lambda: FullState.initial(
            r=1.0, alpha=math.pi / 8.0, theta=math.pi / 10.0))
    reference: Setpoint = field(
        default_factory=lambda: Setpoint(
            r_bar=0.5, alpha_bar=9.0 * math.pi / 10.0,
            theta_bar=-math.pi / 20.0))
    convergence_tol: float = 1e-3
    convergence_dwell: float = 0.5
    tension_min: float = 0.0  # taut-constraint threshold; 0 for an ideal cable

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.dt < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and exceed dt, "
                             f"got {self.t_final}")
        if not self.convergence_tol > 0.0:
            raise ValueError(f"convergence_tol must be positive, "
                             f"got {self.convergence_tol}")
        if not 0.0 <= self.convergence_dwell < math.inf:
            raise ValueError(f"convergence_dwell must be finite and "
                             f"non-negative, got {self.convergence_dwell}")
        for name in ("t_final", "convergence_dwell"):
            value = getattr(self, name)
            if not math.isclose(round(value / self.dt) * self.dt, value,
                                rel_tol=1e-9):
                raise ValueError(f"dt={self.dt} does not divide "
                                 f"{name}={value} into whole steps")


@dataclass(frozen=True)
class SimEvents:
    """Detected run events."""

    first_tension_violation: float | None
    switch_times: tuple[float, ...]
    convergence_time: float | None


@dataclass(frozen=True)
class TrajectoryLog:
    """Column-major trajectory record, one row per integration step."""

    t: np.ndarray
    r: np.ndarray
    r_dot: np.ndarray
    alpha: np.ndarray
    alpha_dot: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    tension: np.ndarray
    theta_c: np.ndarray
    waypoint: np.ndarray
    events: SimEvents

    COLUMNS = ("t", "r", "r_dot", "alpha", "alpha_dot", "theta", "theta_dot",
               "u1", "u2", "u3", "T", "theta_c", "waypoint")

    def __len__(self) -> int:
        return len(self.t)

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.t, self.r, self.r_dot, self.alpha, self.alpha_dot,
                self.theta, self.theta_dot, self.u1, self.u2, self.u3,
                self.tension, self.theta_c, self.waypoint)


def _six_state_error(row_state: tuple[float, ...], ref: Setpoint) -> float:
    r, r_dot, alpha, alpha_dot, theta, theta_dot = row_state
    return math.sqrt((r - ref.r_bar) ** 2 + r_dot ** 2
                     + (alpha - ref.alpha_bar) ** 2 + alpha_dot ** 2
                     + (theta - ref.theta_bar) ** 2 + theta_dot ** 2)


def closed_loop_rk4_step(y: tuple[float, ...], deriv: tuple[float, ...],
                         law: tuple, dt: float) -> tuple[float, ...]:
    """One RK4 step of the closed loop under ``law`` from the six floats
    ``y``, whose derivative ``deriv`` the caller has already evaluated.

    :func:`tautuav.plant.rk4_step` written out entry by entry: the same
    float operations in the same order, so the two agree bit for bit.  The
    stages call :func:`closed_loop_rhs` through this module's global, so a
    wrapper put on ``sim.closed_loop_rhs`` sees every stage.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    y0, y1, y2, y3, y4, y5 = y
    a0, a1, a2, a3, a4, a5 = deriv
    b0, b1, b2, b3, b4, b5 = closed_loop_rhs(
        (y0 + half * a0, y1 + half * a1, y2 + half * a2,
         y3 + half * a3, y4 + half * a4, y5 + half * a5), law)[0]
    c0, c1, c2, c3, c4, c5 = closed_loop_rhs(
        (y0 + half * b0, y1 + half * b1, y2 + half * b2,
         y3 + half * b3, y4 + half * b4, y5 + half * b5), law)[0]
    d0, d1, d2, d3, d4, d5 = closed_loop_rhs(
        (y0 + dt * c0, y1 + dt * c1, y2 + dt * c2,
         y3 + dt * c3, y4 + dt * c4, y5 + dt * c5), law)[0]
    return (y0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5))


def run_scenario(cfg: SimConfig, g: GainConfig, p: PlantParams,
                 plan: WaypointPlan | None = None) -> TrajectoryLog:
    """Integrate one closed-loop scenario and log every step.

    Governed runs require ``plan``; the supervisor is re-evaluated at every
    step until it reaches the final reference (index 0, where no ball is
    left to test), so reference switches land on the step grid and the
    applied reference is piecewise constant, held through the step's RK4
    stages.
    """
    mode = cfg.mode
    ideal = mode is ScenarioMode.IDEAL_ATTITUDE
    if mode is ScenarioMode.INNER_WITH_RG:
        if plan is None:
            raise ValueError("inner-with-rg mode requires a waypoint plan")
        gs = GovernorState(active_index=len(plan.waypoints) - 1)
    else:
        gs = None
    if abs(cfg.initial.r_dot) > g.lambda1 / g.k_dr:
        raise ValueError(
            f"initial radial speed {cfg.initial.r_dot} violates the admissible "
            f"bound lambda1/k_dr = {g.lambda1 / g.k_dr}")

    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    dwell_steps = int(round(cfg.convergence_dwell / dt))
    y = cfg.initial.as_tuple()
    prev_theta_c: float | None = None
    ref = law = None

    rows = array.array("d")  # the logged rows, 13 values each, back to back
    streak_start: int | None = None
    convergence_time: float | None = None
    prev_tension: float | None = None
    first_violation: float | None = None

    for k in range(n_steps + 1):
        t = k * dt
        if gs is not None:
            if gs.active_index:
                gs = governor_step(y, plan, gs, t)
            wp_index = gs.active_index
            sp = plan.waypoints[wp_index].sp
        else:
            sp = cfg.reference
            wp_index = -1
        if sp is not ref:
            ref = sp
            law = closed_loop(ref, g, p, ideal_attitude=ideal)

        deriv, (u1, u2, u3), tension_value, (_, _, theta_c) = \
            closed_loop_rhs(y, law)

        if ideal:
            theta_row = theta_c
            theta_dot_row = (0.0 if prev_theta_c is None
                             else (theta_c - prev_theta_c) / dt)
        else:
            theta_row = y[4]
            theta_dot_row = y[5]
        prev_theta_c = theta_c

        row = (y[0], y[1], y[2], y[3], wrap_angle(theta_row), theta_dot_row)
        rows.extend((t, *row, u1, u2, u3, tension_value, wrap_angle(theta_c),
                     float(wp_index)))

        if (prev_tension is not None and first_violation is None
                and prev_tension > cfg.tension_min >= tension_value):
            frac = (prev_tension - cfg.tension_min) / (prev_tension - tension_value)
            first_violation = round(t - dt + frac * dt, 4)
        prev_tension = tension_value

        if convergence_time is None:
            err = _six_state_error(row, cfg.reference)
            if err < cfg.convergence_tol:
                if streak_start is None:
                    streak_start = k
                if k - streak_start >= dwell_steps:
                    convergence_time = streak_start * dt
            else:
                streak_start = None

        if k == n_steps:
            break

        y = closed_loop_rk4_step(y, deriv, law, dt)
        if not all(map(math.isfinite, y)):
            raise SimulationDiverged(f"non-finite state at t={t + dt}: {y}")

    events = SimEvents(
        first_tension_violation=first_violation,
        switch_times=tuple(gs.switch_times) if gs is not None else (),
        convergence_time=convergence_time,
    )
    columns = np.frombuffer(rows).reshape(-1, 13).T.copy()
    return TrajectoryLog(*columns[:12], columns[12].astype(int),
                         events=events)


@dataclass(frozen=True)
class MonitorCheck:
    name: str
    passed: bool
    first_failure_time: float | None


@dataclass(frozen=True)
class MonitorReport:
    """Pass/fail verdicts for the per-run safety and performance assertions."""

    checks: tuple[MonitorCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> MonitorCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = ("" if c.first_failure_time is None
                      else f" (first failure at t={c.first_failure_time:.4f})")
            lines.append(f"{c.name}: {status}{suffix}")
        lines.append(f"all: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


def _first_bad_time(t: np.ndarray, bad: np.ndarray) -> float | None:
    idx = np.flatnonzero(bad)
    return float(t[idx[0]]) if idx.size else None


def monitor_invariants(log: TrajectoryLog, g: GainConfig, env,
                       p: PlantParams, tension_min: float = 0.0
                       ) -> MonitorReport:
    """Evaluate the machine-checkable run assertions.

    Checks the taut-cable constraint, containment of the radius in the
    certified envelope, the radial velocity and acceleration bounds, and
    whether the run converged.  The radial acceleration is reconstructed
    exactly from the logged winch torque and tension.
    """
    t = log.t
    checks = []

    bad_t = log.tension <= tension_min
    checks.append(MonitorCheck("tension_positive", not bad_t.any(),
                               _first_bad_time(t, bad_t)))

    bad_env = (log.r < env.r_min - 1e-6) | (log.r > env.r_max + 1e-6)
    checks.append(MonitorCheck("radial_envelope", not bad_env.any(),
                               _first_bad_time(t, bad_env)))

    bad_v = np.abs(log.r_dot) > env.vel_bound + 1e-9
    checks.append(MonitorCheck("radial_velocity", not bad_v.any(),
                               _first_bad_time(t, bad_v)))

    r_ddot = (p.rho * log.u3 + p.rho ** 2 * log.tension) / p.i_winch
    bad_a = np.abs(r_ddot) > g.lambda1 + 1e-12
    checks.append(MonitorCheck("radial_acceleration", not bad_a.any(),
                               _first_bad_time(t, bad_a)))

    converged = log.events.convergence_time is not None
    checks.append(MonitorCheck("convergence", converged,
                               None if converged else float(t[-1])))

    return MonitorReport(checks=tuple(checks))
