"""Deterministic fixed-step simulation of the controlled tethered UAV.

Three closed-loop flavours are supported: ideal attitude (the pitch equals
its command instantly and only the radial/elevation states evolve), the
real attitude loop driven directly by the far reference, and the real loop
supervised by a waypoint governor.  Integration is classical fourth-order
Runge-Kutta at a fixed step, which makes runs bit-reproducible and event
times stable.  The flight takes its steps with :func:`closed_loop_rk4_step`,
the generic :func:`tautuav.plant.rk4_step` written out over the six state
entries; the two are tested equal bit for bit.

The step loop does only the work that needs the live state and logs raw
rows; :func:`_finish_log` derives the rest from the logged columns once the
flight ends.  A flight that settles at its final equilibrium usually reaches
a state that one RK4 step maps to itself bit for bit; from there every row
would repeat, so the loop stops integrating and the log is filled by
copying that row.  The first tension threshold crossing is located by linear
interpolation between the bracketing steps (reported at 1e-4 s resolution),
and convergence is declared at the start of the first window in which the
six-state error norm stays below tolerance for the dwell period.  A tension
violation is an event, not an error -- the run continues to the horizon so
the three scenarios stay comparable sample by sample.

Two loops take the steps, with the same float operations in the same order,
so that their logs agree bit for bit: the compiled loop of ``flight.c`` and
the Python loop, its oracle and fallback.  :func:`run_scenario` flies the
compiled loop while this module's ``closed_loop_rhs``,
``closed_loop_rk4_step`` and ``governor_step`` are the package's own, so a
wrapper put on any of them sees every call.  The C file is built on the
first flight, never at import, with the compiler Python was built with and
:data:`_CFLAGS`, into ``__pycache__/flight-<hash>.so``; a failed build warns
once and leaves every flight on the Python loop.
"""

from __future__ import annotations

import array
import enum
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .control import GainConfig, closed_loop, closed_loop_rhs
from .equilibria import Setpoint
from .governor import WaypointPlan, governor_step
from .plant import FullState, PlantParams


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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and exceed dt, "
                             f"got {self.t_final}")
        if not 0.0 < self.convergence_tol < math.inf:
            raise ValueError(f"convergence_tol must be finite and positive, "
                             f"got {self.convergence_tol}")
        if not math.isfinite(self.tension_min):
            raise ValueError(f"tension_min must be finite, "
                             f"got {self.tension_min}")
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

    When a step returns its own state bit for bit (``-0.0`` told from
    ``0.0``) and the law was not settled on that step, the later rows are
    copies of this one, with ``t`` still ``k * dt``: the kernel does not
    read ``t``, the law changes only on a switch, and the supervisor, pure in
    ``(y, plan, index)``, has just returned the index it would be given
    again.

    The steps are flown by the compiled loop of ``flight.c`` when
    ``closed_loop_rhs``, ``closed_loop_rk4_step`` and ``governor_step`` here
    are still the package's own, and by the Python loop otherwise, so that
    a wrapper put on any of them sees every call; the two give the same log
    bit for bit.
    """
    return _run(cfg, g, p, plan, compiled=all(
        globals().get(name) is stage for name, stage in _OWN_STAGES.items()))


def _run(cfg: SimConfig, g: GainConfig, p: PlantParams,
         plan: WaypointPlan | None, compiled: bool) -> TrajectoryLog:
    """:func:`run_scenario` on the compiled loop, where it builds, or on the
    Python loop."""
    if cfg.mode is ScenarioMode.INNER_WITH_RG:
        if plan is None:
            raise ValueError("inner-with-rg mode requires a waypoint plan")
        wp_index = len(plan.waypoints) - 1
    else:
        wp_index = -1
    if abs(cfg.initial.r_dot) > g.lambda1 / g.k_dr:
        raise ValueError(
            f"initial radial speed {cfg.initial.r_dot} violates the admissible "
            f"bound lambda1/k_dr = {g.lambda1 / g.k_dr}")

    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    raw = np.empty((13, n_steps + 1))
    switch_times: list[float] = []
    y = cfg.initial.as_tuple()
    library = _flight_library() if compiled else None
    if library is None:
        logged = _python_flight(raw, 0, y, wp_index, None, cfg, g, p, plan,
                                switch_times)
    else:
        logged = _compiled_flight(library, raw, y, wp_index, cfg, g, p, plan,
                                  switch_times)
    raw[:, logged:] = raw[:, logged - 1:logged]
    raw[0, logged:] = np.arange(logged, n_steps + 1) * dt
    return _finish_log(raw, cfg, tuple(switch_times))


def _python_flight(raw: np.ndarray, start: int, y: tuple[float, ...],
                   wp_index: int, law: tuple | None, cfg: SimConfig,
                   g: GainConfig, p: PlantParams, plan: WaypointPlan | None,
                   switch_times: list[float]) -> int:
    """The step loop in Python, from step ``start`` at the state ``y`` under
    ``law`` (``None`` to settle it there) to the horizon or a fixed point.
    Writes the raw rows into ``raw`` and returns the number of rows logged
    from step 0."""
    ideal = cfg.mode is ScenarioMode.IDEAL_ATTITUDE
    dt = cfg.dt
    n_steps = raw.shape[1] - 1
    rows = array.array("d")  # the raw rows, 13 values each, back to back

    for k in range(start, n_steps + 1):
        t = k * dt
        if wp_index > 0:
            index = governor_step(y, plan, wp_index)
            if index != wp_index:
                wp_index = index
                switch_times.append(t)
                law = None
        settled = law is None  # at k = 0 and after a switch
        if settled:
            sp = (cfg.reference if wp_index < 0
                  else plan.waypoints[wp_index].sp)
            law = closed_loop(sp, g, p, ideal_attitude=ideal)

        deriv, (u1, u2, u3), tension_value, (_, _, theta_c) = \
            closed_loop_rhs(y, law)
        rows.extend((t, *y, u1, u2, u3, tension_value, theta_c, wp_index))

        if k == n_steps:
            break

        y_next = closed_loop_rk4_step(y, deriv, law, dt)
        if (y_next == y and not settled
                and struct.pack("6d", *y_next) == struct.pack("6d", *y)):
            break  # a fixed point: every later row repeats this one
        y = y_next
        if not all(map(math.isfinite, y)):
            raise SimulationDiverged(f"non-finite state at t={t + dt}: {y}")

    logged = start + len(rows) // 13
    raw[:, start:logged] = np.frombuffer(rows).reshape(-1, 13).T
    return logged


def _compiled_flight(library, raw: np.ndarray, y: tuple[float, ...],
                     wp_index: int, cfg: SimConfig, g: GainConfig,
                     p: PlantParams, plan: WaypointPlan | None,
                     switch_times: list[float]) -> int:
    """:func:`_python_flight` from step 0 with the steps taken in C.

    Python takes the supervisor's verdict on the first row and settles the
    law there and at every switch, so that :func:`closed_loop` is called as
    the Python loop calls it; a step that the C loop leaves to Python, one
    that raises or meets a value that is not finite, and the rest of the
    flight are flown by :func:`_python_flight`."""
    import ctypes

    ideal = cfg.mode is ScenarioMode.IDEAL_ATTITUDE
    dt = cfg.dt
    n_steps = raw.shape[1] - 1
    balls = rate_bounds = None
    if plan is not None:
        balls = (ctypes.c_double * (4 * len(plan.waypoints)))(*(
            v for w in plan.waypoints for v in (
                w.sp.alpha_bar, w.sp.theta_bar, w.dx_alpha ** 2,
                w.dx_theta ** 2)))
        rate_bounds = (ctypes.c_double * 2)(*plan.rate_bounds)
    state = (ctypes.c_double * 6)(*y)
    step, index = ctypes.c_long(0), ctypes.c_long(wp_index)
    rows = raw.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    if wp_index > 0:
        index.value = governor_step(y, plan, wp_index)
        if index.value != wp_index:
            switch_times.append(0 * dt)
    while True:
        start = step.value
        sp = (cfg.reference if index.value < 0
              else plan.waypoints[index.value].sp)
        law = closed_loop(sp, g, p, ideal_attitude=ideal)
        status = library.tautuav_fly(
            (ctypes.c_double * 17)(*law[1:]), law[0], balls, rate_bounds,
            n_steps, dt, state, ctypes.byref(step), ctypes.byref(index), rows)
        if status == _DONE:
            return step.value
        if status == _BAIL:
            return _python_flight(
                raw, step.value, tuple(state), index.value,
                None if step.value == start else law, cfg, g, p, plan,
                switch_times)
        switch_times.append(step.value * dt)


_OWN_STAGES = {"closed_loop_rhs": closed_loop_rhs,
               "closed_loop_rk4_step": closed_loop_rk4_step,
               "governor_step": governor_step}
_DONE, _BAIL = 0, 2  # tautuav_fly's return codes; 1 is a switch
_SOURCE = os.path.join(os.path.dirname(__file__), "flight.c")
#: No fused multiply-adds, and every libm function a call: the Python
#: loop's float operations exactly (see flight.c).
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin")
_library = None  # the loaded flight loop; False once it failed to build


def _compiler() -> list[str]:
    """The C compiler Python was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _flight_library():
    """The compiled flight loop, or ``None`` when it cannot be built.

    Built on first use into ``__pycache__/flight-<hash>.so`` beside the
    source, keyed on the source, the compiler and :data:`_CFLAGS`, and
    loaded with ``ctypes``.  A failed build warns once and leaves every
    flight on the Python loop."""
    global _library
    if _library is None:
        try:
            _library = _load_flight_library()
        except OSError as exc:
            import warnings

            warnings.warn(f"tautuav: the compiled flight loop is not "
                          f"available ({exc}); flying the Python loop",
                          RuntimeWarning, stacklevel=4)
            _library = False
    return _library or None


def _load_flight_library():
    """Build ``flight.c`` unless its build is cached, and load it; raises
    ``OSError`` naming the compiler's error."""
    import ctypes
    import hashlib
    import subprocess

    compiler = _compiler()
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(repr((compiler, _CFLAGS)).encode() + f.read())
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    path = os.path.join(cache, f"flight-{key.hexdigest()[:24]}.so")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        partial = f"{path}.{os.getpid()}.tmp"
        try:
            build = subprocess.run(
                [*compiler, *_CFLAGS, "-shared", "-fPIC", "-o", partial,
                 _SOURCE, "-lm"], capture_output=True, text=True)
            if build.returncode != 0:
                raise OSError(f"{' '.join(compiler)} exited with "
                              f"{build.returncode}: {build.stderr.strip()}")
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    library = ctypes.CDLL(path)
    double_p = ctypes.POINTER(ctypes.c_double)
    long_p = ctypes.POINTER(ctypes.c_long)
    library.tautuav_fly.argtypes = (
        double_p, ctypes.c_int, double_p, double_p, ctypes.c_long,
        ctypes.c_double, double_p, long_p, long_p, double_p)
    library.tautuav_fly.restype = ctypes.c_int
    return library
def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """:func:`tautuav.plant.wrap_angle` elementwise, bit for bit."""
    y = np.fmod(x + math.pi, 2.0 * math.pi)
    return np.where(y <= 0.0, y + 2.0 * math.pi, y) - math.pi


def _finish_log(raw: np.ndarray, cfg: SimConfig,
                switch_times: tuple[float, ...]) -> TrajectoryLog:
    """The log and events of a flight from its raw columns, finished in
    place: one per :attr:`TrajectoryLog.COLUMNS` entry as the step loop
    logged them, with the integrated pitch, the unwrapped pitch command and
    the supervisor index as a float.

    In ideal-attitude mode the pitch is its command and the pitch rate the
    command's backward difference (0 on the first row); both pitch columns
    are wrapped to (-pi, pi].  A convergence window cut off by the horizon
    does not count.
    """
    (t, r, r_dot, alpha, alpha_dot, theta, theta_dot,
     _, _, _, tension, theta_c, _) = raw
    dt = cfg.dt
    if cfg.mode is ScenarioMode.IDEAL_ATTITUDE:
        theta_dot[0] = 0.0
        theta_dot[1:] = (theta_c[1:] - theta_c[:-1]) / dt
        theta[:] = theta_c
    theta[:] = _wrap_angles(theta)
    theta_c[:] = _wrap_angles(theta_c)

    t_min = cfg.tension_min
    crossings = np.flatnonzero((tension[:-1] > t_min) & (t_min >= tension[1:]))
    violation = None
    if crossings.size:
        k = int(crossings[0]) + 1
        before, after = float(tension[k - 1]), float(tension[k])
        frac = (before - t_min) / (before - after)
        violation = round(float(t[k]) - dt + frac * dt, 4)

    ref = cfg.reference
    err = np.sqrt((r - ref.r_bar) ** 2 + r_dot ** 2
                  + (alpha - ref.alpha_bar) ** 2 + alpha_dot ** 2
                  + (theta - ref.theta_bar) ** 2 + theta_dot ** 2)
    inside = np.concatenate(([False], err < cfg.convergence_tol, [False]))
    edges = np.flatnonzero(inside[1:] != inside[:-1])  # run starts, ends
    starts, ends = edges[::2], edges[1::2]
    lasting = starts[ends - starts > int(round(cfg.convergence_dwell / dt))]
    convergence = int(lasting[0]) * dt if lasting.size else None

    return TrajectoryLog(*raw[:12], raw[12].astype(int), events=SimEvents(
        violation, switch_times, convergence))


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
