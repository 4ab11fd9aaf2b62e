"""Planar tethered-UAV toolkit: taut-cable dynamics, cascade thrust-vectoring
control, gain certification, and a backtracking waypoint governor."""

from .analysis import (GainCertificate, RadialEnvelope, gamma_in_bound,
                       gamma_in_l1, lambda1_bound, radial_envelope,
                       restriction_r, small_gain_certificate, theta_budget)
from .control import (ControlDiagnostics, GainConfig, closed_loop,
                      closed_loop_rhs, evaluate, saturate)
from .equilibria import (PathSpec, Setpoint, equilibrium_inputs,
                         equilibrium_tension, interpolate_path, is_attainable,
                         theta_limit)
from .governor import (Waypoint, WaypointPlan, backtrack_plan, ball_radii,
                       governor_step, min_radii, switch_ready)
from .plant import (ControlInputs, FullState, PlantParams, StateDerivative,
                    resolve_taut_coupling, rk4_step, taut_rhs, tension)
from .sim import (MonitorReport, ScenarioMode, SimConfig, TrajectoryLog,
                  monitor_invariants, run_scenario)

__all__ = [
    "ControlDiagnostics", "ControlInputs", "FullState",
    "GainCertificate", "GainConfig", "MonitorReport",
    "PathSpec", "PlantParams", "RadialEnvelope", "ScenarioMode", "Setpoint",
    "SimConfig", "StateDerivative", "TrajectoryLog", "Waypoint",
    "WaypointPlan", "backtrack_plan", "ball_radii", "closed_loop",
    "closed_loop_rhs", "equilibrium_inputs", "equilibrium_tension",
    "evaluate", "gamma_in_bound", "gamma_in_l1", "governor_step",
    "interpolate_path", "is_attainable", "lambda1_bound", "min_radii",
    "monitor_invariants", "radial_envelope", "resolve_taut_coupling",
    "restriction_r", "rk4_step", "run_scenario", "saturate",
    "small_gain_certificate", "switch_ready", "taut_rhs", "tension",
    "theta_budget", "theta_limit",
]

__version__ = "0.1.0"
