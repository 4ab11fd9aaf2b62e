"""Per-layer tracing for the benchmark's traced run.

The tracer wraps package functions where the package looks them up, not
where they are defined: ``sim`` binds ``closed_loop_rhs`` and
``governor_step`` with ``from ... import``, so those wrappers go on
``tautuav.sim``; ``control`` reaches ``equilibrium_tension`` through the
``equilibria`` module, so that wrapper goes on ``tautuav.equilibria``.  A
name that a later version of the package no longer has is recorded as
absent and its metrics are left out instead of failing the run.

Spans are aggregated in memory per function: call count, inclusive time,
and self time (inclusive time minus the time of the traced calls made
inside it).  The wrappers' own cost is part of the tracing overhead that
the benchmark reports as traced minus untraced pass time.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from pathlib import Path

# (module the name is looked up in, attribute, span name)
SPANS = (
    ("tautuav.cli", "parse_config", "cli.parse_config"),
    ("tautuav.cli", "emit_log", "cli.emit_log"),
    ("tautuav.sim", "run_scenario", "sim.run_scenario"),
    ("tautuav.sim", "monitor_invariants", "sim.monitor_invariants"),
    ("tautuav.sim", "closed_loop_rhs", "control.closed_loop_rhs"),
    ("tautuav.sim", "governor_step", "governor.governor_step"),
    ("tautuav.control", "outer_loop", "control.outer_loop"),
    ("tautuav.equilibria", "equilibrium_tension",
     "equilibria.equilibrium_tension"),
    ("tautuav.governor", "switch_ready", "governor.switch_ready"),
    ("tautuav.governor", "backtrack_plan", "governor.backtrack_plan"),
    ("tautuav.analysis", "gamma_in_l1", "analysis.gamma_in_l1"),
    ("tautuav.analysis", "small_gain_certificate",
     "analysis.small_gain_certificate"),
    ("tautuav.analysis", "estimate_gamma_out", "analysis.estimate_gamma_out"),
)

# plant dataclasses built at the sim and control call sites
ALLOCS = (
    ("tautuav.sim", "FullState"),
    ("tautuav.control", "StateDerivative"),
    ("tautuav.control", "ControlInputs"),
    ("tautuav.control", "ControlDiagnostics"),
)

# per-layer metric -> (span or counter it reads, statistic, unit)
PER_LAYER = {
    "control.closed_loop_rhs.calls": ("control.closed_loop_rhs", "calls", "count"),
    "control.closed_loop_rhs.self_s": ("control.closed_loop_rhs", "self_s", "s"),
    "control.closed_loop_rhs.stage_tension_dip": ("sim.run_scenario", "tension_dip", "N"),
    "control.outer_loop.calls": ("control.outer_loop", "calls", "count"),
    "control.outer_loop.s": ("control.outer_loop", "s", "s"),
    "equilibria.equilibrium_tension.calls": ("equilibria.equilibrium_tension", "calls", "count"),
    "plant.dataclass_allocs": ("plant", "allocs", "count"),
    "governor.governor_step.calls": ("governor.governor_step", "calls", "count"),
    "governor.governor_step.self_s": ("governor.governor_step", "self_s", "s"),
    "governor.switch_ready.calls": ("governor.switch_ready", "calls", "count"),
    "governor.switches": ("sim.run_scenario", "switches", "count"),
    "governor.supervised_steps": ("sim.run_scenario", "supervised_steps", "count"),
    "governor.switch_yield": ("sim.run_scenario", "switch_yield", "ratio"),
    "governor.backtrack_plan.s": ("governor.backtrack_plan", "s", "s"),
    "governor.backtrack_plan.waypoints": ("governor.backtrack_plan", "waypoints", "count"),
    "analysis.gamma_in_l1.calls": ("analysis.gamma_in_l1", "calls", "count"),
    "analysis.gamma_in_l1.s": ("analysis.gamma_in_l1", "s", "s"),
    "analysis.small_gain_certificate.calls": ("analysis.small_gain_certificate", "calls", "count"),
    "analysis.estimate_gamma_out.s": ("analysis.estimate_gamma_out", "s", "s"),
    "cli.parse_config.s": ("cli.parse_config", "s", "s"),
    "cli.emit_log.s": ("cli.emit_log", "s", "s"),
    "cli.emit_log.rows": ("cli.emit_log", "rows", "count"),
    "cli.emit_log.bytes": ("cli.emit_log", "bytes", "count"),
    "sim.run_scenario.s": ("sim.run_scenario", "s", "s"),
    "sim.run_scenario.self_s": ("sim.run_scenario", "self_s", "s"),
    "sim.steps": ("sim.run_scenario", "steps", "count"),
    "sim.monitor_invariants.s": ("sim.monitor_invariants", "s", "s"),
}


# derived statistics -> spans whose return values they are computed from
DERIVED_FROM = {
    "tension_dip": ("control.closed_loop_rhs", "sim.run_scenario"),
    "steps": ("sim.run_scenario",),
    "switches": ("sim.run_scenario",),
    "supervised_steps": ("sim.run_scenario",),
    "switch_yield": ("sim.run_scenario", "governor.switch_ready"),
    "waypoints": ("governor.backtrack_plan",),
    "rows": ("cli.emit_log",),
    "bytes": ("cli.emit_log",),
}


class _CountingConstructor:
    """Stands in for a class at one lookup site and counts the instances it
    builds; the instances themselves are of the real class."""

    def __init__(self, cls, tracer: "Tracer") -> None:
        self._cls = cls
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        self._tracer.allocs += 1
        return self._cls(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class Tracer:
    """Context manager that installs the wrappers and collects their stats."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span -> [calls, inclusive, self]
        self.extra: dict[str, float] = {"waypoints": 0, "rows": 0,
                                         "bytes": 0, "steps": 0,
                                         "switches": 0, "supervised_steps": 0}
        self.allocs = 0
        self.absent: list[str] = []        # names the package no longer has
        self.unobserved: list[str] = []    # spans whose return value changed shape
        self.stage_tension_min = math.inf   # governed flights, all RK4 stages
        self.logged_tension_min = math.inf  # governed flights, logged rows
        self._flight_stage_min = math.inf
        self._stack = [[0.0]]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        observers = {
            "control.closed_loop_rhs": self._observe_rhs,
            "sim.run_scenario": self._observe_flight,
            "governor.backtrack_plan": self._observe_plan,
            "cli.emit_log": self._observe_emit,
        }
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._patch(module, attr, self._span(name, fn, observers.get(name)))
        for module_name, attr in ALLOCS:
            module = importlib.import_module(module_name)
            cls = getattr(module, attr, None)
            if cls is None:
                self.absent.append(f"plant.{attr}")
                continue
            self._patch(module, attr, _CountingConstructor(cls, self))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _span(self, name: str, fn, observe=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal observe
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[0]
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function's interface changed: the metrics derived
                    # from its return value are reported absent
                    self.unobserved.append(name)
                    observe = None
            return result

        return wrapper

    # -- observers on return values ---------------------------------------
    def _observe_rhs(self, args, result) -> None:
        tension = result[2]
        if tension < self._flight_stage_min:
            self._flight_stage_min = tension

    def _observe_flight(self, args, log) -> None:
        stage_min, self._flight_stage_min = self._flight_stage_min, math.inf
        self.extra["steps"] += len(log) - 1
        self.extra["switches"] += len(log.events.switch_times)
        # steps flown toward a waypoint short of the final setpoint (index
        # 0); the index is -1 in ungoverned runs
        self.extra["supervised_steps"] += int((log.waypoint[:-1] > 0).sum())
        mode = getattr(getattr(args[0], "mode", None), "value", None)
        if mode == "inner-with-rg":
            self.stage_tension_min = min(self.stage_tension_min, stage_min)
            self.logged_tension_min = min(self.logged_tension_min,
                                          float(log.tension.min()))

    def _observe_plan(self, args, plan) -> None:
        self.extra["waypoints"] += len(plan.waypoints)

    def _observe_emit(self, args, result) -> None:
        self.extra["rows"] += len(args[0])
        self.extra["bytes"] += Path(args[1]).stat().st_size

    # -- results ----------------------------------------------------------
    def _stat(self, source: str, stat: str):
        if source == "plant":
            return None if any(a.startswith("plant.") for a in self.absent) \
                else self.allocs
        if stat in DERIVED_FROM:
            missing = self.absent + self.unobserved
            if any(span in missing for span in DERIVED_FROM[stat]):
                return None
        elif source in self.absent:
            return None
        calls, inclusive, own = self.stats[source]
        if stat == "calls":
            return calls
        if stat == "s":
            return inclusive
        if stat == "self_s":
            return own
        if stat == "switch_yield":
            ready = self.stats["governor.switch_ready"][0]
            return self.extra["switches"] / ready if ready else 0.0
        if stat == "tension_dip":
            # logged minimum minus the minimum over every RK4 stage of the
            # governed flights; 0 when the pass flew none
            if math.isinf(self.stage_tension_min):
                return 0.0
            return self.logged_tension_min - self.stage_tension_min
        return self.extra[stat]

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics by name; absent names are left out."""
        out = {}
        for metric, (source, stat, unit) in PER_LAYER.items():
            value = self._stat(source, stat)
            if value is not None:
                out[metric] = {"value": value, "unit": unit}
        return out

    def tension_minima(self) -> dict[str, float | None]:
        finite = not math.isinf(self.stage_tension_min)
        return {"stage": self.stage_tension_min if finite else None,
                "logged": self.logged_tension_min if finite else None}
