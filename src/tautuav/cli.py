"""Command-line entry point and the flat configuration / CSV interfaces.

Configuration files are UTF-8 ``key = value`` lines; ``#`` starts a comment
and blank lines are ignored.  Values are SI floats; angle-valued keys also
accept ``pi`` expressions such as ``pi/8``, ``-pi/20`` or ``pi*9/10``.
Missing keys fall back to the defaults of ``PlantParams``, ``GainConfig``
and ``SimConfig`` (the reference experiment's parameter set).  The keys
``k_dr``, ``k_da``, ``k_dt`` and ``hover_tension`` may be given only with
the value that ``GainConfig`` derives from the other gains.

Subcommands::

    simulate        run one scenario, write the trajectory CSV, print the
                    invariant monitor report
    plan            build the waypoint chain and print/write it as CSV
    certify         compute and print the gain certificate report
    attainable-set  sample the admissible pitch band per elevation as CSV
    sweep           run simulate for every config file in a directory

Exit codes: 0 when the requested run completed and every monitored
assertion passed, 2 when it completed but a constraint was violated (or a
certificate failed), 1 for configuration or validation errors and for a
flight whose state turned non-finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, control, equilibria, governor
from .analysis import mission_radial_envelope, radial_envelope
from .control import GainConfig
from .equilibria import Setpoint
from .plant import FullState, PlantParams
from .sim import (MonitorReport, ScenarioMode, SimConfig, SimulationDiverged,
                  TrajectoryLog, monitor_invariants, run_scenario)


class ConfigError(ValueError):
    """Configuration parsing or validation failure; message names the cause."""


_PI_EXPR = re.compile(
    r"^(?P<sign>[+-]?)pi(?:\*(?P<num>[0-9]+(?:\.[0-9]*)?))?"
    r"(?:/(?P<den>[0-9]+(?:\.[0-9]*)?))?$")

# gains GainConfig derives -> their formula; a configured value must match it
_TIED = {"k_dr": "2*sqrt(k_pr) (critically damped radial loop)",
         "k_da": "2*zeta*sqrt(k_pa)",
         "k_dt": "2*zeta*sqrt(k_pt)",
         "hover_tension": "2*eps, or 1 when eps = 0"}

# config key -> (bundle part, attribute); see _parts for the parts.  The keys
# are the dataclass field names; a state key is the FullState field name
# with a '0' suffix, and the sim keys leave out the nested state and setpoint.
_FIELDS: dict[str, tuple[str, str]] = {
    **{f.name: ("plant", f.name) for f in dataclasses.fields(PlantParams)},
    **{f.name: ("gains", f.name) for f in dataclasses.fields(GainConfig)},
    **{k: ("gains", k) for k in _TIED},
    **{f.name + "0": ("initial", f.name) for f in dataclasses.fields(FullState)},
    **{f.name: ("reference", f.name) for f in dataclasses.fields(Setpoint)},
    **{f.name: ("sim", f.name) for f in dataclasses.fields(SimConfig)
       if f.name not in ("initial", "reference")},
}


def _parts(p: PlantParams, g: GainConfig, cfg: SimConfig) -> dict[str, object]:
    return {"plant": p, "gains": g, "sim": cfg, "initial": cfg.initial,
            "reference": cfg.reference}


def parse_value(text: str) -> float:
    """Parse a numeric config value: a float or a ``pi`` expression."""
    token = text.strip()
    m = _PI_EXPR.match(token)
    if m:
        value = math.pi
        if m.group("num"):
            value *= float(m.group("num"))
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0.0:
                raise ConfigError(f"division by zero in value {token!r}")
            value /= den
        return -value if m.group("sign") == "-" else value
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse numeric value {token!r}") from None


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        pairs[key] = value
    return pairs


def parse_config(text: str) -> tuple[PlantParams, GainConfig, SimConfig]:
    """Parse a flat config document into the validated parameter bundle."""
    pairs = _parse_pairs(text)
    defaults = SimConfig()
    mode_text = pairs.pop("mode", defaults.mode.value)
    given: dict[str, dict[str, float]] = {
        part: {} for part, _ in _FIELDS.values()}
    for key, value in pairs.items():
        part, attr = _FIELDS[key]
        given[part][attr] = parse_value(value)

    tied = {k: given["gains"].pop(k) for k in _TIED if k in given["gains"]}
    try:
        plant = PlantParams(**given["plant"])
        gains = GainConfig(**given["gains"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key, value in tied.items():
        if not math.isclose(value, getattr(gains, key), rel_tol=1e-9,
                            abs_tol=1e-12):
            raise ConfigError(f"{key} must be {_TIED[key]}, "
                              f"got {key}={value}")
    try:
        mode = ScenarioMode(mode_text)
    except ValueError:
        valid = ", ".join(m.value for m in ScenarioMode)
        raise ConfigError(f"mode must be one of {valid}, got {mode_text!r}") from None
    try:
        initial = FullState.initial(
            **{**dataclasses.asdict(defaults.initial), **given["initial"]})
        reference = dataclasses.replace(defaults.reference, **given["reference"])
        sim_cfg = SimConfig(**given["sim"], mode=mode, initial=initial,
                            reference=reference)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not equilibria.is_attainable(reference, gains.eps, plant):
        raise ConfigError(
            f"reference ({reference.r_bar}, {reference.alpha_bar}, "
            f"{reference.theta_bar}) is not attainable with eps={gains.eps}")
    return plant, gains, sim_cfg


def emit_config(p: PlantParams, g: GainConfig, cfg: SimConfig) -> str:
    """Render a bundle back to config text; re-parsing yields an identical bundle."""
    parts = _parts(p, g, cfg)
    lines = []
    for key in sorted(_FIELDS):
        part, attr = _FIELDS[key]
        value = getattr(parts[part], attr)
        text = value.value if isinstance(value, ScenarioMode) else repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def emit_log(log: TrajectoryLog, dest: Path) -> None:
    """Write a trajectory log as CSV with events appended as comment lines.

    Each row is formatted by one format string and written as it is made,
    so the table is never held as text in full."""
    row = ",".join(["%.9g"] * (len(TrajectoryLog.COLUMNS) - 1) + ["%d"]) + "\n"
    ev = log.events
    events = []
    if ev.first_tension_violation is not None:
        events.append(f"# tension_violation t={ev.first_tension_violation:.4f}\n")
    events += [f"# switch t={_fmt(ts)}\n" for ts in ev.switch_times]
    if ev.convergence_time is not None:
        events.append(f"# convergence t={_fmt(ev.convergence_time)}\n")
    try:
        with dest.open("w", encoding="utf-8") as f:
            f.write(",".join(TrajectoryLog.COLUMNS) + "\n")
            f.writelines(row % values for values in zip(*log.columns()))
            f.writelines(events)
    except OSError as exc:
        raise OSError(f"cannot write trajectory log to {dest}: {exc}") from exc


def attainable_set_sample(eps: float, grid: int, p: PlantParams) -> np.ndarray:
    """Sample the admissible pitch interval per elevation grid point.

    Returns rows ``(alpha_bar, theta_min, theta_max)``; the vertical row is
    the singleton ``(pi/2, 0, 0)``.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    alphas = np.linspace(0.0, math.pi, grid)
    rows = np.zeros((grid, 3))
    for i, a in enumerate(alphas):
        rows[i, 0] = a
        if a == math.pi / 2.0:
            continue
        lim = equilibria.theta_limit(float(a), eps, p)
        if a < math.pi / 2.0:
            rows[i, 1], rows[i, 2] = lim, math.pi / 2.0 - a
        else:
            rows[i, 1], rows[i, 2] = math.pi / 2.0 - a, lim
    return rows


def _write_or_print(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        print(text)
    else:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")


def _load_config(path: str | None) -> tuple[PlantParams, GainConfig, SimConfig]:
    if path is None:
        return parse_config("")
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _initial_error_norms(p: PlantParams, g: GainConfig,
                         cfg: SimConfig) -> tuple[float, float]:
    state = cfg.initial
    ref = cfg.reference
    theta_c = control.evaluate(state, ref, g, p)[3].theta_c
    x_alpha = math.hypot(state.alpha - ref.alpha_bar, state.alpha_dot)
    x_theta = math.hypot(state.theta - theta_c, state.theta_dot)
    return x_alpha, x_theta


def _certificate(p: PlantParams, g: GainConfig, cfg: SimConfig,
                 estimate: bool):
    env = mission_radial_envelope(
        cfg.initial.r, cfg.initial.r_dot,
        [cfg.initial.r, cfg.reference.r_bar], g)
    if estimate:
        gamma_out = analysis.estimate_gamma_out(cfg.reference, g, p)
        source = "empirical"
    else:
        gamma_out = g.gamma_out
        source = "configured"
    x_alpha0, x_theta0 = _initial_error_norms(p, g, cfg)
    cert = analysis.small_gain_certificate(
        g, gamma_out, x_alpha0, x_theta0, env.r_min,
        gamma_out_source=source)
    return cert, env, (x_alpha0, x_theta0)


def _certificate_report(p: PlantParams, g: GainConfig, cfg: SimConfig,
                        estimate: bool) -> tuple[str, bool]:
    cert, env, (xa0, xt0) = _certificate(p, g, cfg, estimate)
    budget_root = analysis.theta_budget(g.zeta, g.nu)
    budget_ok = g.theta_tilde_max > budget_root
    lambda1_ok = g.lambda1 < cert.lambda1_max
    gin_bound = analysis.gamma_in_bound(g)
    radii = governor.ball_radii(cfg.reference, g, p, cert, env)
    floors = governor.min_radii(g, p, cert, env)
    t_bar = equilibria.equilibrium_tension(cfg.reference, p, g.hover_tension)
    u1_bar = equilibria.equilibrium_inputs(cfg.reference, p,
                                           g.hover_tension).u1
    overall = cert.small_gain_ok and budget_ok and lambda1_ok
    lines = [
        f"reference_t_bar: {t_bar:.6g}",
        f"reference_u1_bar: {u1_bar:.6g}",
        f"gamma_in_l1: {cert.gamma_in:.6g}",
        f"gamma_in_bound: {gin_bound:.6g}",
        f"gamma_in_slack: {gin_bound - cert.gamma_in:.6g}",
        f"gamma_out: {cert.gamma_out:.6g}",
        f"gamma_out_source: {cert.gamma_out_source}",
        f"gain_product: {cert.gamma_in * cert.gamma_out:.6g}",
        f"k_pt: {g.k_pt:.6g}",
        f"k_pt_required: {cert.gamma_out ** 2 / g.zeta ** 2:.6g}",
        f"theta_budget_root: {budget_root:.6g}",
        f"theta_tilde_max: {g.theta_tilde_max:.6g}",
        f"theta_budget_ok: {budget_ok}",
        f"r_restriction: {cert.r_restriction:.6g}",
        f"lambda1: {g.lambda1:.6g}",
        f"lambda1_max: {cert.lambda1_max:.6g}",
        f"lambda1_ok: {lambda1_ok}",
        f"envelope_r_min: {env.r_min:.6g}",
        f"envelope_r_max: {env.r_max:.6g}",
        f"envelope_vel_bound: {env.vel_bound:.6g}",
        f"x_alpha0: {xa0:.6g}",
        f"x_theta0: {xt0:.6g}",
        f"init_ball: {cert.init_ball:.6g}",
        f"init_ok: {cert.init_ok}",
        f"bound_alpha: {cert.bound_alpha:.6g}",
        f"bound_theta: {cert.bound_theta:.6g}",
        f"small_gain_ok: {cert.small_gain_ok}",
        f"reference_dx_alpha: {radii[0]:.6g}",
        f"reference_dx_theta: {radii[1]:.6g}",
        f"floor_delta_alpha: {floors[0]:.6g}",
        f"floor_delta_theta: {floors[1]:.6g}",
        f"certificate: {'pass' if overall else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n", overall


def plan_csv(plan: governor.WaypointPlan) -> str:
    """Render a waypoint plan: index, s, r_bar, alpha_bar, theta_bar, dx_alpha, dx_theta."""
    lines = ["index,s,r_bar,alpha_bar,theta_bar,dx_alpha,dx_theta"]
    for i, wp in enumerate(plan.waypoints):
        lines.append(",".join([str(i), _fmt(wp.s), _fmt(wp.sp.r_bar),
                               _fmt(wp.sp.alpha_bar), _fmt(wp.sp.theta_bar),
                               _fmt(wp.dx_alpha), _fmt(wp.dx_theta)]))
    return "\n".join(lines) + "\n"


def build_plan(p: PlantParams, g: GainConfig, cfg: SimConfig,
               estimate: bool = False) -> tuple[governor.WaypointPlan, object]:
    """Construct the governor plan for a configured run; returns (plan, cert)."""
    start = Setpoint(cfg.initial.r, cfg.initial.alpha, cfg.initial.theta)
    cert, env, _ = _certificate(p, g, cfg, estimate)
    plan = governor.backtrack_plan(start, cfg.reference, g, p, cert, env)
    return plan, cert


def simulate(p: PlantParams, g: GainConfig, cfg: SimConfig
             ) -> tuple[TrajectoryLog, MonitorReport,
                        governor.WaypointPlan | None]:
    """Fly one configured scenario and monitor it; returns (log, report, plan).

    A governed run is planned first and monitored against the envelope of
    every waypoint's radius; the plan is None for the other modes.
    """
    if cfg.mode is ScenarioMode.INNER_WITH_RG:
        plan, _ = build_plan(p, g, cfg)
        env = mission_radial_envelope(
            cfg.initial.r, cfg.initial.r_dot,
            [cfg.initial.r] + [w.sp.r_bar for w in plan.waypoints], g)
    else:
        plan = None
        env = radial_envelope(cfg.initial.r, cfg.initial.r_dot,
                              cfg.reference.r_bar, g)
    log = run_scenario(cfg, g, p, plan=plan)
    report = monitor_invariants(log, g, env, p, tension_min=cfg.tension_min)
    return log, report, plan


def _run_simulate(p: PlantParams, g: GainConfig, cfg: SimConfig,
                  out_dir: str | None) -> int:
    log, report, _ = simulate(p, g, cfg)
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        emit_log(log, path / f"trajectory_{cfg.mode.value}.csv")
    print(report.render())
    return 0 if report.all_passed else 2


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    changes = {}
    if getattr(args, "mode", None):
        changes["mode"] = ScenarioMode(args.mode)
    if getattr(args, "dt", None) is not None:
        changes["dt"] = args.dt
    if getattr(args, "t_final", None) is not None:
        changes["t_final"] = args.t_final
    return dataclasses.replace(cfg, **changes)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (defaults apply when omitted)")
    sub.add_argument("--out", help="output directory")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tautuav",
        description="Tethered-UAV taut-cable simulation and verification toolkit")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim_p = subs.add_parser("simulate", help="run one closed-loop scenario")
    _add_common(sim_p)
    sim_p.add_argument("--mode", choices=[m.value for m in ScenarioMode])
    sim_p.add_argument("--dt", type=float)
    sim_p.add_argument("--t-final", dest="t_final", type=float)

    plan_p = subs.add_parser("plan", help="build and print the waypoint chain")
    _add_common(plan_p)
    plan_p.add_argument("--estimate-gamma-out", action="store_true",
                        help="estimate gamma_out empirically instead of using "
                             "the configured value")
    plan_p.add_argument("--validate-samples", type=int, default=0,
                        help="additionally certify N random path points per segment")
    plan_p.add_argument("--seed", type=int, default=0,
                        help="seed for the --validate-samples points")

    cert_p = subs.add_parser("certify", help="print the gain certificate report")
    _add_common(cert_p)
    cert_p.add_argument("--estimate-gamma-out", action="store_true")

    set_p = subs.add_parser("attainable-set",
                            help="sample the admissible pitch band as CSV")
    _add_common(set_p)
    set_p.add_argument("--eps", type=float, default=None,
                       help="tension margin (defaults to the config value)")
    set_p.add_argument("--grid", type=int, default=181)

    sweep_p = subs.add_parser("sweep", help="run every config file in a directory")
    _add_common(sweep_p)
    sweep_p.add_argument("--mode", choices=[m.value for m in ScenarioMode])
    sweep_p.add_argument("--dt", type=float)
    sweep_p.add_argument("--t-final", dest="t_final", type=float)

    args = parser.parse_args(argv)

    try:
        if args.subcommand == "sweep":
            return _cmd_sweep(args)
        p, g, cfg = _load_config(args.config)
        if args.subcommand == "simulate":
            return _run_simulate(p, g, _apply_overrides(cfg, args), args.out)
        if args.subcommand == "plan":
            return _cmd_plan(p, g, cfg, args)
        if args.subcommand == "certify":
            text, ok = _certificate_report(p, g, cfg, args.estimate_gamma_out)
            _write_or_print(text, args.out, "certificate.txt")
            if args.out is not None:
                print(text, end="")
            return 0 if ok else 2
        if args.subcommand == "attainable-set":
            eps = g.eps if args.eps is None else args.eps
            rows = attainable_set_sample(eps, args.grid, p)
            lines = ["alpha_bar,theta_min,theta_max"]
            lines += [",".join(_fmt(v) for v in row) for row in rows]
            _write_or_print("\n".join(lines) + "\n", args.out,
                            "attainable_set.csv")
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, SimulationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable subcommand")


def _cmd_plan(p: PlantParams, g: GainConfig, cfg: SimConfig, args) -> int:
    plan, _ = build_plan(p, g, cfg, estimate=args.estimate_gamma_out)
    if args.validate_samples > 0:
        rng = np.random.default_rng(args.seed)
        start = Setpoint(cfg.initial.r, cfg.initial.alpha, cfg.initial.theta)
        path = equilibria.interpolate_path(start, cfg.reference, g.eps, p)
        for seg_start, seg_end in path.segments:
            for lam in rng.uniform(0.0, 1.0, size=args.validate_samples):
                sp = equilibria.interpolate_setpoint(seg_start, seg_end,
                                                     float(lam))
                if not equilibria.is_attainable(sp, g.eps, p,
                                                margin=equilibria.PATH_MARGIN):
                    print(f"error: sampled path point {sp} not attainable",
                          file=sys.stderr)
                    return 2
    _write_or_print(plan_csv(plan), args.out, "plan.csv")
    return 0


def _cmd_sweep(args) -> int:
    if args.config is None:
        raise ConfigError("sweep requires --config pointing at a directory")
    cfg_dir = Path(args.config)
    if not cfg_dir.is_dir():
        raise ConfigError(f"sweep --config must be a directory, got {cfg_dir}")
    files = sorted(cfg_dir.glob("*.cfg"))
    if not files:
        raise ConfigError(f"no .cfg files found in {cfg_dir}")
    worst = 0
    for f in files:
        print(f"== {f.name}")
        try:
            p, g, cfg = parse_config(f.read_text(encoding="utf-8"))
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 1
        out = None
        if args.out is not None:
            out = str(Path(args.out) / f.stem)
        code = _run_simulate(p, g, _apply_overrides(cfg, args), out)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
