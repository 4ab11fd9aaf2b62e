"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload is a list of operations (an experiment, a mission or a
certification).  Each operation's work is timed through the package's
public functions; its outputs are checked afterwards, outside the timed
region.  An operation fails when it raises or when a check fails; a failure
is recorded and the pass goes on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tautuav
from tautuav import analysis, cli, sim

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# enough missions that their host times keep ten samples above a percentile
MISSIONS_PER_PASS = 12
MISSION_T_FINAL = 40.0    # criterion 8's horizon [s]
# Horizon [s] of the untimed flight that confirms a mission still converges
# when it has not by MISSION_T_FINAL.  About one pair in 190 that criterion
# 8's scheme draws converges after 40 s; the latest of the 2,114 pairs drawn
# for seeds 0 to 183 converged at 54.2 s (seed 152, mission 7).
CONFIRM_T_FINAL = 120.0
CONFIRM_TIMEOUT_S = 170.0
REFERENCE_RG_T_FINAL = 30.0
SAMPLE_EVERY = 1000       # logged rows compared with the golden summary
TOL = 1e-12               # |new - golden| <= TOL * max(1, |golden|)
HALF_PI = math.pi / 2.0
# criterion 8's sampling scheme: radius range [m], and the share of the
# admissible pitch band's width kept clear at each end
MISSION_R_RANGE = (0.4, 1.4)
MISSION_INTERIOR = 0.1

WORKLOADS = {
    "reference-experiments":
        "The paper's three experiments end to end as run_experiments.py runs "
        "them: single scalar runs plus 50k CSV rows, so batching that costs "
        "the N=1 path shows here.",
    "governed-missions":
        "Seeded random attainable missions certified, planned, flown with "
        "the governor and monitored: governor supervision and RHS work "
        "dominate here.",
    "certify-estimate":
        "certify --estimate-gamma-out: vectorised analysis work that bypasses "
        "control, sim and governor, so a faster RHS shows no change here.",
}


class CheckFailed(AssertionError):
    """An operation's output differs from what the benchmark expects."""


@dataclass
class OpResult:
    name: str
    seconds: float       # host time of the operation's work
    sim_seconds: float   # part of it spent integrating
    steps: int           # RK4 steps integrated
    digest: str          # hash of every output, for bit-identity checks
    error: str | None    # None when the operation passed its checks


@dataclass
class Context:
    config_path: Path
    bundle: tuple        # (PlantParams, GainConfig, SimConfig)
    seed: int
    tmp: Path            # scratch directory for files the pass writes


# -- shared helpers ---------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _expect_close(got, want, what: str) -> None:
    got, want = np.ravel(got), np.ravel(want)
    _expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    for i, (a, b) in enumerate(zip(got.tolist(), want.tolist())):
        _expect(_close(a, b), f"{what}[{i}]: {a!r} differs from {b!r}")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _log_digest(log) -> str:
    return _digest(*log.columns(), log.events)


def _run_op(name: str, work, check) -> OpResult:
    """Time ``work(timing)``, then check its output with ``check``."""
    timing = {"sim": 0.0, "steps": 0}
    t0 = time.perf_counter()
    try:
        out = work(timing)
    except Exception as exc:  # an operation that raises is a failed operation
        return OpResult(name, time.perf_counter() - t0, timing["sim"],
                        timing["steps"], "", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        digest = check(out)
        error = None
    except Exception as exc:
        digest, error = "", f"{type(exc).__name__}: {exc}"
    return OpResult(name, seconds, timing["sim"], timing["steps"], digest, error)


def _fly(timing: dict, cfg, g, p, plan=None):
    t0 = time.perf_counter()
    log = sim.run_scenario(cfg, g, p, plan=plan)
    timing["sim"] += time.perf_counter() - t0
    timing["steps"] += len(log) - 1
    return log


def _monitor_rows(report) -> list:
    return [[c.name, c.passed, c.first_failure_time] for c in report.checks]


def parse_report(text: str) -> dict[str, str]:
    """``key: value`` lines of a certificate report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def run_certify(ctx: Context, *extra: str) -> tuple[int, str]:
    """Run ``tautuav certify`` through its entry point; returns (code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["certify", "--config", str(ctx.config_path),
                         "--out", str(ctx.tmp), *extra])
    return code, buf.getvalue()


def load_golden(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


# -- reference-experiments --------------------------------------------------

REFERENCE_MODES = ("ideal-attitude", "inner-no-rg", "inner-with-rg")


def run_experiment(ctx: Context, mode_name: str, timing: dict) -> dict:
    """One of the paper's experiments as scripts/run_experiments.py runs it."""
    p, g, base = ctx.bundle
    mode = tautuav.ScenarioMode(mode_name)
    out: dict = {}
    if mode is tautuav.ScenarioMode.INNER_WITH_RG:
        cfg = dataclasses.replace(base, mode=mode, t_final=REFERENCE_RG_T_FINAL)
        plan, _ = cli.build_plan(p, g, cfg)
        env = analysis.mission_radial_envelope(
            cfg.initial.r, cfg.initial.r_dot,
            [w.sp.r_bar for w in plan.waypoints] + [cfg.initial.r], g)
        out["plan"] = plan
    else:
        cfg = dataclasses.replace(base, mode=mode)
        plan = None
        env = analysis.radial_envelope(cfg.initial.r, cfg.initial.r_dot,
                                       cfg.reference.r_bar, g)
    log = _fly(timing, cfg, g, p, plan)
    out["log"] = log
    out["monitor"] = sim.monitor_invariants(log, g, env, p,
                                            tension_min=cfg.tension_min)
    out["csv"] = ctx.tmp / f"trajectory_{mode.value}.csv"
    cli.emit_log(log, out["csv"])
    if plan is not None:
        (ctx.tmp / "plan.csv").write_text(cli.plan_csv(plan))
        out["certify"] = run_certify(ctx)
    return out


def experiment_summary(out: dict, csv_lines: list[str]) -> dict:
    """Everything about one experiment that the golden file pins down."""
    log = out["log"]
    cols = log.columns()
    n = len(log)
    rows = sorted(set(range(0, n, SAMPLE_EVERY)) | {n - 1})
    ev = log.events
    summary = {
        "rows": n,
        "events": {"first_tension_violation": ev.first_tension_violation,
                   "switch_times": list(ev.switch_times),
                   "convergence_time": ev.convergence_time},
        "tension_min": float(log.tension.min()),
        "tension_max": float(log.tension.max()),
        "final_state": [float(c[-1]) for c in cols[1:7]],
        "sample_rows": {str(i): [float(c[i]) for c in cols] for i in rows},
        "monitor": _monitor_rows(out["monitor"]),
        "csv_header": csv_lines[0],
        "csv_lines": len(csv_lines),
        "csv_events": [line for line in csv_lines if line.startswith("#")],
    }
    if "plan" in out:
        summary["plan"] = [[w.s, w.sp.r_bar, w.sp.alpha_bar, w.sp.theta_bar,
                            w.dx_alpha, w.dx_theta]
                           for w in out["plan"].waypoints]
        code, text = out["certify"]
        summary["certify_exit"] = code
        summary["certificate"] = text
    return summary


def check_experiment(summary: dict, want: dict) -> None:
    """Event times, row counts, monitor verdicts and CSV events exactly;
    logged values, tension extremes, final state and plan within TOL."""
    for key in ("rows", "events", "monitor", "csv_header", "csv_lines",
                "csv_events", "certify_exit", "certificate"):
        if key in want:
            _expect(summary.get(key) == want[key],
                    f"{key}: {summary.get(key)!r} != golden {want[key]!r}")
    for key in ("tension_min", "tension_max", "final_state"):
        _expect_close(summary[key], want[key], key)
    _expect(summary["sample_rows"].keys() == want["sample_rows"].keys(),
            "sampled row indices differ from the golden summary")
    for i, row in want["sample_rows"].items():
        _expect_close(summary["sample_rows"][i], row, f"row {i}")
    if "plan" in want:
        _expect_close(summary.get("plan", []), want["plan"], "plan")


def _check_csv(log, lines: list[str]) -> None:
    """The written CSV holds the logged rows at nine significant digits."""
    data = [line for line in lines[1:] if not line.startswith("#")]
    _expect(len(data) == len(log), f"CSV has {len(data)} rows, log {len(log)}")
    cols = log.columns()
    for i in range(0, len(log), SAMPLE_EVERY):
        got = [float(v) for v in data[i].split(",")]
        want = [float(c[i]) for c in cols]
        _expect(np.allclose(got, want, rtol=1e-8, atol=1e-12),
                f"CSV row {i} does not match the log")


def reference_pass(ctx: Context) -> list[OpResult]:
    golden = load_golden("reference-experiments")
    results = []
    for mode_name in REFERENCE_MODES:
        def check(out, mode_name=mode_name):
            lines = out["csv"].read_text().splitlines()
            _check_csv(out["log"], lines)
            summary = experiment_summary(out, lines)
            check_experiment(summary, golden[mode_name])
            return _digest(_log_digest(out["log"]), summary)

        results.append(_run_op(
            mode_name,
            lambda timing, mode_name=mode_name: run_experiment(ctx, mode_name, timing),
            check))
    return results


# -- governed-missions ------------------------------------------------------

def sample_attainable(rng, eps: float, p, half: str):
    """Random setpoint inside the attainable set on one side of the vertical.

    The elevation is drawn on the ``half`` ('low' or 'high') side, and the
    pitch from the admissible band shrunk by ``MISSION_INTERIOR`` of its
    width at both ends; this is the scheme of acceptance criterion 8.
    """
    while True:
        if half == "low":
            a = rng.uniform(0.02, HALF_PI - 0.05)
        else:
            a = rng.uniform(HALF_PI + 0.05, math.pi - 0.02)
        lim = tautuav.theta_limit(a, eps, p)
        lo, hi = (lim, HALF_PI - a) if a < HALF_PI else (HALF_PI - a, lim)
        width = hi - lo
        if width <= 0.0:
            continue
        t = rng.uniform(lo + MISSION_INTERIOR * width,
                        hi - MISSION_INTERIOR * width)
        sp = tautuav.Setpoint(float(rng.uniform(*MISSION_R_RANGE)), float(a),
                              float(t))
        if tautuav.is_attainable(sp, eps, p):
            return sp


def sample_missions(seed: int, count: int, eps: float, p) -> list[tuple]:
    """``count`` (start, final) pairs, each in the same or the opposite
    elevation half with equal odds, drawn as criterion 8 draws them."""
    rng = np.random.default_rng(seed)
    missions = []
    for _ in range(count):
        same_half = bool(rng.uniform() < 0.5)
        half = "low" if rng.uniform() < 0.5 else "high"
        start = sample_attainable(rng, eps, p, half)
        other = half if same_half else ("high" if half == "low" else "low")
        final = sample_attainable(rng, eps, p, other)
        missions.append((start, final))
    return missions


def _mission(ctx: Context, start, final, timing: dict) -> dict:
    p, g, base = ctx.bundle
    cfg = dataclasses.replace(
        base, mode=tautuav.ScenarioMode.INNER_WITH_RG, t_final=MISSION_T_FINAL,
        initial=tautuav.FullState.initial(start.r_bar, start.alpha_bar,
                                          start.theta_bar),
        reference=final)
    plan, _ = cli.build_plan(p, g, cfg)
    env = analysis.mission_radial_envelope(
        cfg.initial.r, cfg.initial.r_dot,
        [cfg.initial.r] + [w.sp.r_bar for w in plan.waypoints], g)
    log = _fly(timing, cfg, g, p, plan)
    report = sim.monitor_invariants(log, g, env, p, tension_min=cfg.tension_min)
    return {"cfg": cfg, "plan": plan, "log": log, "monitor": report,
            "bundle": ctx.bundle}


def _flight_facts(log) -> tuple[float, float | None, bool]:
    """(minimum tension, convergence time, supervisor index never increases)."""
    return (float(log.tension.min()), log.events.convergence_time,
            bool((np.diff(log.waypoint) <= 0).all()))


def _confirm(cfg, plan, bundle) -> tuple[float, float | None, bool]:
    """The _flight_facts of a flight made in a separate interpreter, so that
    its host time and memory stay out of the measured process."""
    src = Path(tautuav.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, __file__], input=pickle.dumps((cfg, plan, bundle)),
        capture_output=True, timeout=CONFIRM_TIMEOUT_S, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    return pickle.loads(proc.stdout)


def check_mission(out: dict) -> str:
    """Criterion 8's properties: valid chain, positive tension, convergence,
    a supervisor index that never increases.

    A mission that has not converged by MISSION_T_FINAL is flown again, to
    CONFIRM_T_FINAL, and the checks apply to that flight, whose first
    MISSION_T_FINAL seconds are the timed flight's.
    """
    plan, log = out["plan"], out["log"]
    tension_min, converged_at, monotone = _flight_facts(log)
    if converged_at is None:
        cfg = dataclasses.replace(out["cfg"], t_final=CONFIRM_T_FINAL)
        tension_min, converged_at, monotone = _confirm(cfg, plan, out["bundle"])
        print(f"perfbench: a mission converged only at {converged_at} s",
              file=sys.stderr)
    for i, (prev, nxt) in enumerate(zip(plan.waypoints, plan.waypoints[1:])):
        _expect(abs(nxt.sp.alpha_bar - prev.sp.alpha_bar) <= prev.dx_alpha + 1e-12
                and abs(nxt.sp.theta_bar - prev.sp.theta_bar)
                <= prev.dx_theta + 1e-12,
                f"waypoint {i + 1} escapes its predecessor's ball")
    _expect(tension_min > 0.0, f"tension dipped to {tension_min!r}")
    _expect(converged_at is not None, "did not converge")
    _expect(monotone, "supervisor index increased")
    return _digest(_log_digest(log), plan, _monitor_rows(out["monitor"]))


def governed_pass(ctx: Context) -> list[OpResult]:
    p, g, _ = ctx.bundle
    results = []
    for i, (start, final) in enumerate(
            sample_missions(ctx.seed, MISSIONS_PER_PASS, g.eps, p)):
        results.append(_run_op(
            f"mission-{i}",
            lambda timing, s=start, f=final: _mission(ctx, s, f, timing),
            check_mission))
    return results


# -- certify-estimate -------------------------------------------------------

# report lines that do not depend on the estimated gamma_out
_GAMMA_OUT_FREE = ("reference_t_bar", "reference_u1_bar", "gamma_in_l1",
                   "gamma_in_bound", "gamma_in_slack", "k_pt",
                   "theta_budget_root", "theta_tilde_max", "theta_budget_ok",
                   "r_restriction", "lambda1", "lambda1_max", "lambda1_ok",
                   "envelope_r_min", "envelope_r_max", "envelope_vel_bound",
                   "x_alpha0", "x_theta0", "init_ok")
# the verdicts, which must not change
_VERDICTS = ("gamma_out_source", "small_gain_ok", "certificate")


def sweep_steps(g) -> int:
    """RK4 steps of estimate_gamma_out's default frequency sweep at the seed
    commit: the fixed unit of work behind certify-estimate's steps_per_s."""
    w_alpha = math.sqrt(g.k_pa)
    freqs = w_alpha * np.logspace(-1.2, 1.2, 25)
    t_settle = 8.0 / (g.zeta * w_alpha)
    t_final = t_settle + 4.0 * 2.0 * math.pi / freqs.min()
    dt = min(2.0 * math.pi / freqs.max() / 80.0, t_settle / 400.0)
    return int(math.ceil(t_final / dt))


def check_certificate(code: int, text: str, written: str, want: dict) -> str:
    _expect(code == want["exit"], f"exit code {code} != {want['exit']}")
    _expect(written == text, "certificate.txt differs from the printed report")
    got, ref = parse_report(text), parse_report(want["report"])
    _expect(got.keys() == ref.keys(), "report keys differ from the golden report")
    for key in _GAMMA_OUT_FREE + _VERDICTS:
        _expect(got[key] == ref[key], f"{key}: {got[key]} != golden {ref[key]}")
    _expect(float(got["gamma_out"]) >= float(ref["gamma_out"]),
            f"gamma_out {got['gamma_out']} below the seed's {ref['gamma_out']}")
    return _digest(text)


def certify_pass(ctx: Context) -> list[OpResult]:
    want = load_golden("certify-estimate")
    steps = sweep_steps(ctx.bundle[1])

    def work(timing):
        t0 = time.perf_counter()
        code, text = run_certify(ctx, "--estimate-gamma-out")
        timing["sim"] += time.perf_counter() - t0
        timing["steps"] += steps
        return code, text

    def check(out):
        written = (ctx.tmp / "certificate.txt").read_text()
        return check_certificate(*out, written, want)

    return [_run_op("certify", work, check)]


PASSES = {
    "reference-experiments": reference_pass,
    "governed-missions": governed_pass,
    "certify-estimate": certify_pass,
}


if __name__ == "__main__":
    # _confirm's flight: a pickled (SimConfig, WaypointPlan, bundle) on stdin,
    # its pickled _flight_facts on stdout
    cfg, plan, (p, g, _) = pickle.load(sys.stdin.buffer)
    log = sim.run_scenario(cfg, g, p, plan=plan)
    sys.stdout.buffer.write(pickle.dumps(_flight_facts(log)))
