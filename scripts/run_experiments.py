#!/usr/bin/env python3
"""Reproduce the three closed-loop experiments and dump plot-ready CSVs.

Runs the same mission (taut start at (r, alpha, theta) = (1, pi/8, pi/10),
reference (0.5, 9pi/10, -pi/20)) under three loops:

  1. ideal attitude   -- pitch equals its command instantly; the tension
                         stays at its equilibrium-plus-centrifugal value and
                         the constraint is never violated;
  2. inner, no governor -- the real attitude loop tracking the far
                         reference directly; the transient pitch error
                         slackens the cable (detected and logged);
  3. inner, with governor -- the backtracking waypoint chain keeps the
                         transients small enough that the cable stays taut
                         and the peak tension drops sharply.

Outputs one trajectory CSV per run plus the waypoint plan and the gain
certificate, and prints the invariant monitor verdicts.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tautuav as tu
from tautuav.cli import (_certificate_report, emit_log, parse_config, plan_csv,
                         simulate)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="output directory")
    ap.add_argument("--config", default=None, help="config file (defaults: reference experiment)")
    ap.add_argument("--t-final-rg", type=float, default=30.0,
                    help="horizon for the governed run")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = Path(args.config).read_text() if args.config else ""
    p, g, base_cfg = parse_config(text)

    for mode in tu.ScenarioMode:
        cfg = dataclasses.replace(base_cfg, mode=mode)
        if mode is tu.ScenarioMode.INNER_WITH_RG:
            cfg = dataclasses.replace(cfg, t_final=args.t_final_rg)
        t0 = time.perf_counter()
        log, report, plan = simulate(p, g, cfg)
        elapsed = time.perf_counter() - t0
        dest = out / f"trajectory_{mode.value}.csv"
        emit_log(log, dest)
        print(f"== {mode.value} ({elapsed:.2f} s wall, {len(log)} rows)")
        print(f"   min T = {log.tension.min():.3f} N, "
              f"max T = {log.tension.max():.1f} N, "
              f"violation = {log.events.first_tension_violation}, "
              f"converged = {log.events.convergence_time}")
        for line in report.render().splitlines():
            print(f"   {line}")
        print(f"   -> {dest}")
        if plan is not None:
            (out / "plan.csv").write_text(plan_csv(plan))
            report_text, _ = _certificate_report(p, g, cfg, estimate=False)
            (out / "certificate.txt").write_text(report_text)
            print(f"plan: {len(plan.waypoints)} waypoints -> {out / 'plan.csv'}")
            print(f"certificate -> {out / 'certificate.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
