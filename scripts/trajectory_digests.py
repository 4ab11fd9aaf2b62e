#!/usr/bin/env python3
"""Print SHA-256 digests of the trajectories a checkout flies.

Covers the three reference experiments (as scripts/run_experiments.py runs
them, from configs/default.cfg) and the governed missions the benchmark
draws for seeds 0 and 1.  Each line names one flight and gives four
digests: every logged column, the detected events, the waypoint plan and
the invariant monitor's rows.  A last line digests, without flying them,
the waypoint plans and gain certificates of the governed reference run and
of the missions drawn for seeds 0-59, so that a change to plan
construction is checked on far more plans than are flown.  The very last
line gives ``repr`` of the default sweep of ``estimate_gamma_out`` and a
digest of the ``certify --estimate-gamma-out`` report, both on
configs/default.cfg; it changes only with a change to the estimator that
says so and gives the new value, as the banded sweep with the chain-rule
pitch rate did (2.7262258006399236 to 2.7264976019589713).  Run it in two
checkouts and ``diff`` the outputs to show that a change leaves every
trajectory and plan bit-identical:

    python3 scripts/trajectory_digests.py > after.txt

Every flight is flown twice, on the compiled flight loop (as
``tautuav simulate`` flies it) and on the Python loop, and the script
exits 1, naming the flight on stderr, if their columns or events differ;
the printed lines are those of the compiled loop.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np

import tautuav as tu
from perfbench.workloads import (MISSION_T_FINAL, MISSIONS_PER_PASS,
                                 REFERENCE_RG_T_FINAL, sample_missions)
from tautuav import analysis, cli, sim
from tautuav.cli import build_plan, parse_config, simulate

SEEDS = (0, 1)
PLAN_SEEDS = range(60)


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def line(name: str, p, g, cfg) -> str:
    """The flight's digest line; a flight whose Python loop gives other
    columns or events is also named in MISMATCHES."""
    log, report, plan = simulate(p, g, cfg)
    python = sim._run(cfg, g, p, plan, compiled=False)
    columns, events = sha(*log.columns()), sha(log.events)
    if (sha(*python.columns()), sha(python.events)) != (columns, events):
        MISMATCHES.append(name)
        print(f"{name}: the compiled and Python loops differ", file=sys.stderr)
    monitor = [[c.name, c.passed, c.first_failure_time] for c in report.checks]
    return (f"{name} columns={columns} events={events} "
            f"plan={sha(plan)} monitor={sha(monitor)}")


MISMATCHES: list[str] = []


def missions(p, g, base, seeds):
    """(name, config) of each governed mission the benchmark draws."""
    for seed in seeds:
        for i, (start, final) in enumerate(
                sample_missions(seed, MISSIONS_PER_PASS, g.eps, p)):
            yield f"seed-{seed}-mission-{i}", dataclasses.replace(
                base, mode=tu.ScenarioMode.INNER_WITH_RG,
                t_final=MISSION_T_FINAL,
                initial=tu.FullState.initial(start.r_bar, start.alpha_bar,
                                             start.theta_bar),
                reference=final)


def main() -> int:
    config = ROOT / "configs" / "default.cfg"
    p, g, base = parse_config(config.read_text())
    for mode in tu.ScenarioMode:
        cfg = dataclasses.replace(base, mode=mode)
        if mode is tu.ScenarioMode.INNER_WITH_RG:
            cfg = dataclasses.replace(cfg, t_final=REFERENCE_RG_T_FINAL)
        print(line(mode.value, p, g, cfg), flush=True)
    for name, cfg in missions(p, g, base, SEEDS):
        print(line(name, p, g, cfg), flush=True)
    cfgs = [base] + [cfg for _, cfg in missions(p, g, base, PLAN_SEEDS)]
    print(f"plans reference+seeds-0-59 count={len(cfgs)} "
          f"plans+certificates={sha(*(build_plan(p, g, c) for c in cfgs))}",
          flush=True)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(["certify", "--config", str(config),
                         "--estimate-gamma-out"])
    print(f"gamma_out estimate="
          f"{analysis.estimate_gamma_out(base.reference, g, p)!r} "
          f"certify-estimate exit={code} report={sha(report.getvalue())}",
          flush=True)
    return 1 if MISMATCHES else 0


if __name__ == "__main__":
    sys.exit(main())
