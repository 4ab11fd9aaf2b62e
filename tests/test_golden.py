"""The paper's three experiments against the benchmark's golden summaries.

``perfbench/golden/reference-experiments.json`` pins the reference
experiments as flown by an earlier commit: event times exactly, and the
logged rows sampled every 1000 steps, the tension extremes, the final state
and the governor plan within 1e-12 x max(1, |value|).  A change to the
closed-loop arithmetic that moves a governor switch by one step fails here,
not only in the benchmark.  The file is read, never written.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import tautuav as tu
from tautuav.cli import parse_config, simulate

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads(
    (ROOT / "perfbench" / "golden" / "reference-experiments.json").read_text())
TOL = 1e-12


def assert_close(got, want, what):
    assert len(got) == len(want), what
    for i, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= TOL * max(1.0, abs(b)), f"{what}[{i}]: {a!r} != {b!r}"


@pytest.mark.parametrize("mode", [m.value for m in tu.ScenarioMode])
def test_reference_experiment_matches_golden(mode):
    want = GOLDEN[mode]
    p, g, cfg = parse_config((ROOT / "configs" / "default.cfg").read_text())
    cfg = dataclasses.replace(cfg, mode=tu.ScenarioMode(mode),
                              t_final=(want["rows"] - 1) * cfg.dt)
    log, report, plan = simulate(p, g, cfg)

    ev = log.events
    assert len(log) == want["rows"]
    assert {"first_tension_violation": ev.first_tension_violation,
            "switch_times": list(ev.switch_times),
            "convergence_time": ev.convergence_time} == want["events"]
    assert [[c.name, c.passed, c.first_failure_time]
            for c in report.checks] == want["monitor"]
    cols = log.columns()
    for i, row in want["sample_rows"].items():
        assert_close([float(c[int(i)]) for c in cols], row, f"row {i}")
    assert_close([log.tension.min(), log.tension.max()],
                 [want["tension_min"], want["tension_max"]], "tension extremes")
    assert_close([float(c[-1]) for c in cols[1:7]], want["final_state"],
                 "final state")
    if plan is not None:
        assert_close([v for w in plan.waypoints
                      for v in (w.s, w.sp.r_bar, w.sp.alpha_bar,
                                w.sp.theta_bar, w.dx_alpha, w.dx_theta)],
                     [v for row in want["plan"] for v in row], "plan")
