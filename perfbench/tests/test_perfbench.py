"""Tests of the benchmark itself: tracer, checks, sampler and entry point.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tautuav  # noqa: E402
from tautuav import cli, sim  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    bundle = cli.parse_config(worker.CONFIG.read_text())
    return workloads.Context(config_path=worker.CONFIG, bundle=bundle, seed=3,
                             tmp=tmp_path_factory.mktemp("perfbench"))


# -- tracer -----------------------------------------------------------------

def test_self_time_excludes_traced_children():
    tr = tracer_mod.Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = tr._span("leaf", leaf)

    def parent():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    tr._span("parent", parent)()
    calls, inclusive, own = tr.stats["parent"]
    leaf_calls, leaf_inclusive, _ = tr.stats["leaf"]
    assert (calls, leaf_calls) == (1, 2)
    assert own == pytest.approx(inclusive - leaf_inclusive, abs=1e-12)
    assert 0.01 <= own < 0.02


def test_tracer_restores_every_patched_name():
    originals = {(m, a): getattr(sys.modules[m], a)
                 for m, a, _ in tracer_mod.SPANS}
    originals.update({(m, a): getattr(sys.modules[m], a)
                      for m, a in tracer_mod.ALLOCS})
    with tracer_mod.Tracer():
        assert sim.closed_loop_rhs is not originals[("tautuav.sim",
                                                     "closed_loop_rhs")]
    for (m, a), obj in originals.items():
        assert getattr(sys.modules[m], a) is obj


def test_missing_symbol_is_reported_absent(monkeypatch, ctx):
    monkeypatch.delattr(sim, "governor_step")
    with tracer_mod.Tracer() as tr:
        out = workloads.run_experiment(ctx, "ideal-attitude",
                                       {"sim": 0.0, "steps": 0})
    metrics = tr.metrics()
    assert "governor.governor_step" in tr.absent
    assert "governor.governor_step.calls" not in metrics
    assert metrics["control.closed_loop_rhs.calls"]["value"] == 4 * 10000 + 1
    assert len(out["log"]) == 10001
    assert not hasattr(sim, "governor_step")


def test_metrics_derived_from_a_missing_or_changed_function_are_absent(
        monkeypatch):
    monkeypatch.delattr(sim, "closed_loop_rhs")
    monkeypatch.setattr(tautuav.governor, "backtrack_plan", lambda: None)
    with tracer_mod.Tracer() as tr:
        tautuav.governor.backtrack_plan()
    metrics = tr.metrics()
    assert tr.unobserved == ["governor.backtrack_plan"]
    assert metrics["governor.backtrack_plan.s"]["value"] > 0.0
    for name in ("governor.backtrack_plan.waypoints",
                 "control.closed_loop_rhs.calls",
                 "control.closed_loop_rhs.stage_tension_dip"):
        assert name not in metrics
    assert metrics["sim.steps"]["value"] == 0


def test_traced_outputs_bit_identical_and_counts_repeat(monkeypatch, ctx):
    monkeypatch.setattr(workloads, "MISSIONS_PER_PASS", 1)
    untraced = workloads.governed_pass(ctx)
    counts = []
    for _ in range(2):
        with tracer_mod.Tracer() as tr:
            traced = workloads.governed_pass(ctx)
        assert [op.error for op in traced] == [None]
        assert [op.digest for op in traced] == [op.digest for op in untraced]
        counts.append({k: v["value"] for k, v in tr.metrics().items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    steps = round(workloads.MISSION_T_FINAL / 1e-3)
    assert counts[0]["sim.steps"] == steps
    assert counts[0]["control.closed_loop_rhs.calls"] == 4 * steps + 1
    minima = tr.tension_minima()
    assert 0.0 < minima["stage"] <= minima["logged"]


# -- checks -----------------------------------------------------------------

def test_experiment_check_tolerance():
    want = workloads.load_golden("reference-experiments")["inner-no-rg"]
    workloads.check_experiment(copy.deepcopy(want), want)
    assert want["events"]["first_tension_violation"] == 0.5246

    near = copy.deepcopy(want)
    near["sample_rows"]["5000"][1] += 1e-13
    workloads.check_experiment(near, want)

    far = copy.deepcopy(want)
    far["sample_rows"]["5000"][1] += 1e-9
    with pytest.raises(workloads.CheckFailed):
        workloads.check_experiment(far, want)

    moved = copy.deepcopy(want)
    moved["events"]["convergence_time"] = 4.317
    with pytest.raises(workloads.CheckFailed):
        workloads.check_experiment(moved, want)


def test_certificate_check():
    want = workloads.load_golden("certify-estimate")
    text = want["report"]
    workloads.check_certificate(want["exit"], text, text, want)

    def edited(key, value):
        lines = [f"{key}: {value}" if line.startswith(f"{key}: ") else line
                 for line in text.splitlines()]
        return "\n".join(lines) + "\n"

    higher = edited("gamma_out", "2.9")
    workloads.check_certificate(0, higher, higher, want)
    for key, value in (("gamma_out", "2.72622"), ("certificate", "FAIL"),
                       ("gamma_in_l1", "0.0558135")):
        bad = edited(key, value)
        with pytest.raises(workloads.CheckFailed):
            workloads.check_certificate(0, bad, bad, want)


def test_failed_operation_is_recorded_not_raised():
    def boom(timing):
        raise ValueError("no plan")

    op = workloads._run_op("x", boom, lambda out: "")
    assert op.error == "ValueError: no plan"

    def reject(out):
        raise workloads.CheckFailed("bad tension")

    op = workloads._run_op("y", lambda timing: 1, reject)
    assert op.error == "CheckFailed: bad tension" and op.seconds >= 0.0


def test_parse_config_metric_counts_only_the_set_up_parse(monkeypatch, ctx):
    monkeypatch.setattr(cli, "parse_config", lambda text: time.sleep(0.05))

    def three_parses(ctx):
        for _ in range(3):
            cli.parse_config("")
        return []

    metrics = worker.traced_run(three_parses, ctx)["per_layer"]
    assert 0.05 <= metrics["cli.parse_config.s"]["value"] < 0.1


def test_high_percentile_keeps_ten_samples_above():
    assert worker.high_percentile([1.0] * 10) is None
    got = worker.high_percentile([float(i) for i in range(12)])
    assert (got["percentile"], got["samples"]) == (16, 12)
    got = worker.high_percentile([float(i) for i in range(110)])
    assert got["percentile"] == 90
    assert sum(1 for i in range(110) if i > got["value"]) >= 10


# -- mission sampler --------------------------------------------------------

def test_missions_are_seeded_and_attainable():
    p, g, _ = cli.parse_config("")
    first = workloads.sample_missions(7, 30, g.eps, p)
    assert first == workloads.sample_missions(7, 30, g.eps, p)
    assert first != workloads.sample_missions(8, 30, g.eps, p)
    for start, final in first:
        for sp in (start, final):
            assert tautuav.is_attainable(sp, g.eps, p)
            assert 0.4 <= sp.r_bar <= 1.4
            lim = tautuav.theta_limit(sp.alpha_bar, g.eps, p)
            lo, hi = sorted((lim, math.pi / 2.0 - sp.alpha_bar))
            width = hi - lo
            assert lo + 0.1 * width <= sp.theta_bar <= hi - 0.1 * width


def test_mission_converging_after_the_horizon_is_confirmed(monkeypatch, ctx):
    p, g, _ = ctx.bundle
    start, final = workloads.sample_missions(28, 1, g.eps, p)[0]
    out = workloads._mission(ctx, start, final, {"sim": 0.0, "steps": 0})
    assert out["log"].events.convergence_time is None
    monkeypatch.setattr(workloads, "CONFIRM_T_FINAL", 45.0)
    with pytest.raises(workloads.CheckFailed, match="did not converge"):
        workloads.check_mission(out)
    monkeypatch.undo()
    workloads.check_mission(out)


# -- entry point ------------------------------------------------------------

def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "certify-estimate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_worker_past_its_deadline_is_stopped_with_its_group(monkeypatch):
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(run.subprocess, "Popen", recording_popen)
    with pytest.raises(subprocess.TimeoutExpired):
        run._run_worker(["--workload", "governed-missions", "--seed", "0",
                         "--seconds", "5", "--trace", "0"], time.monotonic())
    assert started[0].returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):
        os.killpg(started[0].pid, 0)


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(
        {k: unit for k, (_, _, unit) in tracer_mod.PER_LAYER.items()},
        **{"trace.overhead_s": "s"})
