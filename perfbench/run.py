"""tautuav benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json):
reference-experiments, governed-missions, certify-estimate.  The seed picks
the governed missions; the other two workloads run the fixed configuration
in configs/default.cfg.

The workload runs in a fresh single-threaded interpreter (worker.py).  With
``--trace 0`` the last line of output carries the end-to-end metrics: set-up
time (median of several fresh interpreters), pass wall time, RK4 steps per
second, median operation time and peak resident memory.  With ``--trace 1``
it carries the per-layer metrics of a traced pass.  Every operation's
outputs are checked; the line before the last one, and a file under
.perfbench_out/, hold the full record with the machine and version details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
from worker import OUT_DIR, ROOT

WORKLOADS = ("reference-experiments", "governed-missions", "certify-estimate")
SETUP_PROBES = 7       # fresh interpreters timed for setup_s, besides the worker
# Guard against a hung worker, for the whole run with its set-up probes.  A
# run may take 180 s; this stops the worker, and every process it started,
# before that, so that nothing outlives the run.  At 40 s a timed run takes
# about 45 s and a traced one up to 110 s.
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
              "op_s_p50": "s", "peak_rss_mb": "MB"}  # metric -> unit
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                     "PYTHONHASHSEED": "0"}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a process group of its own; if it does not end in
    time, or this process is stopped, kill the whole group and wait."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    proc = subprocess.Popen([sys.executable, worker.__file__, *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine since boot."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    ticks = [int(f) for f in fields[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def _machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tautuav").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "git_commit": commit, "source_sha256": src.hexdigest()}


def _host_load(load_before: float, ticks_before) -> dict:
    """How busy the machine was around the run: other processes on it, or
    time the hypervisor took from its CPUs, make the figures noisy."""
    ticks_after = _cpu_ticks()
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = ((ticks_after[0] - ticks_before[0])
                 / (ticks_after[1] - ticks_before[1]))
    return {"loadavg_1min_before": load_before,
            "loadavg_1min_after": os.getloadavg()[0],
            "steal_share": steal}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tautuav" / "__init__.py").is_file():
        print(f"perfbench: no tautuav sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + TIME_LIMIT_S
    load_before, ticks_before = os.getloadavg()[0], _cpu_ticks()
    try:
        setups = [] if args.trace else [
            _run_worker(["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        report = _run_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = report["per_layer"]
    else:
        setups.append(report["setup_s"])
        values = dict(report["metrics"], setup_s=statistics.median(setups),
                      peak_rss_mb=report["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops_failed_frac": report["failed"] / report["attempted"],
              "setup_samples_s": setups,
              "machine": _machine(), "host_load": _host_load(
                  load_before, ticks_before), "worker": report,
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
