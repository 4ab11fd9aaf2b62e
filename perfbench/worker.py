"""Run one workload in this interpreter and print its measurements as JSON.

run.py starts this script in a fresh single-threaded interpreter:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-only

With ``--trace 0`` it repeats the workload's pass for about ``--seconds``
and reports medians.  With ``--trace 1`` it runs one
untraced pass and one traced pass, checks that both produced bit-identical
outputs, and reports the traced pass's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ROOT / "configs" / "default.cfg"
OUT_DIR = ROOT / ".perfbench_out"
TAIL_SAMPLES = 10   # samples kept above the reported high percentile


def setup() -> tuple[tuple, float]:
    """Import the package from this checkout and parse the workload config."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import tautuav
    from tautuav import cli
    bundle = cli.parse_config(CONFIG.read_text())
    elapsed = time.perf_counter() - t0
    if not Path(tautuav.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported tautuav from {tautuav.__file__}, "
                         f"not from {ROOT / 'src'}")
    return bundle, elapsed


def high_percentile(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ``TAIL_SAMPLES`` samples
    above it."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    pct = int(100 * (n - TAIL_SAMPLES) / n)
    ordered = sorted(samples)
    return {"percentile": pct, "value": ordered[int(n * pct / 100)],
            "samples": n}


def _wall(ops) -> float:
    return sum(op.seconds for op in ops)


def timed_run(pass_fn, ctx, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(pass_fn(ctx))
        last = time.perf_counter() - t0
        # stop at the pass end nearest to the requested duration
        if time.perf_counter() - start + last / 2 > seconds:
            break
    ops = [op for ops in passes for op in ops]
    op_seconds = [op.seconds for op in ops]
    repeats: dict[str, list[float]] = {}   # operation -> its time in each pass
    for op in ops:
        repeats.setdefault(op.name, []).append(op.seconds)
    return {
        "ops": ops,
        "metrics": {
            "wall_s": statistics.median(_wall(p) for p in passes),
            "steps_per_s": statistics.median(
                sum(op.steps for op in p)
                / max(sum(op.sim_seconds for op in p), 1e-9)
                for p in passes),
            # an operation that every pass repeats counts once, at its median
            "op_s_p50": statistics.median(
                statistics.median(t) for t in repeats.values()),
        },
        "detail": {
            "passes": len(passes),
            "pass_wall_s": [_wall(p) for p in passes],
            "op_s_high": high_percentile(op_seconds),
        },
    }


def traced_run(pass_fn, ctx) -> dict:
    from tautuav import cli

    untraced = pass_fn(ctx)
    # set-up's parse is traced on its own: the pass parses the config again
    # inside cli.main, and that time belongs to the pass
    with Tracer() as tracer:
        cli.parse_config(CONFIG.read_text())
    setup_parse = tracer.metrics().get("cli.parse_config.s")
    with Tracer() as tracer:
        traced = pass_fn(ctx)
    for before, after in zip(untraced, traced):
        if after.error is None and before.error is None \
                and after.digest != before.digest:
            after.error = "traced outputs differ from untraced outputs"
    metrics = tracer.metrics()
    metrics.pop("cli.parse_config.s", None)
    if setup_parse is not None:
        metrics["cli.parse_config.s"] = setup_parse
    metrics["trace.overhead_s"] = {"value": _wall(traced) - _wall(untraced),
                                   "unit": "s"}
    return {
        "ops": untraced + traced,
        "per_layer": metrics,
        "detail": {
            "untraced_wall_s": _wall(untraced),
            "traced_wall_s": _wall(traced),
            "governed_tension_min": tracer.tension_minima(),
            "absent": tracer.absent,
            "unobserved": tracer.unobserved,
            "counts": {k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"},
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bundle, setup_s = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import tautuav
    import workloads

    pass_fn = workloads.PASSES[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    ctx = workloads.Context(config_path=CONFIG, bundle=bundle,
                            seed=args.seed, tmp=tmp)
    try:
        if args.trace:
            result = traced_run(pass_fn, ctx)
        else:
            result = timed_run(pass_fn, ctx, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = result.pop("ops")
    failures = [f"{op.name}: {op.error}" for op in ops if op.error]
    result.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "op_seconds": [[op.name, op.seconds] for op in ops],
        "versions": {"numpy": numpy.__version__,
                     "tautuav": tautuav.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
