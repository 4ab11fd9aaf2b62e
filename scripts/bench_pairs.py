#!/usr/bin/env python3
"""A/B benchmark: this checkout against a base commit, in interleaved pairs.

    python3 scripts/bench_pairs.py --out FILE [--base HEAD] [--base-dir DIR]

Checks the base commit out into a temporary ``git worktree`` (or uses the
checkout given with ``--base-dir``) and runs ``perfbench/run.py --trace 0``
in both trees, one run at a time, for every workload and the run length
that ``BENCHMARK.json`` declares.  Pair ``i`` of the 10 runs every workload
with seed ``1000 + i`` on both sides; even pairs run the base first, odd
pairs the change first, so that a drift of the host's speed does not favour
one side.  Ten pairs are the fewest that a claimed gain is judged on.
Before the change is committed its base is ``HEAD``; afterwards pass
``--base HEAD~1``.

The JSON written to ``--out`` holds, per workload and end-to-end metric, the
median and quartiles of each side, the change/base ratio of the medians, the
share of pairs the change won, whether the medians differ by more than the
base's interquartile range (IQR), and a verdict against the metric's bound
in ``BENCHMARK.json``, checked in this order:

* ``gain``: the change won at least 9 of 10 pairs and the medians differ by
  more than the base's IQR;
* ``worse``: the change's median is worse than the base's by more than the
  bound, relative to the base's median;
* ``unresolved``: either side's IQR exceeds the bound relative to its
  median, and not every run of the change beats every run of the base;
* ``no worse``: otherwise.

Beside them it holds the core count, the Python version, the base commit,
and per run the correctness and failed operations that perfbench reported.
The verdict of every pairing is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SEED = 1000  # seed of pair 0


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(base: list[float], change: list[float], better: str,
             bound: float) -> dict:
    def stats(values):
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return q1, q2, q3

    b1, b2, b3 = stats(base)
    c1, c2, c3 = stats(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    gap_exceeds_iqr = sign * (c2 - b2) > b3 - b1
    if wins >= 0.9 * len(base) and gap_exceeds_iqr:
        verdict = "gain"
    elif sign * (c2 - b2) < -bound * b2:
        verdict = "worse"
    elif (max((b3 - b1) / b2, (c3 - c1) / c2) > bound
          and not all(sign * (c - b) > 0.0 for b in base for c in change)):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"better": better, "bound": bound, "verdict": verdict,
            "base_median": b2, "base_q1": b1, "base_q3": b3,
            "change_median": c2, "change_q1": c1, "change_q3": c3,
            "ratio": c2 / b2, "win_share": wins / len(base),
            "gap_exceeds_base_iqr": gap_exceeds_iqr,
            "base": base, "change": change}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    ap.add_argument("--base-dir", type=Path, default=None,
                    help="an existing checkout of the base, instead of a "
                         "temporary worktree")
    ap.add_argument("--out", type=Path, required=True,
                    help="the JSON record to write")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        if args.base_dir is None:
            base_dir = Path(tmp) / "base"
            _git("worktree", "add", "--detach", str(base_dir), args.base)
        else:
            base_dir = args.base_dir.resolve()
        try:
            base_commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=base_dir, check=True,
                capture_output=True, text=True).stdout.strip()
            runs = {w: {"base": [], "change": []} for w in names}
            for i in range(PAIRS):
                seed = SEED + i
                order = (("base", base_dir), ("change", ROOT))
                if i % 2:
                    order = order[::-1]
                for workload in names:
                    for side, tree in order:
                        t0 = time.monotonic()
                        result = _run(tree, workload, seed, seconds)
                        runs[workload][side].append(result)
                        print(f"pair {i} {workload} {side}: correct="
                              f"{result['correct']} "
                              f"({time.monotonic() - t0:.0f} s)", flush=True)
        finally:
            if args.base_dir is None:
                _git("worktree", "remove", "--force", str(base_dir))

    workloads = {}
    for workload, sides in runs.items():
        entry = {side: [{"correct": r["correct"], "failed": r.get("failed"),
                         "attempted": r.get("attempted")} for r in results]
                 for side, results in sides.items()}
        if all(r["correct"] for rs in sides.values() for r in rs):
            entry["metrics"] = {
                name: _summary(
                    [r["metrics"][name]["value"] for r in sides["base"]],
                    [r["metrics"][name]["value"] for r in sides["change"]],
                    *rules[name])
                for name in rules}
        workloads[workload] = entry
    record = {"base_commit": base_commit, "pairs": PAIRS,
              "seconds": seconds, "seeds": [SEED, SEED + PAIRS - 1],
              "cores": os.cpu_count(),
              "cores_usable": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry.get("metrics", {}).items():
            print(f"{workload} {name}: {m['base_median']:.4g} -> "
                  f"{m['change_median']:.4g} (x{m['ratio']:.3f}, "
                  f"wins {m['win_share']:.0%}): {m['verdict']}")
    ok = all("metrics" in e for e in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
