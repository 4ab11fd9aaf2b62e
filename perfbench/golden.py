"""Capture the golden summaries that the benchmark checks outputs against.

    python3 perfbench/golden.py

Run it at the commit whose outputs are the reference; it rewrites
perfbench/golden/reference-experiments.json and certify-estimate.json.
A change that claims a speed-up must leave these files alone.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import worker


def main() -> int:
    bundle, _ = worker.setup()
    import workloads

    worker.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=worker.OUT_DIR))
    ctx = workloads.Context(config_path=worker.CONFIG, bundle=bundle, seed=0,
                            tmp=tmp)
    try:
        reference = {}
        for mode_name in workloads.REFERENCE_MODES:
            out = workloads.run_experiment(ctx, mode_name,
                                           {"sim": 0.0, "steps": 0})
            reference[mode_name] = workloads.experiment_summary(
                out, out["csv"].read_text().splitlines())
        t0 = time.perf_counter()
        code, text = workloads.run_certify(ctx, "--estimate-gamma-out")
        print(f"certify --estimate-gamma-out: {time.perf_counter() - t0:.1f} s")
        certify = {"exit": code, "report": text}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in (("reference-experiments", reference),
                       ("certify-estimate", certify)):
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
