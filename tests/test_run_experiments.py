"""Smoke test of scripts/run_experiments.py, run as a user runs it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"


def test_writes_outputs_and_reports_the_no_rg_violation(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("trajectory_ideal-attitude.csv", "trajectory_inner-no-rg.csv",
                 "trajectory_inner-with-rg.csv", "plan.csv", "certificate.txt"):
        assert (tmp_path / name).is_file(), name
    blocks = {block.split(" ", 1)[0]: block
              for block in done.stdout.split("== ")[1:]}
    assert "violation = 0.5246," in blocks["inner-no-rg"]
    assert "violation = None," in blocks["inner-with-rg"]
