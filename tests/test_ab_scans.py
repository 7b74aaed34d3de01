"""The in-process A/B scan timer runs end to end on one source tree
against itself, with few rounds: both copies import under names of their
own, find the same counterexamples and get a row per op."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_scans_runs_one_tree_against_itself():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ab_scans.py"), str(ROOT), str(ROOT / "src"),
         "--rounds", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for op in ("scan_sampled", "scan_exhaustive", "pass"):
        rows = [line for line in proc.stdout.splitlines() if line.startswith(op)]
        assert [row.split()[1] for row in rows] == ["parent", "change"], proc.stdout
