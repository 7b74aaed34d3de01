"""The kernel timing script runs end to end on tiny inputs.

``perfbench/run.py`` imports ``benchmarks/bench_kernels.py`` for its
kernel micro timings, and the script imports kernel names from the
package, so a renamed kernel would otherwise only surface when the
benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernels_runs_on_tiny_inputs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--sizes", "3", "--length", "8", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "through_table" in proc.stdout
