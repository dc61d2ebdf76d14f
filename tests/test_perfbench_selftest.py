"""The benchmark's own self-tests, run as part of the test suite.

They check that every entry point the tracer wraps still exists and that
each workload answers correctly on its smallest inputs, so a change that
renames or drops one fails here as well as in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
