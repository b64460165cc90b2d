"""The benchmark's self-test, so that a rename of anything it calls fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # tiny sizes of every workload, traced and untraced; writes only under
    # perfbench/out/, which is ignored by git
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "# self-test passed" in proc.stdout
