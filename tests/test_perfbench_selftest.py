"""The benchmark's own self-test (`python -m pytest perfbench -q`) passes.

perfbench reads the package's names (report fields, node-program methods),
so a renamed or removed one fails here rather than in a benchmark run. It
runs in a subprocess because `perfbench/run.py` imports the package afresh.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
