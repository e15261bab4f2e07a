"""Run the benchmark's oracle tests (perfbench/test_oracles.py) with the
tier-1 suite.

They live outside `testpaths`, next to the oracles they check, so they run
here in a subprocess that writes no bytecode and no pytest cache under
perfbench/.
"""

import os
import subprocess
import sys

import splitspin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_oracles_pass():
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    optimize = ["-O"] * sys.flags.optimize
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "pytest", "perfbench/test_oracles.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
