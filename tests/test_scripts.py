"""Smoke tests for the scripts under scripts/: each runs to exit 0 and
reports no disagreement with the classification formulas."""

import os
import subprocess
import sys

import pytest

import splitspin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/idempotent_census.py", "--primes", "5,7", "--dims", "1"],
        ["scripts/axet_sweep.py", "--p", "7"],
    ],
    ids=["idempotent_census", "axet_sweep"],
)
def test_script_runs_clean(argv):
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "MISMATCH" not in proc.stdout
