"""Demo scripts run end to end as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert "PASS" in proc.stdout


def test_two_factor_weight_demo_runs():
    _run_demo("two_factor_weight.py")


@pytest.mark.parametrize("name", ["sieve_and_summatory.py", "window_variance_sweep.py"])
def test_sieve_demo_runs(name):
    _run_demo(name)


@pytest.mark.parametrize("name", ["mean_value_playground.py", "zeta_contour_walk.py"])
def test_grid_demo_runs(name):
    _run_demo(name)


@pytest.mark.parametrize("name", ["arcs_and_correlations.py", "entropy_walkthrough.py"])
def test_correlation_demo_runs(name):
    _run_demo(name)
