"""Smoke test: the quick demo scripts run to completion against the package,
and the orbit demo writes the trace it describes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import imclim

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(imclim.__file__).resolve().parents[1]


def run_demo(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "script", ["01_running_example.py", "03_orbit_engine.py", "04_random_screening.py"]
)
def test_demo_exits_zero(script):
    result = run_demo(script)
    assert result.returncode == 0, result.stderr


def test_orbit_demo_writes_the_swap_trace():
    trace = ROOT / "demos" / "swap-orbit.csv"
    trace.unlink(missing_ok=True)
    result = run_demo("03_orbit_engine.py")
    assert result.returncode == 0, result.stderr
    assert trace.read_text().splitlines() == [
        "iteration,a,b,c", "0,0.0,1.0,0.0", "1,0.0,0.0,1.0", "2,0.0,1.0,0.0",
    ]
