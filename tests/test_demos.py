"""Smoke test: the quick demo scripts run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import imclim

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(imclim.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["01_running_example.py", "03_orbit_engine.py", "04_random_screening.py"]
)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
