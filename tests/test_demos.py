"""The demos run to completion on the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["pruning_walkthrough.py", "engine_vs_brute_force.py",
                                  "efficiency_curves.py"])
def test_demo_exits_zero(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
