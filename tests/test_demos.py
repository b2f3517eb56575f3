"""The demos and scripts run to completion on the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script: Path, *args: str, returncode: int = 0) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == returncode, proc.stderr
    return proc


@pytest.mark.parametrize("demo", ["pruning_walkthrough.py", "engine_vs_brute_force.py",
                                  "efficiency_curves.py"])
def test_demo_exits_zero(demo):
    _run(ROOT / "demos" / demo)


def test_fingerprint_prints_one_digest_per_part_and_a_total():
    lines = _run(ROOT / "scripts" / "fingerprint.py").stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["records", "gradients", "parameters",
                                                   "checkpoint", "parses", "total"]
    assert all(re.fullmatch(r"\S+ +[0-9a-f]{40}", line) for line in lines)


def test_fingerprint_expect_fails_on_another_total():
    lines = _run(ROOT / "scripts" / "fingerprint.py", "--expect", "0" * 40,
                 returncode=1).stdout.splitlines()
    assert lines[5].split()[0] == "total"
    assert lines[6] == "MISMATCH: expected total " + "0" * 40
