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


WALKTHROUGH = """\
top-down split order (boundary, span):
  boundary 3 inside span (1, 6)
  boundary 4 inside span (4, 6)
  boundary 2 inside span (1, 3)
  boundary 5 inside span (5, 6)
  boundary 1 inside span (1, 2)

merge rounds (grouped by subtree height): [[1, 5], [2, 4], [3]]
flat merge order: [1, 5, 2, 4, 3]

kept cells and their admissible splits:
  span (1, 2): splits [1]
  span (1, 3): splits [2]
  span (1, 4): splits [2, 3]
  span (1, 6): splits [3]
  span (2, 3): splits [2]
  span (3, 4): splits [3]
  span (3, 6): splits [3, 4]
  span (4, 5): splits [4]
  span (4, 6): splits [4]
  span (5, 6): splits [5]

encoding batches (leaves first, root last):
  batch 0: [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]
  batch 1: [(1, 2), (5, 6)]
  batch 2: [(1, 3), (4, 6)]
  batch 3: [(1, 6)]

cell count 11 (bound 2*m*n = 24); 2 width-2 cells survived
"""


def test_pruning_walkthrough_prints_the_six_token_replay():
    assert _run(ROOT / "demos" / "pruning_walkthrough.py").stdout == WALKTHROUGH


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
