"""The demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcpsim

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# 05 is left out: its syndrome sweep takes about 13 s, against well under a
# second for each of the others
@pytest.mark.parametrize("name", [
    "01_assembly_and_timing.py", "02_superscalar_widths.py",
    "03_block_scheduling.py", "04_fast_context_switch.py"])
def test_demo_runs(name):
    # the child imports qcpsim from where this process did, whether that is
    # an install or a source tree on pytest's own path
    src = os.path.dirname(os.path.dirname(qcpsim.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, str(DEMOS / name)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
