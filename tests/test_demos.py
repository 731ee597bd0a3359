"""The analytic demos run to completion.  Each runs in a fresh interpreter
in a scratch directory, where it writes its CSV (and PNG) artifacts.
``model_vs_simulation.py`` simulates for about a minute on two workers and
is left to CI's demo step."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import upcell

SRC = str(Path(upcell.__file__).resolve().parents[1])
DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["outage_tradeoff.py", "multi_tier.py",
                                  "power_statistics.py"])
def test_demo_runs(demo, tmp_path):
    subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, check=True,
                   timeout=300, env={**os.environ, "PYTHONPATH": SRC},
                   stdout=subprocess.DEVNULL)
