"""Which scipy modules a process loads.  Each check runs in a fresh
interpreter: this one has scipy.integrate already, because pytest imports
it to resolve the IntegrationWarning filter."""

import os
import subprocess
import sys
from pathlib import Path

import upcell

SRC = str(Path(upcell.__file__).resolve().parents[1])


def run_fresh(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": SRC})


def test_package_import_loads_no_quadpack_or_qhull():
    # the analytic verbs need scipy.special alone; scipy.integrate brings
    # scipy.optimize, .sparse and .linalg, and only the simulator needs
    # scipy.spatial
    run_fresh(
        "import sys\n"
        "import upcell, upcell.cli\n"
        "loaded = {'scipy.integrate', 'scipy.optimize', 'scipy.spatial'}"
        " & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert 'scipy.special' in sys.modules\n"
    )


def test_parallel_run_imports_spatial_before_the_pool():
    # the parent of a pool builds no realization, yet imports
    # scipy.spatial once so that forked workers inherit it
    run_fresh(
        "import sys\n"
        "from upcell import NetworkConfig, TierConfig, estimate_metrics\n"
        "cfg = NetworkConfig.from_engineering(\n"
        "    tiers=[TierConfig.from_engineering(20.0, -70.0)],\n"
        "    window_km=2.0, guard_km=0.5)\n"
        "estimate_metrics(cfg, 100, seed=1, workers=2)\n"
        "assert 'scipy.spatial' in sys.modules\n"
    )
