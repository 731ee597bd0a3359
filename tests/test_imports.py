"""Which scipy and multiprocessing modules a process loads, and what its
worker pool returns under each start method.  Each check runs in a fresh
interpreter: this one has scipy.integrate already (pytest imports it to
resolve the IntegrationWarning filter), and a process sets its start
method once."""

import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import upcell

SRC = str(Path(upcell.__file__).resolve().parents[1])


def test_package_version_matches_pyproject():
    # a run manifest records ``upcell.__version__``, so it must move with
    # the packaged version; read with a regex, as tomllib needs Python 3.11
    text = (Path(SRC).parent / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert version == upcell.__version__


def run_fresh(code: str, *args: str) -> None:
    subprocess.run([sys.executable, "-c", code, *args], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": SRC})


def test_package_import_loads_no_quadpack_or_qhull():
    # importing the package, loading a config and parsing arguments load
    # numpy alone: no scipy module, no multiprocessing.  A special function
    # loads scipy.special at its first call; the analytic metrics need no
    # more, while scipy.integrate brings scipy.optimize, .sparse and
    # .linalg, and only the simulator needs scipy.spatial
    run_fresh(
        "import json, sys\n"
        "import upcell, upcell.cli\n"
        "config = upcell.network_from_mapping(json.load(open(sys.argv[1])))\n"
        "upcell.cli.build_parser().parse_args(\n"
        "    ['simulate', '--config', sys.argv[1], '--output', 'x.csv'])\n"
        "loaded = {m for m in sys.modules\n"
        "          if m.split('.')[0] in ('scipy', 'multiprocessing')}\n"
        "assert not loaded, sorted(loaded)\n"
        "upcell.full_report(config, 0)\n"
        "assert 'scipy.special' in sys.modules\n"
        "loaded = {'scipy.integrate', 'scipy.spatial'} & set(sys.modules)\n"
        "assert not loaded, loaded\n",
        str(Path(SRC).parent / "upbench" / "configs" / "quadrature.json"),
    )


def test_parallel_run_imports_spatial_before_the_pool():
    # the parent of a pool builds no realization, yet imports
    # scipy.spatial, which forked workers inherit; this saves nothing under
    # spawn or forkserver, whose workers import it again
    run_fresh(
        "import sys\n"
        "from upcell import NetworkConfig, TierConfig, estimate_metrics\n"
        "cfg = NetworkConfig.from_engineering(\n"
        "    tiers=[TierConfig.from_engineering(20.0, -70.0)],\n"
        "    window_km=2.0)\n"
        "estimate_metrics(cfg, 100, seed=1, workers=2)\n"
        "assert 'scipy.spatial' in sys.modules\n"
    )


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_matches_one_process_under_start_method(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    run_fresh(
        "import multiprocessing, sys\n"
        "from upcell import NetworkConfig, TierConfig, estimate_metrics\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "cfg = NetworkConfig.from_engineering(\n"
        "    tiers=[TierConfig.from_engineering(20.0, -70.0)],\n"
        "    window_km=2.0)\n"
        "pool = estimate_metrics(cfg, 200, seed=1, workers=2)\n"
        "assert pool == estimate_metrics(cfg, 200, seed=1, workers=1)\n",
        method,
    )
