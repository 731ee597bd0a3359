"""Tests of the benchmark's own checking code.

    python3 -m pytest -q upbench/test_oracle.py
"""

import json
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

import oracle
import run

HERE = Path(__file__).resolve().parent


def test_self_test_passes():
    assert oracle.self_test() == []


def test_interference_limited_constants():
    # eta = 4, theta = 1, P_u = inf, sigma^2 = 0: the paper's closed forms
    cfg = {
        "tiers": [{"lambda_per_km2": 10.0, "rho_o_dbm": -80.0, "theta_db": 0.0, "eta": 4.0}],
        "p_max_watts": "inf",
        "noise_dbm": None,
    }
    m = oracle.metrics(cfg, 0)
    assert m["O_s"] == pytest.approx(1.0 - math.exp(-math.pi / 4.0), rel=1e-14)
    assert m["R_nats"] == pytest.approx(0.77, abs=5e-3)


@pytest.mark.parametrize("eta", [2.2, 3.2, 3.5, 4.0, 6.0])
@pytest.mark.parametrize("a", [1e-6, 0.05, 1.0, 7.0, 1e3])
def test_tail_integral_is_the_hypergeometric_closed_form(eta, a):
    eta, a = mp.mpf(eta), mp.mpf(a)
    closed = a ** (2 - eta) / (eta - 2) * mp.hyp2f1(1, 1 - 2 / eta, 2 - 2 / eta, -a ** (-eta))
    assert oracle.tail_integral(eta, a) == closed
    assert abs(oracle.tail_integral_definition(eta, a) - closed) <= mp.mpf("1e-20") * closed


def test_tail_integral_at_eta_6_large_a():
    # a^(2-eta)/(eta-2) dominates: J(6, 1e3) = 1e-12 / 4 to first order
    assert float(oracle.tail_integral(6.0, 1e3)) == pytest.approx(2.5e-13, rel=1e-15)


def test_table_entries_reproduce():
    table = json.loads((HERE / "oracle_table.json").read_text())
    assert table["grid_dbm"] == list(oracle.GRID)
    rng = random.Random(0)
    for name in ("closed", "quadrature", "mixture"):
        cfg = json.loads((HERE / "configs" / f"{name}.json").read_text())
        assert oracle.metrics(cfg, 0) == table["values"][name]["analyze"][0]
        key = rng.choice(sorted(table["values"][name]["sweep"]))
        live = oracle.metrics(oracle.with_cutoff(cfg, 0, float(key)), 0)
        assert live == table["values"][name]["sweep"][key]


def test_binomial_gate():
    # n p = 0.37: 3 successes is inside the exact 99.9% region, 6 is not
    assert run.binomial_consistent(3, 200, 0.00187)
    assert not run.binomial_consistent(6, 200, 0.00187)
    assert not run.binomial_consistent(0, 200, 0.2)
    assert run.binomial_consistent(40, 200, 0.2)


def test_wilson_matches_textbook_value():
    lo, hi = run.wilson(50, 100, 1.959963984540054)
    assert (lo, hi) == pytest.approx((0.40383153, 0.59616847), abs=1e-8)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
