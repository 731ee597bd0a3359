"""Acceptance suite: one test per headline claim, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

The Monte Carlo criteria (4 and 5) run 10^4 realizations per
configuration and take several minutes; everything else is fast.  Seeds
are fixed, so the whole suite is deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from upcell import analytic
from upcell.model import NetworkConfig, TierConfig, dbm_to_watts
from upcell.montecarlo import (
    build_realization,
    estimate_metrics,
    realization_rng,
    sample_ppp,
    wilson_interval,
)
from upcell.optimize import objective_value, refine_optimum, sweep
from upcell.specfun import tail_interference_integral

WORKERS = 2
SEED_VALIDATION = 1
SEED_INTENSITY = 2

# eta=4, unbounded power, zero noise: rate collapses to a constant
RATE_CONSTANT = 0.77
# same regime at theta = 1: outage is 1 - exp(-pi/4)
OUTAGE_CONSTANT = 1.0 - math.exp(-math.pi / 4.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def single_tier(lambda_per_km2=2.0, rho_o_dbm=-70.0, theta_db=0.0, eta=4.0,
                p_max=1.0, noise_dbm=-90.0, window_km=20.0):
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(lambda_per_km2, rho_o_dbm,
                                           theta_db, eta)],
        p_max_watts=p_max,
        noise_dbm=noise_dbm,
        rho_min_dbm=None,
        window_km=window_km,
    )


def interference_limited(lambda_per_km2, rho_o_dbm):
    cfg = single_tier(lambda_per_km2, rho_o_dbm, p_max=math.inf)
    return replace(cfg, noise=0.0)


def two_proportion_z(k1, n1, k2, n2):
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        return 0.0
    return (p1 - p2) / se


def test_criterion_1_constant_rate_special_case():
    t0 = time.time()
    worst = 0.0
    for lam in (1.0, 10.0, 100.0):
        for rho in (-90.0, -70.0, -50.0):
            rate = analytic.spectral_efficiency(
                interference_limited(lam, rho), 0
            )
            worst = max(worst, abs(rate - RATE_CONSTANT))
    elapsed = time.time() - t0
    report(
        "1",
        worst <= 5e-3 and elapsed < 1.0,
        f"interference-limited rate constant: max |R - 0.77| = {worst:.2e} "
        f"over 9 configs ({elapsed:.2f}s)",
    )


def test_criterion_2_simplest_outage_both_routes():
    t0 = time.time()
    cfg = interference_limited(2.0, -70.0)
    closed = analytic.sinr_outage(cfg, 0, method="closed_form")
    generic = analytic.sinr_outage(cfg, 0, method="quadrature")
    err = max(abs(closed - OUTAGE_CONSTANT), abs(generic - OUTAGE_CONSTANT))
    elapsed = time.time() - t0
    report(
        "2",
        err <= 1e-9 and elapsed < 1.0,
        f"O_s = 1 - exp(-pi/4): closed-form and quadrature routes within "
        f"{err:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_3_power_saturation_limit():
    t0 = time.time()
    cfg = single_tier(rho_o_dbm=60.0)
    mean_power = analytic.TxPowerDistribution(cfg, 0).moment(1.0)
    rel = abs(mean_power - 1.0 / 3.0) * 3.0
    elapsed = time.time() - t0
    report(
        "3",
        rel <= 5e-3 and elapsed < 1.0,
        f"E[P] at rho_o=+60 dBm = {mean_power:.6f} W, P_u/3 within "
        f"{rel:.2e} relative ({elapsed:.2f}s)",
    )


@pytest.mark.slow
def test_criterion_4_model_vs_simulation():
    t0 = time.time()
    lines = []
    ok = True
    for rho in (-90.0, -80.0, -70.0, -60.0):
        cfg = single_tier(rho_o_dbm=rho)
        a_os = analytic.sinr_outage(cfg, 0)
        a_op = analytic.truncation_outage(cfg, 0)
        sim = estimate_metrics(cfg, 10000, seed=SEED_VALIDATION,
                               workers=WORKERS)
        n = sim.sinr_outage.n_samples
        lo, hi = wilson_interval(round(sim.sinr_outage.mean * n), n)
        os_ok = lo <= a_os <= hi or abs(sim.sinr_outage.mean - a_os) <= 0.02
        lo, hi = wilson_interval(round(sim.truncation_outage.mean * n), n)
        op_ok = lo <= a_op <= hi
        ok = ok and os_ok and op_ok
        lines.append(
            f"rho_o={rho:g}: O_s {sim.sinr_outage.mean:.4f} vs {a_os:.4f} "
            f"({'ok' if os_ok else 'OUT'}), O_p {sim.truncation_outage.mean:.4f}"
            f" vs {a_op:.4f} ({'ok' if op_ok else 'OUT'})"
        )
    elapsed = time.time() - t0
    report("4", ok, "; ".join(lines) + f" ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_5_intensity_independence():
    t0 = time.time()
    results = []
    for lam, window_km in ((10.0, 7.0), (100.0, 7.0 / math.sqrt(10.0))):
        cfg = single_tier(lam, rho_o_dbm=-90.0, noise_dbm=-110.0,
                          window_km=window_km)
        sim = estimate_metrics(cfg, 10000, seed=SEED_INTENSITY,
                               workers=WORKERS)
        results.append((cfg, sim))
    (cfg1, sim1), (cfg2, sim2) = results
    trunc_small = max(sim1.truncation_outage.mean,
                      sim2.truncation_outage.mean) < 1e-3
    n1, n2 = sim1.sinr_outage.n_samples, sim2.sinr_outage.n_samples
    z = two_proportion_z(
        round(sim1.sinr_outage.mean * n1), n1,
        round(sim2.sinr_outage.mean * n2), n2,
    )
    z_ok = abs(z) < 2.576  # alpha = 0.01
    analytic_gap = abs(analytic.sinr_outage(cfg1, 0) - analytic.sinr_outage(cfg2, 0))
    elapsed = time.time() - t0
    report(
        "5",
        trunc_small and z_ok and analytic_gap <= 1e-9,
        f"O_s at lambda=10: {sim1.sinr_outage.mean:.4f}, lambda=100: "
        f"{sim2.sinr_outage.mean:.4f}, z = {z:.2f}, analytic gap = "
        f"{analytic_gap:.1e}, truncation < 0.1%: {trunc_small} ({elapsed:.0f}s)",
    )


def test_criterion_6_multi_tier_reduction():
    t0 = time.time()
    lambdas = (1.5, 4.0, 9.5)
    multi = NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(l, -70.0) for l in lambdas],
        p_max_watts=1.0, noise_dbm=-90.0, rho_min_dbm=None,
    )
    merged = single_tier(lambda_per_km2=sum(lambdas))
    gap_os = max(
        abs(analytic.sinr_outage(multi, j) - analytic.sinr_outage(merged, 0))
        for j in range(3)
    )
    gap_r = max(
        abs(analytic.spectral_efficiency(multi, j)
            - analytic.spectral_efficiency(merged, 0))
        for j in range(3)
    )
    elapsed = time.time() - t0
    report(
        "6",
        gap_os <= 1e-9 and gap_r <= 1e-9 and elapsed < 1.0,
        f"3 tiers with common cutoff reduce to one tier at the summed "
        f"intensity: |dO_s| = {gap_os:.1e}, |dR| = {gap_r:.1e} ({elapsed:.2f}s)",
    )


def test_criterion_7_u_shaped_tradeoff():
    t0 = time.time()
    cfg = single_tier()
    grid = sweep(cfg, 0, (-120.0, -40.0, 81))
    o_t = np.array([r.total_outage for r in grid.reports])
    interior = o_t.min() < min(o_t[0], o_t[-1]) - 1e-6
    spacing = 1.0
    rho_star, value = refine_optimum(
        cfg, 0, "total_outage",
        (grid.argopt - spacing, grid.argopt + spacing), tol=0.01,
    )
    beats_grid = value <= o_t.min() + 1e-15
    xs = np.linspace(-120.0, -40.0, 10001)
    brute = np.array([
        objective_value(cfg.with_tier_rho_o(0, dbm_to_watts(x)), 0,
                        "total_outage")
        for x in xs
    ])
    brute_arg = xs[int(np.argmin(brute))]
    close = abs(rho_star - brute_arg) <= 0.02
    elapsed = time.time() - t0
    report(
        "7",
        interior and beats_grid and close and elapsed < 10.0,
        f"interior O_t minimum at {rho_star:.3f} dBm (brute force "
        f"{brute_arg:.3f} dBm), O_t* = {value:.6f} <= grid min "
        f"{o_t.min():.6f} ({elapsed:.1f}s)",
    )


def test_criterion_8_property_suite():
    t0 = time.time()
    checks = []

    # density normalization at 1e-8, single-tier and mixture
    dist = analytic.TxPowerDistribution(single_tier(), 0)
    checks.append(("normalization", abs(dist.cdf(1.0) - 1.0) <= 1e-8))
    mixed = NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(2.0, -70.0, eta=3.0),
               TierConfig.from_engineering(5.0, -80.0, eta=4.5)],
        rho_min_dbm=None,
    )
    dist_m = analytic.TxPowerDistribution(mixed, 0)
    checks.append(("mixture normalization", abs(dist_m.cdf(1.0) - 1.0) <= 1e-8))

    # truncation-outage monotonicity in rho_o
    o_p = [analytic.truncation_outage(single_tier(rho_o_dbm=r), 0)
           for r in np.linspace(-95.0, -45.0, 11)]
    checks.append(("O_p monotone", all(x <= y + 1e-15 for x, y in
                                       zip(o_p, o_p[1:]))))
    # SINR-outage monotonicity in rho_o
    o_s = [analytic.sinr_outage(single_tier(rho_o_dbm=r), 0)
           for r in np.linspace(-95.0, -45.0, 11)]
    checks.append(("O_s monotone", all(x >= y - 1e-12 for x, y in
                                       zip(o_s, o_s[1:]))))

    # closed form vs quadrature at 1e-9
    agree = all(
        abs(tail_interference_integral(4.0, a, method="closed_form")
            - tail_interference_integral(4.0, a, method="quadrature"))
        <= 1e-9 * max(1.0, abs(tail_interference_integral(4.0, a)))
        for a in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0)
    )
    checks.append(("eta=4 closed vs quadrature", agree))

    # Rayleigh distance law, KS at alpha = 0.01 on 10^4 probes
    from scipy import stats
    lam, side = 2e-6, 8000.0
    rng = np.random.default_rng(77)
    dist_samples = np.array([
        np.min(np.hypot(*sample_ppp(lam, side, rng).T)) for _ in range(10000)
    ])
    ks = stats.kstest(dist_samples,
                      lambda r: 1.0 - np.exp(-math.pi * lam * r * r))
    checks.append(("distance law KS", ks.pvalue > 0.01))

    # bitwise reproducibility across worker counts
    small = NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(20.0, -70.0)],
        p_max_watts=1.0, noise_dbm=-90.0, rho_min_dbm=None,
        window_km=2.0, guard_km=0.5,
    )
    r1 = estimate_metrics(small, 120, seed=13, workers=1)
    r2 = estimate_metrics(small, 120, seed=13, workers=2)
    checks.append(("bitwise reproducibility", r1 == r2))

    elapsed = time.time() - t0
    failed = [name for name, ok in checks if not ok]
    report(
        "8",
        not failed,
        f"{len(checks)} property groups checked"
        + (f", failing: {failed}" if failed else "")
        + f" ({elapsed:.0f}s)",
    )
