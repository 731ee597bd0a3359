"""Cutoff sweeps and golden-section refinement of the outage/rate
tradeoff."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import upcell
from upcell import analytic
from upcell.model import NetworkConfig, TierConfig
from upcell.optimize import OBJECTIVES, objective_value, refine_optimum, sweep
from upcell.specfun import QuadratureError


def defaults(**overrides):
    kwargs = dict(
        tiers=[TierConfig.from_engineering(2.0, -70.0)],
        p_max_watts=1.0,
        noise_dbm=-90.0,
        window_km=20.0,
    )
    kwargs.update(overrides)
    return NetworkConfig.from_engineering(**kwargs)


def opt_value(result):
    """The objective at the grid optimum of a sweep."""
    return OBJECTIVES[result.objective][0](result.opt_report)


def flat_config():
    """Zero noise and unbounded power: the outage objective is free of
    rho_o entirely."""
    cfg = defaults(p_max_watts=math.inf)
    return replace(cfg, noise=0.0)


class TestSweep:
    def test_u_shape_at_defaults(self):
        result = sweep(defaults(), 0, (-120.0, -40.0, 81))
        o_t = np.array([r.total_outage for r in result.reports])
        assert result.errors.count(None) == 81
        interior_min = o_t.min()
        assert o_t[0] > interior_min and o_t[-1] > interior_min
        assert -120.0 < result.argopt < -40.0
        assert opt_value(result) == pytest.approx(interior_min)

    def test_component_monotonicity_along_sweep(self):
        # the truncation component rises with rho_o while the conditional
        # SINR component falls: the two sides of the tradeoff
        result = sweep(defaults(), 0, (-120.0, -40.0, 41))
        o_p = [r.truncation_outage for r in result.reports]
        o_s = [r.sinr_outage for r in result.reports]
        assert all(x <= y + 1e-12 for x, y in zip(o_p, o_p[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(o_s, o_s[1:]))

    def test_flat_objective_ties_to_smallest_cutoff(self):
        result = sweep(flat_config(), 0, (-100.0, -60.0, 9))
        o_t = [r.total_outage for r in result.reports]
        assert max(o_t) - min(o_t) <= 1e-12
        assert result.argopt == -100.0

    def test_two_point_grid(self):
        result = sweep(defaults(), 0, (-80.0, -60.0, 2))
        o_t = [r.total_outage for r in result.reports]
        best = -80.0 if o_t[0] <= o_t[1] else -60.0
        assert result.argopt == best

    def test_effective_rate_objective(self):
        result = sweep(defaults(), 0, (-100.0, -50.0, 26),
                       objective="effective_rate")
        rates = [r.effective_spectral_efficiency for r in result.reports]
        assert opt_value(result) == pytest.approx(max(rates))

    def test_numeric_failure_recorded(self, monkeypatch):
        real = analytic.full_report
        calls = []

        def second_fails(config, tier, **kwargs):
            calls.append(tier)
            if len(calls) == 2:
                raise QuadratureError("synthetic non-convergence")
            return real(config, tier, **kwargs)

        monkeypatch.setattr(analytic, "full_report", second_fails)
        result = sweep(defaults(), 0, (-80.0, -60.0, 3))
        assert result.reports[1] is None
        assert result.errors == [
            None, "QuadratureError: synthetic non-convergence", None
        ]
        assert result.argopt in (-80.0, -60.0)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config, tier, **kwargs):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(analytic, "full_report", broken)
        with pytest.raises(TypeError):
            sweep(defaults(), 0, (-80.0, -60.0, 3))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            sweep(defaults(), 0, (-40.0, -120.0, 10))
        with pytest.raises(ValueError):
            sweep(defaults(), 0, (-120.0, -40.0, 1))
        with pytest.raises(ValueError):
            sweep(defaults(), 0, (-120.0, -40.0, 5), objective="latency")


def mixed_exponents():
    """Two tiers with distinct exponents: the power moments run over the
    mixture density."""
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(2.0, -70.0, eta=3.0),
               TierConfig.from_engineering(5.0, -80.0, eta=4.5)],
    )


@pytest.mark.parametrize("config", [defaults(), mixed_exponents()],
                         ids=["common", "mixed"])
@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
def test_objective_value_matches_sweep_extractor(config, objective):
    # refine_optimum seeds its search with the sweep's values, so the two
    # routes must agree bit for bit
    extract = OBJECTIVES[objective][0]
    for tier in range(config.n_tiers):
        for rho_dbm in (-100.0, -75.0, -50.0):
            cfg = config.with_tier_rho_o(tier, rho_dbm)
            assert objective_value(cfg, tier, objective) == extract(
                analytic.full_report(cfg, tier)
            )


def assert_not_worse(result, value):
    if OBJECTIVES[result.objective][1]:
        assert value >= opt_value(result)
    else:
        assert value <= opt_value(result)


class TestRefineOptimum:
    def test_beats_coarse_grid_and_matches_brute_force(self):
        cfg = defaults()
        coarse = sweep(cfg, 0, (-120.0, -40.0, 81))
        rho_star, value = refine_optimum(cfg, 0, coarse, tol=0.01)
        assert value <= opt_value(coarse) + 1e-15
        # brute force between the grid neighbours of the grid optimum
        i = coarse.opt_index
        xs = np.linspace(coarse.values_dbm[i - 1], coarse.values_dbm[i + 1], 10001)
        brute = [
            objective_value(cfg.with_tier_rho_o(0, x), 0,
                            "total_outage")
            for x in xs
        ]
        i = int(np.argmin(brute))
        assert abs(rho_star - xs[i]) <= 0.02
        assert value <= brute[i] + 1e-12

    def test_plateau_returns_lower_end(self):
        result = sweep(flat_config(), 0, (-90.0, -70.0, 3))
        rho_star, value = refine_optimum(flat_config(), 0, result, tol=0.01)
        assert rho_star == -90.0
        assert_not_worse(result, value)

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("grid, edge", [((-60.0, -40.0, 5), 0),
                                            ((-120.0, -100.0, 5), -1)],
                             ids=["first", "last"])
    def test_optimum_at_grid_end(self, objective, grid, edge):
        # the bracket is one-sided: from the end point to its one neighbour
        result = sweep(defaults(), 0, grid, objective)
        assert result.argopt == result.values_dbm[edge]
        rho_star, value = refine_optimum(defaults(), 0, result, tol=0.01)
        inner = result.values_dbm[1 if edge == 0 else -2]
        assert min(result.argopt, inner) <= rho_star <= max(result.argopt, inner)
        assert_not_worse(result, value)

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_failed_neighbour(self, monkeypatch, side):
        grid = (-120.0, -40.0, 17)
        target = sweep(defaults(), 0, grid).opt_index + side
        real = analytic.full_report
        calls = []

        def neighbour_fails(config, tier, **kwargs):
            calls.append(tier)
            if len(calls) == target + 1:
                raise QuadratureError("synthetic non-convergence")
            return real(config, tier, **kwargs)

        monkeypatch.setattr(analytic, "full_report", neighbour_fails)
        result = sweep(defaults(), 0, grid)
        assert result.reports[target] is None
        assert result.opt_index == target - side
        rho_star, value = refine_optimum(defaults(), 0, result, tol=0.01)
        assert_not_worse(result, value)
        assert abs(rho_star - result.argopt) <= 5.0

    def test_nonpositive_tolerance_rejected(self):
        result = sweep(defaults(), 0, (-80.0, -60.0, 3))
        for tol in (0.0, -0.01):
            with pytest.raises(ValueError):
                refine_optimum(defaults(), 0, result, tol=tol)

    def test_tolerance_below_float_spacing_returns(self):
        # once the bracket is one float wide the probes round onto its ends;
        # a fresh interpreter with a timeout turns a search that stops
        # shrinking into a failure rather than a hang
        code = (
            "from upcell.model import NetworkConfig, TierConfig\n"
            "from upcell.optimize import refine_optimum, sweep\n"
            "cfg = NetworkConfig.from_engineering("
            "tiers=[TierConfig.from_engineering(2.0, -70.0)], noise_dbm=-90.0)\n"
            "result = sweep(cfg, 0, (-100.0, -50.0, 11))\n"
            "print(result.opt_report.total_outage)\n"
            "print(refine_optimum(cfg, 0, result, tol=1e-300)[1])\n"
        )
        src = str(Path(upcell.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=120,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        grid_value, refined = map(float, out)
        assert refined <= grid_value
