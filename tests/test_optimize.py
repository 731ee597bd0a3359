"""Cutoff sweeps and golden-section refinement of the outage/rate
tradeoff."""

import math
from dataclasses import replace

import numpy as np
import pytest

from upcell import analytic
from upcell.model import NetworkConfig, TierConfig, dbm_to_watts
from upcell.optimize import objective_value, refine_optimum, sweep
from upcell.specfun import QuadratureError


def defaults(**overrides):
    kwargs = dict(
        tiers=[TierConfig.from_engineering(2.0, -70.0)],
        p_max_watts=1.0,
        noise_dbm=-90.0,
        rho_min_dbm=None,
        window_km=20.0,
    )
    kwargs.update(overrides)
    return NetworkConfig.from_engineering(**kwargs)


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
        assert result.opt_value == pytest.approx(interior_min)

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
        assert result.opt_value == pytest.approx(max(rates))

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


class TestRefineOptimum:
    def test_beats_coarse_grid_and_matches_brute_force(self):
        cfg = defaults()
        coarse = sweep(cfg, 0, (-120.0, -40.0, 81))
        spacing = 80.0 / 80.0
        bracket = (coarse.argopt - spacing, coarse.argopt + spacing)
        rho_star, value = refine_optimum(
            cfg, 0, "total_outage", bracket, tol=0.01
        )
        assert value <= coarse.opt_value + 1e-15
        # brute force over the same bracket
        xs = np.linspace(bracket[0], bracket[1], 10001)
        brute = [
            objective_value(cfg.with_tier_rho_o(0, dbm_to_watts(x)), 0,
                            "total_outage")
            for x in xs
        ]
        i = int(np.argmin(brute))
        assert abs(rho_star - xs[i]) <= 0.02
        assert value <= brute[i] + 1e-12

    def test_plateau_returns_lower_end(self):
        rho_star, value = refine_optimum(
            flat_config(), 0, "total_outage", (-90.0, -70.0), tol=0.01
        )
        assert rho_star == -90.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            refine_optimum(defaults(), 0, "total_outage", (-60.0, -80.0))
        with pytest.raises(ValueError):
            refine_optimum(defaults(), 0, "total_outage", (-80.0, -60.0), tol=0.0)
