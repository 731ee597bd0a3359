"""Analytic metrics: transmit-power statistics, truncation outage, the
interference Laplace transform (through the SINR outage it determines),
SINR outage, and spectral efficiency,
cross-checked against independently coded quadrature oracles and the
closed forms available at eta = 4."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from upcell import analytic
from upcell.analytic import (
    TxPowerDistribution,
    _fractional_moment,
    full_report,
    sinr_outage,
    spectral_efficiency,
    truncation_outage,
)
from upcell.model import NetworkConfig, TierConfig, dbm_to_watts
from upcell.specfun import tail_interference_integral

# frozen from the independent oracles coded in this file (see the
# corresponding tests); paper-style defaults lambda=2 BS/km^2,
# rho_o=-70 dBm, P_u=1 W, eta=4
EP_DEFAULTS = 0.28240117890163013      # E[P], W
OP_DEFAULTS = 0.5334880910911033       # exp(-pi lambda (P_u/rho_o)^(1/2))


def single_tier(lambda_per_km2=2.0, rho_o_dbm=-70.0, theta_db=0.0, eta=4.0,
                p_max=1.0, noise_dbm=-90.0):
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(lambda_per_km2, rho_o_dbm, theta_db, eta)],
        p_max_watts=p_max,
        noise_dbm=noise_dbm,
        window_km=20.0,
    )


def interference_free_limit(eta=4.0, theta_db=0.0, lambda_per_km2=2.0,
                            rho_o_dbm=-70.0):
    """eta with unbounded power budget and zero noise."""
    cfg = single_tier(lambda_per_km2, rho_o_dbm, theta_db, eta, p_max=math.inf)
    return replace(cfg, noise=0.0)


def lemma_pdf(x, lam, rho, pu, eta):
    """Transmit-power density written out directly (test-side oracle)."""
    norm = 1.0 - math.exp(-math.pi * lam * (pu / rho) ** (2.0 / eta))
    return (
        2.0 * math.pi * lam * x ** (2.0 / eta - 1.0)
        * math.exp(-math.pi * lam * (x / rho) ** (2.0 / eta))
        / (eta * rho ** (2.0 / eta) * norm)
    )


class TestTxPowerDistribution:
    def test_normalization(self):
        dist = TxPowerDistribution(single_tier(), 0)
        assert dist.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.cdf(0.0) == 0.0
        assert dist.pdf(0.0) == math.inf
        # density integrates to one despite the x^(-1/2) divergence at 0
        total, _ = integrate.quad(dist.pdf, 0.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_outside_support_rejected(self):
        dist = TxPowerDistribution(single_tier(), 0)
        for law in (dist.pdf, dist.cdf):
            for x in (1.5, -0.1):
                with pytest.raises(ValueError, match="outside the support"):
                    law(x)
        with pytest.raises(ValueError, match="moment order must be positive"):
            dist.moment(0.0)

    def test_two_equal_tiers_match_merged_single_tier(self):
        two = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(0.8, -70.0),
                   TierConfig.from_engineering(1.2, -70.0)],
        )
        one = single_tier(lambda_per_km2=2.0)
        d2 = TxPowerDistribution(two, 0)
        d1 = TxPowerDistribution(one, 0)
        for x in np.linspace(1e-6, 1.0, 23):
            np.testing.assert_allclose(d2.pdf(x), d1.pdf(x), rtol=1e-12)

    def test_mean_power_against_numeric_oracle(self):
        cfg = single_tier()
        impl = TxPowerDistribution(cfg, 0).moment(1.0)
        oracle, _ = integrate.quad(
            lambda x: x * lemma_pdf(x, 2e-6, 1e-10, 1.0, 4.0),
            0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=500,
        )
        np.testing.assert_allclose(impl, oracle, rtol=1e-10)
        np.testing.assert_allclose(impl, EP_DEFAULTS, rtol=1e-12)

    def test_saturation_limit(self):
        # mean power saturates at P_u/(1 + eta/2) as the cutoff grows
        cfg = single_tier(rho_o_dbm=60.0)
        assert TxPowerDistribution(cfg, 0).moment(1.0) == pytest.approx(
            1.0 / 3.0, rel=5e-3
        )

    def test_fractional_moment_unbounded_budget(self):
        # E[P^(2/eta)] -> rho_o^(2/eta) Gamma(2) / (pi lambda) when P_u = inf
        cfg = single_tier(p_max=math.inf)
        got = TxPowerDistribution(cfg, 0).moment(0.5)
        np.testing.assert_allclose(
            got, math.sqrt(1e-10) / (math.pi * 2e-6), rtol=1e-12
        )

    def test_mixture_kind_matches_common_kind(self):
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -70.0),
                   TierConfig.from_engineering(3.0, -75.0)],
        )
        for j in (0, 1):
            for alpha in (1.0, 0.5):
                np.testing.assert_allclose(
                    analytic._mixture_moment(cfg, j, alpha),
                    analytic._common_moment(cfg, j, alpha),
                    rtol=1e-8,
                )
            # the mixture density against the common-exponent lemma with
            # the summed intensity
            dist = TxPowerDistribution(cfg, j)
            for x in (1e-4, 0.03, 0.7):
                np.testing.assert_allclose(
                    dist.pdf(x),
                    lemma_pdf(x, cfg.total_intensity, cfg.tiers[j].rho_o, 1.0, 4.0),
                    rtol=1e-12,
                )

    def test_mixture_mean_power_at_low_cutoff(self):
        # at rho_o = -120 dBm the power law of tier 0 sits near 1e-7 W,
        # a spike at the left end of [0, P_u]; reference value from mpmath
        # at 30 digits over the defining integral, split at decades
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -120.0, eta=3.2),
                   TierConfig.from_engineering(10.0, -75.0, eta=4.0)],
        )
        np.testing.assert_allclose(
            TxPowerDistribution(cfg, 0).moment(1.0), 3.676180225271e-7,
            rtol=1e-9,
        )

    def test_mixture_matches_common_kind_unbounded_low_cutoff(self):
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -120.0),
                   TierConfig.from_engineering(10.0, -75.0)],
            p_max_watts=math.inf,
        )
        for j in (0, 1):
            for alpha in (0.5, 1.0):
                np.testing.assert_allclose(
                    analytic._mixture_moment(cfg, j, alpha),
                    analytic._common_moment(cfg, j, alpha),
                    rtol=1e-9, err_msg=f"tier {j}, alpha={alpha}",
                )

    def test_mixture_normalizes_with_distinct_exponents(self):
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(2.0, -70.0, eta=3.0),
                   TierConfig.from_engineering(5.0, -80.0, eta=4.5)],
        )
        for j in (0, 1):
            dist = TxPowerDistribution(cfg, j)
            assert not cfg.common_exponent()
            assert dist.cdf(cfg.p_max) == pytest.approx(1.0, abs=1e-8)
            total, _ = integrate.quad(dist.pdf, 0.0, 1.0, limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestTruncationOutage:
    def test_paper_defaults(self):
        np.testing.assert_allclose(
            truncation_outage(single_tier(), 0), OP_DEFAULTS, rtol=1e-12
        )

    def test_unbounded_budget_is_exact_zero(self):
        assert truncation_outage(single_tier(p_max=math.inf), 0) == 0.0

    def test_huge_cutoff_approaches_one(self):
        assert truncation_outage(single_tier(rho_o_dbm=200.0), 0) > 0.999

    def test_monotone_grid(self):
        # nondecreasing in rho_o, nonincreasing in lambda and P_u
        rhos = np.linspace(-90.0, -50.0, 5)
        lams = np.geomspace(0.5, 50.0, 5)
        pmaxes = np.geomspace(0.05, 20.0, 5)
        vals = np.empty((5, 5, 5))
        for i, r in enumerate(rhos):
            for j, l in enumerate(lams):
                for k, p in enumerate(pmaxes):
                    vals[i, j, k] = truncation_outage(
                        single_tier(lambda_per_km2=l, rho_o_dbm=r, p_max=p), 0
                    )
        assert (np.diff(vals, axis=0) >= -1e-15).all()   # rho_o up -> O_p up
        assert (np.diff(vals, axis=1) <= 1e-15).all()    # lambda up -> O_p down
        assert (np.diff(vals, axis=2) <= 1e-15).all()    # P_u up -> O_p down


class TestInterferenceLaplace:
    # the product of the per-tier interference Laplace transforms at
    # s = theta/rho_o is the SINR survival 1 - O_s when the noise is zero

    def test_limits(self):
        # O_s -> 0 as theta -> 0 (s = 1e-280 per watt) and as lambda -> 0
        assert sinr_outage(replace(single_tier(theta_db=-2900.0), noise=0.0), 0) < 1e-12
        sparse = replace(single_tier(lambda_per_km2=1e-12), noise=0.0)
        assert sinr_outage(sparse, 0) < 1e-12

    def test_value_in_unit_interval(self):
        # s = theta/rho_o from 1e6 to 1e14 per watt; at the top 1 - O_s
        # rounds to 0, so only the closed interval can be asserted
        values = [
            sinr_outage(replace(single_tier(theta_db=theta_db), noise=0.0), 0)
            for theta_db in np.linspace(-40.0, 40.0, 9)
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert (np.diff(values) >= 0.0).all()

    def test_simplest_form_against_pgfl_oracle(self):
        # single tier, eta=4, unbounded budget, zero noise, theta = 1: the
        # SINR survival must equal exp(-pi/4).  Oracle: raw double
        # quadrature of the generating-functional exponent at s = 1/rho_o
        #   2 pi lambda int_p f_P(p) int_{(p/rho)^{1/4}}^inf
        #       (1 - 1/(1 + s p x^-4)) x dx dp
        # with f_P the unbounded-budget density.  The inner integrand is
        # written s p x / (x^4 + s p), the same function without the
        # cancellation of 1 - 1/(1 + small) that costs QUADPACK its
        # tolerance.
        lam, rho = 2e-6, 1e-10
        s = 1.0 / rho

        def pdf(p):
            return (math.pi * lam / (2.0 * math.sqrt(rho * p))
                    * math.exp(-math.pi * lam * math.sqrt(p / rho)))

        def inner(p):
            lo = (p / rho) ** 0.25
            val, _ = integrate.quad(
                lambda x: s * p * x / (x**4 + s * p),
                lo, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400,
            )
            return val

        outer, _ = integrate.quad(
            lambda p: pdf(p) * inner(p), 0.0, np.inf,
            epsabs=1e-13, epsrel=1e-9, limit=400,
        )
        oracle = math.exp(-2.0 * math.pi * lam * outer)
        np.testing.assert_allclose(oracle, math.exp(-math.pi / 4.0), rtol=1e-7)
        cfg = interference_free_limit()
        np.testing.assert_allclose(1.0 - sinr_outage(cfg, 0), oracle, rtol=1e-7)

    def test_survival_factorizes_over_tiers(self):
        # with zero noise the SINR survival is exp(-sum_k of each tier's
        # exponent 2 pi lambda_k s^(2/eta) E[P_k^(2/eta)] J(eta, (s rho_o_k)^(-1/eta)))
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -70.0),
                   TierConfig.from_engineering(4.0, -80.0),
                   TierConfig.from_engineering(0.5, -65.0)],
        )
        cfg = replace(cfg, noise=0.0)
        j = 1
        t = cfg.tiers[j]
        s = t.theta / t.rho_o
        delta = 2.0 / t.eta
        exponent = math.fsum(
            2.0 * math.pi * src.intensity * s**delta
            * _fractional_moment(cfg, k, delta)
            * tail_interference_integral(t.eta, (s * src.rho_o) ** (-1.0 / t.eta))
            for k, src in enumerate(cfg.tiers)
        )
        survival = 1.0 - sinr_outage(cfg, j)
        np.testing.assert_allclose(math.exp(-exponent), survival, rtol=1e-12)


class TestSinrOutage:
    def test_simplest_closed_form(self, monkeypatch, quadrature_tail):
        cfg = interference_free_limit()
        expected = 1.0 - math.exp(-math.pi / 4.0)
        np.testing.assert_allclose(sinr_outage(cfg, 0), expected, rtol=1e-12)
        monkeypatch.setattr(analytic, "tail_interference_integral", quadrature_tail)
        np.testing.assert_allclose(sinr_outage(cfg, 0), expected, rtol=1e-9)

    def test_simplest_form_approached_by_general_path(self):
        # large-but-finite budget and near-zero noise approach the exact
        # special-case path
        near = single_tier(p_max=1e6, noise_dbm=-270.0)
        exact = sinr_outage(interference_free_limit(), 0)
        np.testing.assert_allclose(sinr_outage(near, 0), exact, rtol=1e-6)

    def test_vanishing_threshold(self):
        cfg = replace(single_tier(theta_db=-120.0), noise=0.0)
        assert sinr_outage(cfg, 0) < 1e-5

    def test_closed_form_vs_quadrature_grid(self, monkeypatch, quadrature_tail):
        for rho in (-90.0, -75.0, -60.0):
            cfg = single_tier(rho_o_dbm=rho)
            a = sinr_outage(cfg, 0)
            with monkeypatch.context() as m:
                m.setattr(analytic, "tail_interference_integral", quadrature_tail)
                b = sinr_outage(cfg, 0)
            np.testing.assert_allclose(b, a, rtol=1e-9)

    def test_nonincreasing_in_cutoff(self):
        rhos = np.linspace(-95.0, -45.0, 51)
        vals = [sinr_outage(single_tier(rho_o_dbm=r), 0) for r in rhos]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_multi_tier_common_cutoff_reduces_to_merged_tier(self):
        tiers = [TierConfig.from_engineering(lam, -70.0) for lam in (1.0, 3.0, 7.0)]
        multi = NetworkConfig.from_engineering(tiers=tiers)
        merged = single_tier(lambda_per_km2=11.0)
        for j in range(3):
            np.testing.assert_allclose(
                sinr_outage(multi, j), sinr_outage(merged, 0), rtol=1e-9
            )

    def test_mixture_route_matches_common_route(self, monkeypatch):
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -70.0),
                   TierConfig.from_engineering(3.0, -78.0)],
        )
        for j in (0, 1):
            a = sinr_outage(cfg, j)  # a common exponent: the closed form
            with monkeypatch.context() as m:
                m.setattr(analytic, "_fractional_moment", analytic._mixture_moment)
                b = sinr_outage(cfg, j)
            np.testing.assert_allclose(b, a, rtol=1e-8)

    def test_distinct_exponent_path_runs(self):
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(2.0, -70.0, eta=3.5),
                   TierConfig.from_engineering(6.0, -80.0, eta=4.0)],
        )
        for j in (0, 1):
            v = sinr_outage(cfg, j)
            assert 0.0 < v < 1.0


class TestSpectralEfficiency:
    def test_interference_limited_constant(self):
        # eta=4, unbounded budget, zero noise: the rate is a pure constant
        for lam in (1.0, 10.0, 100.0):
            for rho in (-90.0, -70.0, -50.0):
                cfg = interference_free_limit(
                    lambda_per_km2=lam, rho_o_dbm=rho
                )
                np.testing.assert_allclose(
                    spectral_efficiency(cfg, 0), 0.77, atol=5e-3
                )

    def test_heavy_noise_kills_rate(self):
        cfg = single_tier(noise_dbm=80.0)
        assert spectral_efficiency(cfg, 0) < 1e-6

    def test_multi_tier_reduction_independent_of_intensities(self):
        values = []
        for lams in ([1.0, 1.0, 1.0], [10.0, 5.0, 85.0], [100.0, 0.1, 3.0]):
            cfg = NetworkConfig.from_engineering(
                tiers=[TierConfig.from_engineering(l, -70.0) for l in lams],
                p_max_watts=math.inf,
            )
            cfg = replace(cfg, noise=0.0)
            values.append(spectral_efficiency(cfg, 0))
        np.testing.assert_allclose(values, values[0], rtol=1e-9)

    def test_mixture_rate_at_low_cutoff(self):
        # below about -108 dBm the survival function of tier 0 has decayed
        # by x ~ 1e-5, finer than an unscaled semi-infinite rule samples;
        # reference values from mpmath (upbench/oracle_table.json)
        for rho, expected in ((-120.0, 3.6497305685496777e-06),
                              (-108.0, 5.783798751428052e-05)):
            cfg = NetworkConfig.from_engineering(
                tiers=[TierConfig.from_engineering(1.0, rho, eta=3.2),
                       TierConfig.from_engineering(10.0, -75.0, eta=4.0)],
            )
            np.testing.assert_allclose(
                spectral_efficiency(cfg, 0), expected, rtol=1e-8,
                err_msg=f"rho_o={rho} dBm",
            )

    def test_rate_integrand_reaches_module_tail(self, monkeypatch):
        # the rate integrand looks J up as analytic.tail_interference_integral
        # and hands it every node at once, so a stand-in patched there (the
        # quadrature J of the cross-checks) sees the whole rule
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -70.0, eta=3.2),
                   TierConfig.from_engineering(10.0, -75.0, eta=4.0)],
        )
        expected = spectral_efficiency(cfg, 0)
        seen = []

        def counting(eta, a):
            seen.append(np.size(a))
            return tail_interference_integral(eta, a)

        monkeypatch.setattr(analytic, "tail_interference_integral", counting)
        assert spectral_efficiency(cfg, 0) == expected
        assert len(seen) == cfg.n_tiers and seen[0] == seen[1]
        assert seen[0] % 21 == 0 and seen[0] > 21
        monkeypatch.setattr(analytic, "tail_interference_integral",
                            lambda eta, a: 2.0 * tail_interference_integral(eta, a))
        assert spectral_efficiency(cfg, 0) < expected

    def test_closed_form_vs_quadrature(self, monkeypatch, quadrature_tail):
        cfg = single_tier()
        a = spectral_efficiency(cfg, 0)
        monkeypatch.setattr(analytic, "tail_interference_integral", quadrature_tail)
        b = spectral_efficiency(cfg, 0)
        np.testing.assert_allclose(b, a, rtol=1e-9)


@pytest.mark.parametrize("eta", [2.5, 3.5, 6.0])
def test_hypergeometric_tail_matches_quadrature(eta, monkeypatch, quadrature_tail):
    for rho in (-90.0, -70.0):
        cfg = single_tier(eta=eta, rho_o_dbm=rho)
        for metric in (sinr_outage, spectral_efficiency):
            closed = metric(cfg, 0)
            with monkeypatch.context() as m:
                m.setattr(analytic, "tail_interference_integral", quadrature_tail)
                generic = metric(cfg, 0)
            np.testing.assert_allclose(
                generic, closed, rtol=1e-9,
                err_msg=f"{metric.__name__}, rho_o={rho} dBm",
            )


class TestFullReport:
    def test_composite_identities(self):
        report = full_report(single_tier(), 0)
        o_p, o_s = report.truncation_outage, report.sinr_outage
        assert report.total_outage == o_p + (1.0 - o_p) * o_s
        assert report.effective_spectral_efficiency == (
            (1.0 - o_p) * report.spectral_efficiency
        )

    def test_intensity_invariance_in_unbounded_regime(self):
        reports = [
            full_report(interference_free_limit(lambda_per_km2=lam), 0)
            for lam in (1.0, 10.0, 100.0)
        ]
        for field in ("truncation_outage", "sinr_outage", "total_outage",
                      "spectral_efficiency", "effective_spectral_efficiency"):
            vals = [getattr(r, field) for r in reports]
            assert max(vals) - min(vals) <= 1e-9
        # mean power does depend on intensity
        powers = [r.mean_tx_power for r in reports]
        assert powers[0] > powers[1] > powers[2]


# --- properties over random valid configs --------------------------------------

_TIER = st.builds(
    TierConfig.from_engineering,
    lambda_per_km2=st.floats(0.1, 100.0),
    rho_o_dbm=st.floats(-110.0, -40.0),
    theta_db=st.floats(-10.0, 10.0),
    eta=st.floats(2.5, 6.0),
)
_P_MAX = st.one_of(st.floats(0.01, 10.0), st.just(math.inf))
_NOISE_DBM = st.one_of(st.none(), st.floats(-130.0, -70.0))


@st.composite
def _network_and_tier(draw):
    config = NetworkConfig.from_engineering(
        draw(st.lists(_TIER, min_size=1, max_size=3)),
        p_max_watts=draw(_P_MAX),
        noise_dbm=draw(_NOISE_DBM),
    )
    return config, draw(st.integers(0, config.n_tiers - 1))


@settings(max_examples=40, deadline=None)
@given(_network_and_tier())
def test_outages_are_probabilities(case):
    report = full_report(*case)
    for value in (report.truncation_outage, report.sinr_outage,
                  report.total_outage):
        assert 0.0 <= value <= 1.0


@settings(max_examples=60, deadline=None)
@given(_TIER, st.floats(0.1, 20.0), _P_MAX, _NOISE_DBM)
def test_cutoff_raises_truncation_and_lowers_sinr_outage(tier, step_db, p_max,
                                                         noise_dbm):
    low, high = (
        NetworkConfig.from_engineering(
            [replace(tier, rho_o=tier.rho_o * 10.0 ** (db / 10.0))],
            p_max_watts=p_max, noise_dbm=noise_dbm)
        for db in (0.0, step_db)
    )
    assert truncation_outage(high, 0) >= truncation_outage(low, 0)
    assert sinr_outage(high, 0) <= sinr_outage(low, 0) + 1e-12


@settings(max_examples=60, deadline=None)
@given(_TIER, st.floats(0.1, 100.0), _NOISE_DBM)
def test_sinr_outage_independent_of_intensity_without_budget(tier, lambda_per_km2,
                                                             noise_dbm):
    first, second = (
        NetworkConfig.from_engineering([t], p_max_watts=math.inf,
                                       noise_dbm=noise_dbm)
        for t in (tier, replace(tier, intensity=lambda_per_km2 * 1e-6))
    )
    assert sinr_outage(second, 0) == pytest.approx(sinr_outage(first, 0),
                                                   rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(_network_and_tier())
def test_fixed_rule_matches_adaptive_references(reference_rate,
                                                reference_mixture_moment, case):
    config, tier = case
    np.testing.assert_allclose(spectral_efficiency(config, tier),
                               reference_rate(config, tier), rtol=1e-9)
    for alpha in (2.0 / config.tiers[tier].eta, 1.0):
        np.testing.assert_allclose(
            analytic._mixture_moment(config, tier, alpha),
            reference_mixture_moment(config, tier, alpha), rtol=1e-9,
            err_msg=f"alpha={alpha}",
        )


_REPORT_FIELDS = ("truncation_outage", "sinr_outage", "total_outage",
                  "spectral_efficiency", "effective_spectral_efficiency",
                  "mean_tx_power")


@st.composite
def _common_exponent_network(draw):
    eta = draw(st.floats(2.5, 6.0))
    tiers = draw(st.lists(
        st.builds(TierConfig.from_engineering, lambda_per_km2=st.floats(0.1, 100.0),
                  rho_o_dbm=st.floats(-110.0, -40.0), theta_db=st.floats(-10.0, 10.0),
                  eta=st.just(eta)),
        min_size=1, max_size=3))
    return NetworkConfig.from_engineering(tiers, p_max_watts=draw(_P_MAX),
                                          noise_dbm=draw(_NOISE_DBM))


@settings(max_examples=40, deadline=None)
@given(_common_exponent_network(), st.sampled_from([1 / 16, 1 / 4, 4, 16]))
def test_metrics_invariant_under_scale_map(scaled, config, c):
    # an exact oracle: c times the density, with cutoffs and noise scaled
    # to match, is the same network seen from farther away.  A subnormal
    # O_p carries too few bits for 1e-12 relative, hence the 1e-300 floor
    other = scaled(config, c)
    for j in range(config.n_tiers):
        want, got = full_report(config, j), full_report(other, j)
        for field in _REPORT_FIELDS:
            np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                       rtol=1e-12, atol=1e-300, err_msg=f"{j} {field}")


@settings(max_examples=40, deadline=None)
@given(_TIER, st.lists(st.floats(0.1, 100.0), min_size=2, max_size=3), _P_MAX,
       _NOISE_DBM)
def test_tiers_alike_but_for_intensity_merge(tier, intensities, p_max,
                                             noise_dbm):
    # tiers that share cutoff, threshold and exponent act as one tier
    # with the summed intensity
    multi, merged = (
        NetworkConfig.from_engineering(
            [replace(tier, intensity=lam * 1e-6) for lam in lams],
            p_max_watts=p_max, noise_dbm=noise_dbm)
        for lams in (intensities, [math.fsum(intensities)])
    )
    want = full_report(merged, 0)
    for j in range(multi.n_tiers):
        got = full_report(multi, j)
        for field in _REPORT_FIELDS:
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=1e-9, abs=1e-12), (j, field)


@settings(max_examples=40, deadline=None)
@given(st.lists(_TIER, min_size=1, max_size=3), st.floats(2.5, 6.0), _P_MAX)
def test_mixture_moment_matches_closed_form_at_one_exponent(tiers, eta, p_max):
    config = NetworkConfig.from_engineering(
        [replace(t, eta=eta) for t in tiers], p_max_watts=p_max)
    for j in range(config.n_tiers):
        for alpha in (2.0 / eta, 1.0):
            np.testing.assert_allclose(
                analytic._mixture_moment(config, j, alpha),
                analytic._common_moment(config, j, alpha), rtol=1e-9,
                err_msg=f"tier {j}, alpha={alpha}",
            )
