"""Simulation engine: PPP sampling, the best-link kernel, per-cell
scheduling, structural invariants of realizations, and estimator
reproducibility.  Heavy model-vs-simulation comparisons live in
test_acceptance.py; everything here runs on small windows."""

import functools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from upcell import analytic, montecarlo
from upcell.model import NetworkConfig, TierConfig
from upcell.montecarlo import (
    SaturationError,
    best_link,
    build_realization,
    estimate_metrics,
    realization_rng,
    sample_ppp,
    wilson_interval,
)


def small_config(lambda_per_km2=20.0, rho_o_dbm=-70.0, window_km=2.0,
                 guard_km=0.5, p_max=1.0, noise_dbm=-90.0, eta=4.0):
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(lambda_per_km2, rho_o_dbm, 0.0, eta)],
        p_max_watts=p_max,
        noise_dbm=noise_dbm,
        window_km=window_km,
        guard_km=guard_km,
    )


def associate(ue, bs_xy, bs_tier, config):
    """Brute-force best link of one UE against every BS: the serving BS
    index and its required power rho_o * r^eta."""
    r = np.hypot(bs_xy[:, 0] - ue[0], bs_xy[:, 1] - ue[1])
    weights = r ** np.array([t.eta for t in config.tiers])[bs_tier]
    i = int(np.argmin(weights))
    return i, config.tiers[bs_tier[i]].rho_o * weights[i]


def kernel(bs_xy, bs_tier, config):
    """The simulator's best-link kernel over an explicit layout, as a
    function of one point: (global BS index, tier, required power)."""
    bs_xy, bs_tier = np.asarray(bs_xy, dtype=float), np.asarray(bs_tier)
    index = [np.flatnonzero(bs_tier == k) for k in range(config.n_tiers)]
    trees = [cKDTree(bs_xy[i]) if len(i) else None for i in index]
    etas = np.array([t.eta for t in config.tiers])

    def serve(point):
        tier, local, weight = best_link(point, trees, etas)
        return int(index[tier][local]), int(tier), config.tiers[tier].rho_o * weight

    return serve


def two_tier_config():
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(10.0, -70.0, 0.0, 3.5),
               TierConfig.from_engineering(10.0, -72.0, 0.0, 4.0)],
        window_km=2.0,
        guard_km=0.3,
    )


def common_exponent_config():
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(10.0, -70.0, 0.0, 4.0),
               TierConfig.from_engineering(10.0, -72.0, 0.0, 4.0)],
        window_km=2.0,
        guard_km=0.3,
    )


class CountingKDTree:
    """cKDTree stand-in that records the size of every 2-D query, as the
    benchmark's traced tree does; the probe's 1-D query is left out."""

    def __init__(self, data):
        self._tree = cKDTree(data)
        self.queries = []

    def query(self, x):
        x = np.asarray(x)
        if x.ndim == 2:
            self.queries.append(len(x))
        return self._tree.query(x)


class TestSamplePpp:
    def test_zero_intensity_empty(self):
        rng = np.random.default_rng(0)
        assert sample_ppp(0.0, 1000.0, rng).shape == (0, 2)

    def test_poisson_mean_count(self):
        rng = np.random.default_rng(1)
        counts = [len(sample_ppp(2e-6, 20000.0, rng)) for _ in range(300)]
        # mean 800; the sample mean of 300 draws has sd ~ 1.63
        assert abs(np.mean(counts) - 800.0) < 8.0
        # index of dispersion ~ 1 for Poisson
        assert 0.8 < np.var(counts) / np.mean(counts) < 1.25

    def test_positions_inside_window(self):
        rng = np.random.default_rng(2)
        pts = sample_ppp(1e-5, 5000.0, rng)
        assert (np.abs(pts) <= 2500.0).all()

    def test_seeded_determinism(self):
        a = sample_ppp(1e-5, 5000.0, np.random.default_rng(7))
        b = sample_ppp(1e-5, 5000.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_ppp(-1.0, 100.0, rng)
        with pytest.raises(ValueError):
            sample_ppp(1.0, 0.0, rng)


class TestAssociate:
    def test_inversion_power_at_100m(self):
        cfg = small_config()
        bs, tier, power = kernel([[100.0, 0.0]], [0], cfg)((0.0, 0.0))
        assert (bs, tier) == (0, 0)
        assert power == pytest.approx(1e-10 * 100.0**4, rel=1e-12)
        assert power <= cfg.p_max

    def test_truncated_at_400m(self):
        cfg = small_config()
        _, _, power = kernel([[0.0, 400.0]], [0], cfg)((0.0, 0.0))
        assert power == pytest.approx(2.56, rel=1e-12)
        assert power > cfg.p_max

    def test_weighted_association_prefers_lower_exponent(self):
        # tier exponents (3, 4): BS A at 10 m with eta=3 has weight 1000,
        # BS B at 6 m with eta=4 has weight 1296 -> A wins despite being
        # farther
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -70.0, 0.0, 3.0),
                   TierConfig.from_engineering(1.0, -70.0, 0.0, 4.0)],
        )
        layout = np.array([[10.0, 0.0], [6.0, 0.0]]), np.array([0, 1])
        bs, tier, power = kernel(*layout, cfg)((0.0, 0.0))
        assert (bs, tier) == (0, 0)
        assert power == pytest.approx(1e-10 * 1000.0, rel=1e-12)
        ref_bs, ref_power = associate((0.0, 0.0), *layout, cfg)
        assert ref_bs == bs and ref_power == pytest.approx(power, rel=1e-12)

    def test_kernel_matches_brute_force_on_a_batch(self):
        cfg = two_tier_config()
        rng = np.random.default_rng(4)
        bs_xy = rng.uniform(-500.0, 500.0, size=(40, 2))
        bs_tier = rng.integers(2, size=40)
        index = [np.flatnonzero(bs_tier == k) for k in range(2)]
        trees = [cKDTree(bs_xy[i]) for i in index]
        etas = np.array([t.eta for t in cfg.tiers])
        points = rng.uniform(-600.0, 600.0, size=(300, 2))
        tier, local, weight = best_link(points, trees, etas)
        for p, k, i, w in zip(points, tier, local, weight):
            bs, power = associate(p, bs_xy, bs_tier, cfg)
            assert index[k][i] == bs
            assert cfg.tiers[k].rho_o * w == pytest.approx(power, rel=1e-12)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            best_link(np.zeros(2), [None], np.array([4.0]))


@pytest.fixture(scope="module")
def realization():
    cfg = small_config()
    return cfg, build_realization(cfg, realization_rng(42, 0))


class TestRealizationInvariants:
    def test_one_ue_per_bs(self, realization):
        _, r = realization
        assert len(np.unique(r.ue_bs)) == len(r.ue_bs)

    def test_power_control_identity(self, realization):
        # received mean power at the serving BS equals the cutoff exactly
        cfg, r = realization
        d = np.hypot(r.ue_xy[:, 0] - r.bs_xy[r.ue_bs, 0],
                     r.ue_xy[:, 1] - r.bs_xy[r.ue_bs, 1])
        received = r.ue_power * d**-4.0
        np.testing.assert_allclose(received, 1e-10, rtol=1e-9)

    def test_power_budget_respected(self, realization):
        cfg, r = realization
        assert (r.ue_power <= cfg.p_max).all()

    def test_serving_bs_is_best_link(self, realization):
        cfg, r = realization
        for i in range(0, len(r.ue_xy), 7):
            assert associate(r.ue_xy[i], r.bs_xy, r.bs_tier, cfg)[0] == r.ue_bs[i]

    def test_every_bs_scheduled_guard_ring_included(self, realization):
        cfg, r = realization
        inner = np.max(np.abs(r.bs_xy), axis=1) <= cfg.window_side / 2.0
        assert (~inner).any()
        np.testing.assert_array_equal(r.ue_bs, np.arange(len(r.bs_xy)))
        half_drop = cfg.window_side / 2.0 + cfg.effective_guard_margin()
        assert (np.abs(r.ue_xy) <= half_drop).all()

    def test_exclusion_at_tagged_bs(self, realization):
        # every interferer is received below the (common) cutoff
        cfg, r = realization
        mask = r.ue_bs != r.tagged_bs
        d = np.hypot(r.ue_xy[mask, 0] - r.bs_xy[r.tagged_bs, 0],
                     r.ue_xy[mask, 1] - r.bs_xy[r.tagged_bs, 1])
        assert (r.ue_power[mask] * d**-4.0 < 1e-10).all()

    def test_sinr_identity_bit_exact(self, realization):
        cfg, r = realization
        assert r.tagged_sinr == 1e-10 * r.tagged_fade / (
            cfg.noise + r.tagged_interference
        )

    def test_tagged_bs_is_nearest_centre(self, realization):
        cfg, r = realization
        inner = np.max(np.abs(r.bs_xy), axis=1) <= cfg.window_side / 2.0
        dist = np.hypot(r.bs_xy[:, 0], r.bs_xy[:, 1])
        dist[~inner] = np.inf
        assert r.tagged_bs == np.argmin(dist)


class TestSingleBaseStation:
    def test_noise_only_sinr(self):
        # find a seed whose first Poisson draw yields exactly one BS, then
        # the tagged link must see zero interference
        cfg = small_config(lambda_per_km2=0.5, window_km=2.0, guard_km=0.0)
        mean = 0.5e-6 * 2000.0**2
        seed = next(
            s for s in range(100)
            if realization_rng(s, 0).poisson(mean) == 1
        )
        r = build_realization(cfg, realization_rng(seed, 0))
        assert len(r.bs_xy) == 1
        assert len(r.ue_xy) == 1
        assert r.tagged_interference == 0.0
        assert r.tagged_sinr == 1e-10 * r.tagged_fade / cfg.noise

    def test_weighted_two_tier_realization(self):
        cfg = two_tier_config()
        r = build_realization(cfg, realization_rng(3, 5))
        # every scheduled UE won its weighted association
        for i in range(0, len(r.ue_xy), 5):
            assert associate(r.ue_xy[i], r.bs_xy, r.bs_tier, cfg)[0] == r.ue_bs[i]
        # interferers are received below their own tier's cutoff
        mask = r.ue_bs != r.tagged_bs
        eta_j = cfg.tiers[r.tagged_tier].eta
        d = np.hypot(r.ue_xy[mask, 0] - r.bs_xy[r.tagged_bs, 0],
                     r.ue_xy[mask, 1] - r.bs_xy[r.tagged_bs, 1])
        own_rho = np.array([cfg.tiers[t].rho_o for t in r.bs_tier[r.ue_bs[mask]]])
        assert (r.ue_power[mask] * d**-eta_j < own_rho).all()


class TestSaturation:
    # every BS has eligible area around it, so a realization fails only
    # through the round cap or an empty inner window: one proposal round
    # cannot schedule all of the ~80 inner BSs of the small window

    def test_infeasible_cutoff_raises(self):
        with pytest.raises(SaturationError):
            build_realization(small_config(), realization_rng(0, 0), max_batches=1)

    def test_all_discarded_raises(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "build_realization",
                            functools.partial(build_realization, max_batches=1))
        with pytest.raises(SaturationError):
            estimate_metrics(small_config(), 100, seed=0)

    def test_empty_inner_window_raises(self):
        cfg = small_config(lambda_per_km2=0.05)
        seed = next(s for s in range(100) if realization_rng(s, 0).poisson(
            0.05e-6 * 3000.0**2) == 0)
        with pytest.raises(SaturationError):
            build_realization(cfg, realization_rng(seed, 0))

    def test_tiny_eligible_disc_is_scheduled(self):
        # rho_o = 0 dBm leaves a 5.6 m eligible disc around every BS
        cfg = small_config(rho_o_dbm=0.0, lambda_per_km2=2.0)
        reach = (cfg.p_max / cfg.tiers[0].rho_o) ** 0.25
        for i in range(5):
            r = build_realization(cfg, realization_rng(0, i))
            np.testing.assert_array_equal(r.ue_bs, np.arange(len(r.bs_xy)))
            d = np.hypot(*(r.ue_xy - r.bs_xy[r.ue_bs]).T)
            assert (d <= reach).all() and reach < 5.7

    def test_interferer_on_tagged_bs_raises(self, monkeypatch):
        # a tier-0 BS on the site of the tagged tier-1 BS, its proposals
        # forced onto that site: its UE interferes from d = 0
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -65.0, 0.0, 3.2),
                   TierConfig.from_engineering(1.0, -75.0, 0.0, 4.0)],
            window_km=1.0, guard_km=0.2,
        )
        monkeypatch.setattr(montecarlo, "sample_ppp", lambda *args: np.zeros((1, 2)))
        monkeypatch.setattr(montecarlo, "_proposal_radius",
                            lambda *args: (np.array([0.0, 0.5]), True))
        with pytest.raises(SaturationError, match="on the tagged BS"):
            build_realization(cfg, realization_rng(0, 0), tagged_tier=1)

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            estimate_metrics(small_config(), 50, seed=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            estimate_metrics(small_config(), 100, seed=0, workers=workers)

    @pytest.mark.parametrize("config, tier", [
        (small_config(), 1), (small_config(), -1), (two_tier_config(), 2),
        (two_tier_config(), 5), (two_tier_config(), -1),
    ])
    def test_tier_out_of_range_rejected(self, config, tier):
        with pytest.raises(ValueError, match="tier"):
            estimate_metrics(config, 100, seed=0, tier=tier)


class TestScheduler:
    def test_cell_bounds_cover_every_cell(self):
        # every point of the square lies within its nearest site's bound
        rng = np.random.default_rng(5)
        half = 1000.0
        points = rng.uniform(-half, half, size=(20000, 2))
        corners = np.array([[s * half, t * half] for s in (-1, 1) for t in (-1, 1)])
        points = np.concatenate([points, corners])
        for n in (1, 2, 3, 8, 200):
            sites = rng.uniform(-half, half, size=(n, 2))
            bound = montecarlo._cell_bounds(sites, half)
            d, nearest = cKDTree(sites).query(points)
            assert (d <= bound[nearest] * (1 + 1e-12)).all()
            assert (bound <= np.hypot(half + np.abs(sites[:, 0]),
                                      half + np.abs(sites[:, 1]))).all()

    def test_ue_uniform_over_clipped_eligible_region(self, monkeypatch):
        # two BSs 200 m apart with a 316 m reach: each eligible region is
        # the reach disc cut by the bisector, so the UE's offset x along
        # the BS axis has cdf A(x) / A(100) with A(x) the disc area left of x
        cfg = small_config()
        reach = (cfg.p_max / cfg.tiers[0].rho_o) ** 0.25
        layout = np.array([[-100.0, 0.0], [100.0, 0.0]])
        monkeypatch.setattr(montecarlo, "sample_ppp", lambda *args: layout)
        offsets = []
        for i in range(400):
            r = build_realization(cfg, realization_rng(21, i))
            offsets += [r.ue_xy[0, 0] + 100.0, 100.0 - r.ue_xy[1, 0]]

        def area_left(x):
            x = np.clip(x, -reach, reach)
            return reach**2 * np.arccos(-x / reach) + x * np.sqrt(reach**2 - x**2)

        result = stats.kstest(offsets, lambda x: area_left(x) / area_left(100.0))
        assert result.pvalue > 0.01

    def test_isolated_ue_radius_uniform_in_area(self):
        # rho_o = 0 dBm: a BS with no other BS within twice the 5.6 m reach
        # has the whole reach disc as eligible region, so r^2 / reach^2 is
        # uniform
        cfg = small_config(rho_o_dbm=0.0)
        reach = (cfg.p_max / cfg.tiers[0].rho_o) ** 0.25
        u = []
        for i in range(4):
            r = build_realization(cfg, realization_rng(8, i))
            d, _ = cKDTree(r.bs_xy).query(r.bs_xy, k=2)
            isolated = d[:, 1] > 2.0 * reach
            rel = r.ue_xy[isolated] - r.bs_xy[r.ue_bs[isolated]]
            u.extend(np.sum(rel**2, axis=1) / reach**2)
        assert len(u) > 500
        assert stats.kstest(u, "uniform").pvalue > 0.01

    # lambda = 1 / km^2: realizations with 2, 1, 2 and 3 BSs
    @pytest.mark.parametrize("lambda_per_km2, indices",
                             [(1.0, (0, 1, 3, 10)), (20.0, (0, 1, 2))])
    def test_unbounded_budget_realization(self, lambda_per_km2, indices):
        # p_max = inf has no reach disc: proposals come from the cell
        # bound alone, mirror sites included
        cfg = small_config(lambda_per_km2=lambda_per_km2, window_km=1.0,
                           guard_km=0.2, p_max=math.inf)
        for i in indices:
            r = build_realization(cfg, realization_rng(13, i))
            np.testing.assert_array_equal(r.ue_bs, np.arange(len(r.bs_xy)))
            assert (np.abs(r.ue_xy) <= 700.0).all()
            for ue, bs in zip(r.ue_xy, r.ue_bs):
                assert associate(ue, r.bs_xy, r.bs_tier, cfg)[0] == bs
            assert not r.probe_truncated


def mixed_layout(rng, n_tiers, half, coincident):
    """Sites of 2-3 tiers with at least two distinct exponents; with
    ``coincident``, the first site of a highest-exponent tier sits on a
    site of a lowest-exponent tier (D = 0)."""
    while True:
        etas = rng.choice([2.8, 3.2, 3.5, 4.0, 5.0], n_tiers)
        if etas.min() < etas.max():
            break
    tier_xy = [rng.uniform(-half, half, size=(rng.integers(1, 25), 2))
               for _ in range(n_tiers)]
    if coincident:
        tier_xy[np.argmax(etas)][0] = tier_xy[np.argmin(etas)][0]
    return tier_xy, etas


def cross_tier_root(d, eta_i, eta_k):
    """The root r* of eta_k ln r - eta_i ln(d + r), by bracketing in ln r."""
    g = lambda t: eta_k * t - eta_i * math.log(d + math.exp(t))
    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    return math.exp(brentq(g, 0.0, hi, xtol=1e-15))


def radius_without_cross_bound(tier_xy, etas, reach, half):
    """Per BS, the proposal radius that the cross-tier bound leaves alone,
    and per tier whether the cell bound applies: it does when
    pi n_k / (2 half)^2 times the mean of min(reach, r*)^2 over the tier
    exceeds ``TRIANGULATE_ABOVE``, r* the least cross-tier root
    (bracketed)."""
    trees = [cKDTree(p) if len(p) else None for p in tier_xy]
    old, cells = [], []
    for k, sites in enumerate(tier_xy):
        if not len(sites):
            continue
        cut = np.full(len(sites), reach[k])
        for b, site in enumerate(sites):
            for i, eta_i in enumerate(etas):
                if eta_i < etas[k] and trees[i] is not None:
                    d = trees[i].query(site)[0]
                    cut[b] = min(cut[b], cross_tier_root(d, eta_i, etas[k]))
        load = math.pi * len(sites) / (2.0 * half) ** 2 * np.mean(cut**2)
        cells.append(load > montecarlo.TRIANGULATE_ABOVE)
        old.append(np.minimum(reach[k], montecarlo._cell_bounds(sites, half))
                   if cells[-1] else np.full(len(sites), reach[k]))
    return np.concatenate(old), cells


class TestCrossTierBound:
    # a BS of a higher-exponent tier serves no point beyond r*, the root
    # of eta_k ln r - eta_i ln(D + r), D the distance to its nearest BS of
    # a lower-exponent tier i

    HALF = 1000.0

    def layouts(self):
        rng = np.random.default_rng(17)
        for case in range(30):
            tier_xy, etas = mixed_layout(rng, 2 + case % 2, self.HALF,
                                         coincident=case % 3 == 0)
            # finite reach on most layouts, p_max = inf on every fourth
            reach = (np.full(len(etas), np.inf) if case % 4 == 0
                     else rng.uniform(150.0, 600.0, len(etas)))
            trees = [cKDTree(p) for p in tier_xy]
            radius, queried = montecarlo._proposal_radius(
                tier_xy, trees, etas, reach, self.HALF)
            assert queried
            old, _ = radius_without_cross_bound(tier_xy, etas, reach, self.HALF)
            yield tier_xy, etas, reach, trees, radius, old

    def test_served_points_lie_within_radius(self):
        rng = np.random.default_rng(3)
        bound = n_points = 0
        for tier_xy, etas, reach, trees, radius, old in self.layouts():
            sites = np.concatenate(tier_xy)
            offsets = np.cumsum([0] + [len(p) for p in tier_xy[:-1]])
            # uniform points plus a 3 m disc about every site, which holds
            # all of a coincident BS's 1 m lobe
            near = rng.uniform(-3.0, 3.0, size=(len(sites), 40, 2)) + sites[:, None]
            points = np.concatenate([
                rng.uniform(-self.HALF, self.HALF, size=(20000, 2)),
                np.clip(near.reshape(-1, 2), -self.HALF, self.HALF),
            ])
            tier, local, _ = best_link(points, trees, etas)
            served = offsets[tier] + local
            d = np.hypot(*(points - sites[served]).T)
            eligible = d <= reach[tier]
            assert (d[eligible] <= radius[served[eligible]]).all()
            bound += np.count_nonzero(radius < old)
            n_points += np.count_nonzero(eligible)
        # the cross-tier bound is what binds for a good share of the BSs
        assert bound > 300 and n_points > 400000

    def test_radius_is_the_inflated_root(self):
        binding = 0
        for tier_xy, etas, reach, trees, radius, old in self.layouts():
            sites = np.concatenate(tier_xy)
            eta_bs = np.repeat(etas, [len(p) for p in tier_xy])
            for b, (site, eta_k) in enumerate(zip(sites, eta_bs)):
                near = [(trees[i].query(site)[0], eta_i)
                        for i, eta_i in enumerate(etas) if eta_i < eta_k]
                roots = [(cross_tier_root(d, eta_i, eta_k), eta_i, d)
                         for d, eta_i in near]
                if not roots:
                    assert radius[b] == old[b]
                    continue
                root, eta_i, d = min(roots)
                if radius[b] < old[b]:
                    binding += 1
                    g = eta_k * math.log(radius[b]) - eta_i * math.log(d + radius[b])
                    assert g >= 0.0
                    assert root * (1 - 1e-12) <= radius[b] <= root * (1 + 1e-9 + 1e-12)
                else:
                    # the bound was not missed where it binds
                    assert radius[b] == old[b]
                    assert old[b] <= root * (1 + 1e-9 + 1e-12)
        assert binding > 300

    def test_coincident_sites_give_a_one_metre_lobe(self):
        tier_xy = [np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [500.0, 0.0]])]
        etas = np.array([3.2, 4.0])
        trees = [cKDTree(p) for p in tier_xy]
        radius, _ = montecarlo._proposal_radius(
            tier_xy, trees, etas, np.full(2, np.inf), self.HALF)
        assert radius[1] == pytest.approx(1.0, rel=2e-9) and radius[1] >= 1.0

    @staticmethod
    def drawn_layout(config, index):
        """The PPP layout of realization ``index`` at seed 42, with the
        arguments of the proposal radius."""
        rng = realization_rng(42, index)
        half = config.window_side / 2.0 + config.effective_guard_margin()
        tier_xy = [sample_ppp(t.intensity, 2.0 * half, rng) for t in config.tiers]
        etas = np.array([t.eta for t in config.tiers])
        reach = np.array([(config.p_max / t.rho_o) ** (1.0 / t.eta)
                          for t in config.tiers])
        return tier_xy, [cKDTree(p) for p in tier_xy], etas, reach, half

    # pi lambda_k reach_k^2 is 6.8 (single), 2.1 (single, -60 dBm) and
    # 3.5 / 3.3 or 3.1 / 4.9 (common, realization 0 or 1)
    @pytest.mark.parametrize("config, index, cells", [
        (small_config(), 0, [True]),
        (small_config(rho_o_dbm=-60.0), 0, [False]),
        (common_exponent_config(), 0, [False, False]),
        (common_exponent_config(), 1, [False, True]),
    ], ids=["single", "single-reach", "common", "common-mixed"])
    def test_single_exponent_radius_untouched(self, config, index, cells):
        tier_xy, trees, etas, reach, half = self.drawn_layout(config, index)
        radius, queried = montecarlo._proposal_radius(tier_xy, trees, etas, reach, half)
        assert not queried
        old, applied = radius_without_cross_bound(tier_xy, etas, reach, half)
        assert applied == cells
        np.testing.assert_array_equal(radius, old)

    @pytest.mark.parametrize("config", [small_config(rho_o_dbm=-60.0),
                                        common_exponent_config()],
                             ids=["single", "common"])
    def test_served_points_lie_within_skipped_radius(self, config):
        # layouts on which the rule leaves some tier without its cell bound
        rng = np.random.default_rng(3)
        n_points = 0
        for index in range(5):
            tier_xy, trees, etas, reach, half = self.drawn_layout(config, index)
            radius, _ = montecarlo._proposal_radius(tier_xy, trees, etas, reach, half)
            _, applied = radius_without_cross_bound(tier_xy, etas, reach, half)
            assert not all(applied)
            sites = np.concatenate(tier_xy)
            offsets = np.cumsum([0] + [len(p) for p in tier_xy[:-1]])
            points = rng.uniform(-half, half, size=(20000, 2))
            tier, local, _ = best_link(points, trees, etas)
            served = offsets[tier] + local
            d = np.hypot(*(points - sites[served]).T)
            eligible = d <= reach[tier]
            assert (d[eligible] <= radius[served[eligible]]).all()
            n_points += np.count_nonzero(eligible)
        assert n_points > 50000

    @pytest.mark.parametrize("config, expected", [
        (small_config(), [(9, 1762), (6, 1056), (5, 847)]),
        (common_exponent_config(), [(6, 1668), (7, 1478), (8, 2053)]),
    ], ids=["single", "common"])
    def test_single_exponent_counts_untouched(self, config, expected):
        # rounds and proposals of the sampler without the cross-tier bound,
        # on the scheduler's own stream
        counts = []
        for i in range(3):
            r = build_realization(config, realization_rng(42, i))
            counts.append((r.n_batches, r.n_ue_dropped))
        assert counts == expected

    def test_ue_uniform_over_two_tier_lobe(self, monkeypatch):
        # a tier-1 BS (eta = 4) at the origin with a tier-0 BS (eta = 3.2)
        # 200 m away serves the lobe |x|^4 <= |x - a|^3.2, well inside its
        # 421 m reach; compare its UEs with a brute-force rejection sample
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -65.0, 0.0, 3.2),
                   TierConfig.from_engineering(10.0, -75.0, 0.0, 4.0)],
            window_km=1.0, guard_km=0.2,
        )
        macro = np.array([200.0, 0.0])
        layout = {cfg.tiers[0].intensity: macro[np.newaxis],
                  cfg.tiers[1].intensity: np.zeros((1, 2))}
        monkeypatch.setattr(montecarlo, "sample_ppp", lambda lam, *args: layout[lam])
        ue = np.array([build_realization(cfg, realization_rng(5, i)).ue_xy[1]
                       for i in range(400)])

        box = np.random.default_rng(6).uniform(-100.0, 100.0, size=(200000, 2))
        served = (np.hypot(*box.T) ** 4.0 <= np.hypot(*(box - macro).T) ** 3.2)
        ref = box[served]
        # the box holds the whole lobe: no served point near its edge
        assert np.max(np.abs(ref)) < 98.0
        for sim, brute in ((ue[:, 0], ref[:, 0]),
                           (np.hypot(*ue.T), np.hypot(*ref.T))):
            assert stats.ks_2samp(sim, brute).pvalue > 0.01

    @pytest.mark.parametrize("config", [two_tier_config(), small_config()],
                             ids=["mixed", "single"])
    def test_counters_match_tree_queries(self, config, monkeypatch):
        made = []

        def counting_tree(data):
            made.append(CountingKDTree(data))
            return made[-1]

        monkeypatch.setattr(montecarlo, "cKDTree", counting_tree)
        r = build_realization(config, realization_rng(3, 5))
        assert len(made) == config.n_tiers
        for tree in made:
            assert len(tree.queries) == r.n_batches
            assert sum(tree.queries) == r.n_ue_dropped


class TestReproducibility:
    def test_identical_seed_identical_realization(self):
        cfg = small_config()
        a = build_realization(cfg, realization_rng(9, 4))
        b = build_realization(cfg, realization_rng(9, 4))
        np.testing.assert_array_equal(a.bs_xy, b.bs_xy)
        np.testing.assert_array_equal(a.ue_xy, b.ue_xy)
        assert a.tagged_sinr == b.tagged_sinr

    @pytest.mark.parametrize("config", [small_config(), two_tier_config()],
                             ids=["single", "mixed"])
    def test_scheduler_moves_no_other_stage(self, config, monkeypatch):
        # one layout scheduled with every cell bound and with none: the
        # proposals differ, the layout, probe and per-BS fades do not
        probes = []

        def recording_link(points, trees, etas):
            if np.ndim(points) == 1:
                probes.append(np.array(points))
            return best_link(points, trees, etas)

        monkeypatch.setattr(montecarlo, "best_link", recording_link)
        runs = []
        for cutoff in (0.0, math.inf):
            monkeypatch.setattr(montecarlo, "TRIANGULATE_ABOVE", cutoff)
            runs.append(build_realization(config, realization_rng(3, 5)))
        a, b = runs
        assert a.n_ue_dropped != b.n_ue_dropped
        assert not np.array_equal(a.ue_xy, b.ue_xy)
        np.testing.assert_array_equal(a.bs_xy, b.bs_xy)
        np.testing.assert_array_equal(probes[0], probes[1])
        assert a.probe_truncated == b.probe_truncated
        assert a.tagged_fade == b.tagged_fade
        # BS b's fade is draw b of the fade stream, the second jump
        fades = np.random.Generator(
            realization_rng(3, 5).bit_generator.jumped(2)).exponential(size=len(a.bs_xy))
        for r in runs:
            assert r.tagged_fade == fades[r.tagged_bs]
            mask = r.ue_bs != r.tagged_bs
            d = np.hypot(*(r.ue_xy[mask] - r.bs_xy[r.tagged_bs]).T)
            eta_j = config.tiers[r.tagged_tier].eta
            expected = np.sum(r.ue_power[mask] * fades[r.ue_bs[mask]] * d**-eta_j)
            assert r.tagged_interference == pytest.approx(expected, rel=1e-12)

    def test_report_bitwise_stable_across_workers(self):
        cfg = small_config()
        r1 = estimate_metrics(cfg, 120, seed=11, workers=1)
        r2 = estimate_metrics(cfg, 120, seed=11, workers=2)
        r3 = estimate_metrics(cfg, 120, seed=11, workers=1)
        assert r1 == r2 == r3

    def test_different_seeds_differ(self):
        cfg = small_config()
        r1 = estimate_metrics(cfg, 120, seed=11)
        r2 = estimate_metrics(cfg, 120, seed=12)
        assert r1.sinr_outage != r2.sinr_outage


class TestDistanceLaw:
    def test_nearest_bs_distance_is_rayleigh(self):
        # 10^4 fresh PPP draws; the nearest-BS distance from the centre has
        # cdf 1 - exp(-pi Lambda r^2)
        lam, side = 2e-6, 8000.0
        rng = np.random.default_rng(2024)
        dist = np.empty(10000)
        for i in range(len(dist)):
            pts = sample_ppp(lam, side, rng)
            dist[i] = np.min(np.hypot(pts[:, 0], pts[:, 1]))
        result = stats.kstest(dist, lambda r: 1.0 - np.exp(-math.pi * lam * r**2))
        assert result.pvalue > 0.01


class TestEstimates:
    def test_probe_truncation_matches_analytic(self):
        cfg = small_config(lambda_per_km2=10.0, window_km=4.0, guard_km=1.0)
        sim = estimate_metrics(cfg, 400, seed=3, workers=2)
        o_p = analytic.truncation_outage(cfg, 0)
        k = round(sim.truncation_outage.mean * sim.truncation_outage.n_samples)
        lo, hi = wilson_interval(k, sim.truncation_outage.n_samples)
        assert lo <= o_p <= hi

    def test_composite_fields_follow_identities(self):
        cfg = small_config()
        sim = estimate_metrics(cfg, 150, seed=5)
        o_p, o_s = sim.truncation_outage.mean, sim.sinr_outage.mean
        assert sim.total_outage.mean == pytest.approx(
            o_p + (1 - o_p) * o_s, abs=1e-15
        )
        assert sim.effective_spectral_efficiency.mean == pytest.approx(
            (1 - o_p) * sim.spectral_efficiency.mean, abs=1e-15
        )

    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
