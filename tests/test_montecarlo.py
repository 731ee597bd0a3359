"""Simulation engine: PPP sampling, the best-link kernel, per-cell
scheduling, structural invariants of realizations, and estimator
reproducibility.  Heavy model-vs-simulation comparisons live in
test_acceptance.py; everything here runs on small windows."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError, Voronoi, cKDTree

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


def in_box(points, owner, lo, hi):
    """Whether each point lies, to the micrometre, in the box [lo, hi] of
    its ``owner``: a circumcentre may round across the square's edge."""
    tol = 1e-6
    return ((lo[owner] - tol <= points) & (points <= hi[owner] + tol)).all(axis=1)


def in_region(points, owner, regions):
    """Whether each point lies in the proposal region of its ``owner`` BS:
    its box, or its disc."""
    disc = np.hypot(*(points - regions.xy[owner]).T) <= regions.radius[owner]
    return np.where(regions.box[owner],
                    in_box(points, owner, regions.lo, regions.hi), disc)


def mirrored(sites, half):
    """``sites`` followed by their convex-hull sites (every site, when they
    span no hull) mirrored across the four edges of [-half, half]^2."""
    try:
        hull = sites[ConvexHull(sites).vertices]
    except QhullError:
        hull = sites
    flip_x, flip_y = hull * (-1.0, 1.0), hull * (1.0, -1.0)
    return np.concatenate([sites, flip_x + (2 * half, 0), flip_x - (2 * half, 0),
                           flip_y + (0, 2 * half), flip_y - (0, 2 * half)])


def two_tier_config():
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(10.0, -70.0, 0.0, 3.5),
               TierConfig.from_engineering(10.0, -72.0, 0.0, 4.0)],
        window_km=2.0,
        guard_km=0.3,
    )


def common_exponent_config(rho_o_dbm=(-70.0, -72.0)):
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(10.0, rho_o_dbm[0], 0.0, 4.0),
               TierConfig.from_engineering(10.0, rho_o_dbm[1], 0.0, 4.0)],
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


def drawn_layout(config, index):
    """The PPP layout of realization ``index`` at seed 42, with the
    arguments of the proposal regions."""
    rng = realization_rng(42, index)
    half = config.window_side / 2.0 + config.effective_guard_margin()
    tier_xy = [sample_ppp(t.intensity, 2.0 * half, rng) for t in config.tiers]
    etas = np.array([t.eta for t in config.tiers])
    reach = np.array([(config.p_max / t.rho_o) ** (1.0 / t.eta)
                      for t in config.tiers])
    return tier_xy, [cKDTree(p) for p in tier_xy], etas, reach, half


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
    # through the round cap or an empty inner window: at -60 dBm the small
    # window keeps its discs, and one proposal round in them cannot
    # schedule all of its ~80 inner BSs

    def test_infeasible_cutoff_raises(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MAX_BATCHES", 1)
        with pytest.raises(SaturationError, match=r"^33 inner-window BSs unscheduled "
                           r"after 1 rounds \(161 points queried per tree\)$"):
            build_realization(small_config(rho_o_dbm=-60.0), realization_rng(0, 0))

    def test_all_discarded_raises(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MAX_BATCHES", 1)
        with pytest.raises(SaturationError):
            estimate_metrics(small_config(rho_o_dbm=-60.0), 100, seed=0)

    def test_mostly_discarded_raises(self):
        # 0.05 BS / km^2 leaves the 2 km inner window empty in about 82% of
        # realizations: the feasible few are no estimate of the network
        with pytest.raises(SaturationError, match=r"^\d+/100 realizations discarded"):
            estimate_metrics(small_config(lambda_per_km2=0.05), 100, seed=1)

    def test_empty_inner_window_raises(self):
        cfg = small_config(lambda_per_km2=0.05)
        seed = next(s for s in range(100) if realization_rng(s, 0).poisson(
            0.05e-6 * 3000.0**2) == 0)
        with pytest.raises(SaturationError):
            build_realization(cfg, realization_rng(seed, 0))

    def test_no_inner_bs_of_tagged_tier_raises(self, monkeypatch):
        # tier 1's one BS lies in the guard ring, outside the 2 km window
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -65.0, 0.0, 3.2),
                   TierConfig.from_engineering(10.0, -75.0, 0.0, 4.0)],
            window_km=2.0, guard_km=0.3,
        )
        layout = {cfg.tiers[0].intensity: np.zeros((1, 2)),
                  cfg.tiers[1].intensity: np.array([[1100.0, 0.0]])}
        monkeypatch.setattr(montecarlo, "sample_ppp", lambda lam, *args: layout[lam])
        with pytest.raises(SaturationError,
                           match="^no tier-1 base station inside the inner window$"):
            build_realization(cfg, realization_rng(0, 0), tagged_tier=1)
        build_realization(cfg, realization_rng(0, 0), tagged_tier=0)

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
        regions = montecarlo._proposal_regions

        def forced(*args):
            found, queried = regions(*args)
            found.radius = np.array([0.0, 0.5])
            return found, queried

        monkeypatch.setattr(montecarlo, "_proposal_regions", forced)
        with pytest.raises(SaturationError, match="on the tagged BS"):
            build_realization(cfg, realization_rng(0, 0), tagged_tier=1)

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            estimate_metrics(small_config(), 50, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must fit"):
            estimate_metrics(small_config(), 100, seed=seed)

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
    def test_cell_boxes_match_voronoi_extents(self):
        # each box is the extent of the site's Voronoi region in the same
        # mirrored set, an open cell's box is unbounded, and every point of
        # the square lies in the box of its nearest site
        rng = np.random.default_rng(5)
        half = 1000.0
        points = rng.uniform(-half, half, size=(20000, 2))
        corners = np.array([[s * half, t * half] for s in (-1, 1) for t in (-1, 1)])
        points = np.concatenate([points, corners])
        closed = 0
        for n in (1, 2, 3, 8, 200, 1000):
            sites = rng.uniform(-half, half, size=(n, 2))
            lo, hi = montecarlo._cell_boxes(sites, half)
            _, nearest = cKDTree(sites).query(points)
            assert in_box(points, nearest, lo, hi).all()
            vor = Voronoi(mirrored(sites, half))
            for i in range(n):
                region = vor.regions[vor.point_region[i]]
                if -1 in region or not region:
                    assert (lo[i] == -np.inf).all() and (hi[i] == np.inf).all()
                    continue
                closed += 1
                vertices = vor.vertices[region]
                for got, want in ((lo[i], vertices.min(axis=0)),
                                  (hi[i], vertices.max(axis=0))):
                    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * half)
        assert closed > 1000

    def test_collinear_and_repeated_sites(self):
        # sites on one line span no convex hull, so every site is mirrored
        # and its strip of the square closes, as do the cells of one site
        # and of two; a repeated site is left out of the triangulation, and
        # its box is open until the reach and the square clip it
        half = 1000.0
        rng = np.random.default_rng(2)
        points = rng.uniform(-half, half, size=(20000, 2))
        line = np.array([[-600.0, -300.0], [0.0, 0.0], [200.0, 100.0], [700.0, 350.0]])
        repeated = np.array([[0.0, 0.0], [0.0, 0.0], [400.0, 300.0], [-500.0, 100.0]])
        one, two = np.array([[300.0, -200.0]]), np.array([[0.0, 0.0], [10.0, 0.0]])
        for sites, n_open in ((line, 0), (repeated, 1), (one, 0), (two, 0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lo, hi = montecarlo._cell_boxes(sites, half)
                regions, _ = montecarlo._proposal_regions(
                    [sites], [cKDTree(sites)], np.array([4.0]), np.array([np.inf]), half)
                pts = regions.propose(np.arange(len(sites)), 100, rng)
            assert regions.box.all()
            assert np.isfinite(pts).all() and (np.abs(pts) <= half).all()
            unbounded = np.isinf(lo).all(axis=1) & np.isinf(hi).all(axis=1)
            assert np.count_nonzero(unbounded) == n_open
            owner = cKDTree(sites).query(points)[1]
            if n_open:
                # one copy of the repeated site is open, the other holds
                # every point nearest either copy
                assert unbounded[0] != unbounded[1]
                owner[owner < 2] = 1 if unbounded[0] else 0
            assert in_box(points, owner, lo, hi).all()
            assert in_region(points, owner, regions).all()

    def test_boxes_lie_in_the_drop_square(self):
        # cells of edge sites reach past the square; the boxes stop at it
        # (load pi lambda reach^2 about 21, above ``TRIANGULATE_ABOVE``)
        tier_xy, trees, etas, reach, half = drawn_layout(
            small_config(rho_o_dbm=-80.0), 0)
        regions, _ = montecarlo._proposal_regions(tier_xy, trees, etas, reach, half)
        assert regions.box.all()
        assert (regions.lo >= -half).all() and (regions.hi <= half).all()
        lo, hi = montecarlo._cell_boxes(tier_xy[0], half)
        leaks = ((lo < -half) | (hi > half)) & np.isfinite(lo) & np.isfinite(hi)
        assert leaks.any()

    def test_leaky_cell_box_clipped_to_the_edge(self):
        # site 0 lies below the hull edge from site 1 to site 2, so it is
        # not mirrored, and its cell runs up to y = 1275 m past the top
        # edge at 1000 m, where the mirrors of sites 1 and 2 close it
        half = 1000.0
        sites = np.array([[0.0, 900.0], [-300.0, 950.0], [300.0, 950.0],
                          [0.0, -500.0], [-900.0, -900.0], [900.0, -900.0]])
        lo, hi = montecarlo._cell_boxes(sites, half)
        assert hi[0, 1] == pytest.approx(1275.0, rel=1e-12)
        regions, _ = montecarlo._proposal_regions(
            [sites], [cKDTree(sites)], np.array([4.0]), np.array([np.inf]), half)
        assert regions.box[0] and regions.hi[0, 1] == half
        np.testing.assert_array_equal(regions.lo[0], lo[0])
        assert (regions.lo >= -half).all() and (regions.hi <= half).all()

    @pytest.mark.parametrize("config, index", [
        (small_config(rho_o_dbm=-80.0), 0),
        (common_exponent_config((-70.0, -82.0)), 1),
        (two_tier_config(), 0),
        (small_config(window_km=1.0, guard_km=0.2, p_max=math.inf), 0),
    ], ids=["single", "common", "mixed", "unbounded"])
    def test_served_points_lie_in_their_region(self, config, index):
        # brute force: every point of the drop square that a BS serves
        # within budget lies in that BS's proposal region
        tier_xy, trees, etas, reach, half = drawn_layout(config, index)
        regions, _ = montecarlo._proposal_regions(tier_xy, trees, etas, reach, half)
        points = np.random.default_rng(7).uniform(-half, half, size=(40000, 2))
        tier, local, weight = best_link(points, trees, etas)
        served = np.cumsum([0] + [len(p) for p in tier_xy[:-1]])[tier] + local
        rhos = np.array([t.rho_o for t in config.tiers])
        eligible = rhos[tier] * weight <= config.p_max
        assert in_region(points[eligible], served[eligible], regions).all()
        assert np.count_nonzero(regions.box[served[eligible]]) > 10000

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

    def test_ue_uniform_over_cell_within_reach(self, monkeypatch):
        # BS 0's cell is about 850 m by 310 m, and its reach is 316 m: with
        # every tier triangulated it draws from its box, which the reach
        # bounds along x and the cell along y; the disc cuts a third of the
        # cell off, and its UEs must match a brute-force uniform sample of
        # the cell within reach
        cfg = small_config()
        reach = (cfg.p_max / cfg.tiers[0].rho_o) ** 0.25
        layout = np.array([[0.0, 0.0], [30.0, 200.0], [-20.0, -420.0],
                           [700.0, 40.0], [-1000.0, -30.0]])
        monkeypatch.setattr(montecarlo, "sample_ppp", lambda *args: layout)
        monkeypatch.setattr(montecarlo, "TRIANGULATE_ABOVE", 0.0)
        regions, _ = montecarlo._proposal_regions(
            [layout], [cKDTree(layout)], np.array([4.0]), np.array([reach]), 1500.0)
        assert regions.box[0]
        np.testing.assert_array_equal(regions.hi[0, 0] - regions.lo[0, 0], 2 * reach)
        assert regions.hi[0, 1] - regions.lo[0, 1] < 1.3 * reach
        ue = []
        for i in range(400):
            r = build_realization(cfg, realization_rng(5, i))
            assert r.ue_bs[0] == 0
            ue.append(r.ue_xy[0])
        ue = np.array(ue)

        box = np.random.default_rng(6).uniform(-320.0, 320.0, size=(200000, 2))
        cell = cKDTree(layout).query(box)[1] == 0
        ref = box[cell & (np.hypot(*box.T) <= reach)]
        area = np.prod(regions.hi[0] - regions.lo[0])
        assert area > 1.3 * 640.0**2 * len(ref) / len(box)
        assert np.max(np.abs(ref)) < 317.0
        for sim, brute in ((ue[:, 0], ref[:, 0]), (ue[:, 1], ref[:, 1]),
                           (np.hypot(*ue.T), np.hypot(*ref.T))):
            assert stats.ks_2samp(sim, brute).pvalue > 0.01

    # the centre BS's cell is cut by its 422 m reach.  On one tier every
    # BS is seeded; on two, the four others form a seeded tier 0 and the
    # centre BS is tier 1 on discs, so that seed points land in a BS of a
    # tier that is not seeded
    @pytest.mark.parametrize("two_tiers", [False, True],
                             ids=["seeded-tier", "unseeded-tier"])
    def test_seed_round_keeps_ue_uniform(self, two_tiers, monkeypatch):
        # the centre BS keeps the first of the seed points it serves within
        # budget, two or more in most realizations: its UEs must match a
        # brute-force uniform sample of its cell within reach, which any
        # other pick among those points, e.g. the nearest, would not
        centre = np.zeros((1, 2))
        others = np.array([[600.0, 100.0], [-150.0, 580.0], [-620.0, -50.0],
                           [80.0, -600.0]])
        tier_xy = [others, centre] if two_tiers else [np.concatenate([centre, others])]
        # the loads are 1.1 and 0.3 on two tiers, 1.4 on one
        seed_above, mine, seeded = ((0.5, 4, [True] * 4 + [False]) if two_tiers
                                    else (0.0, 0, [True] * 5))
        cfg = NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(len(p), -75.0, 0.0, 4.0)
                   for p in tier_xy],
            window_km=1.0, guard_km=0.2,
        )
        reach = (cfg.p_max / cfg.tiers[0].rho_o) ** 0.25
        layout = {t.intensity: p for t, p in zip(cfg.tiers, tier_xy)}
        monkeypatch.setattr(montecarlo, "sample_ppp", lambda lam, *args: layout[lam])
        monkeypatch.setattr(montecarlo, "SEED_ABOVE", seed_above)
        regions, _ = montecarlo._proposal_regions(
            tier_xy, [cKDTree(p) for p in tier_xy], np.full(len(tier_xy), 4.0),
            np.full(len(tier_xy), reach), 700.0)
        assert list(regions.seeded) == seeded and not regions.box.any()

        queries = []

        def recording_link(points, trees, etas):
            if np.ndim(points) == 2:
                queries.append(points)
            return best_link(points, trees, etas)

        monkeypatch.setattr(montecarlo, "best_link", recording_link)
        ue, from_seed = [], 0
        for i in range(400):
            queries.clear()
            # the centre BS is the one inner-window BS
            r = build_realization(cfg, realization_rng(9, i), len(tier_xy) - 1)
            (xy,) = r.ue_xy[r.ue_bs == mine]
            ue.append(xy)
            # the first query is the seed round, 3 points per seeded BS
            assert len(queries[0]) == 3 * sum(seeded)
            from_seed += (queries[0] == xy).all(axis=1).any()
        ue = np.array(ue)
        # a seed point lands in the centre BS's region in 92-96% of them
        assert from_seed > 300

        box = np.random.default_rng(6).uniform(-reach, reach, size=(200000, 2))
        in_reach = np.hypot(*box.T) <= reach
        cell = cKDTree(np.concatenate(tier_xy)).query(box)[1] == mine
        ref = box[cell & in_reach]
        # the reach cuts the cell, and the cell the reach disc
        assert (cell & ~in_reach).any() and (~cell & in_reach).any()
        for sim, brute in ((ue[:, 0], ref[:, 0]), (ue[:, 1], ref[:, 1]),
                           (np.hypot(*ue.T), np.hypot(*ref.T))):
            assert stats.ks_2samp(sim, brute).pvalue > 0.01

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
    its reach, and per tier its route by the load L = pi n_k / (2 half)^2
    times the mean of min(reach, r*)^2 over the tier, r* the least
    cross-tier root (bracketed): "box" above ``TRIANGULATE_ABOVE``, else
    "seeded" above ``SEED_ABOVE``, else "disc"."""
    trees = [cKDTree(p) if len(p) else None for p in tier_xy]
    old, routes = [], []
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
        routes.append("box" if load > montecarlo.TRIANGULATE_ABOVE
                      else "seeded" if load > montecarlo.SEED_ABOVE else "disc")
        old.append(np.full(len(sites), reach[k]))
    return np.concatenate(old), routes


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
            regions, queried = montecarlo._proposal_regions(
                tier_xy, trees, etas, reach, self.HALF)
            assert queried
            radius = regions.radius
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
        regions, _ = montecarlo._proposal_regions(
            tier_xy, trees, etas, np.full(2, np.inf), self.HALF)
        radius = regions.radius
        assert radius[1] == pytest.approx(1.0, rel=2e-9) and radius[1] >= 1.0

    # pi lambda_k reach_k^2 is 21.4 (single), 6.8 (single, -70 dBm), 2.1
    # (single, -60 dBm), 3.5 / 3.3 (common, realization 0), 3.1 / 15.5
    # (common, tier 1 at -82 dBm, realization 1) and 3.1 / 4.9 (common,
    # realization 1)
    @pytest.mark.parametrize("config, index, routes", [
        (small_config(rho_o_dbm=-80.0), 0, ["box"]),
        (small_config(), 0, ["seeded"]),
        (small_config(rho_o_dbm=-60.0), 0, ["disc"]),
        (common_exponent_config(), 0, ["disc", "disc"]),
        (common_exponent_config((-70.0, -82.0)), 1, ["disc", "box"]),
        (common_exponent_config(), 1, ["disc", "seeded"]),
    ], ids=["single", "single-seeded", "single-reach", "common", "common-mixed",
            "common-seeded"])
    def test_single_exponent_radius_untouched(self, config, index, routes):
        tier_xy, trees, etas, reach, half = drawn_layout(config, index)
        regions, queried = montecarlo._proposal_regions(
            tier_xy, trees, etas, reach, half)
        assert not queried
        old, applied = radius_without_cross_bound(tier_xy, etas, reach, half)
        assert applied == routes
        np.testing.assert_array_equal(regions.radius, old)
        # every BS of a triangulated tier draws from a box, every BS of a
        # seeded tier is marked, and no other BS is either
        counts = [len(p) for p in tier_xy]
        routes = np.repeat(routes, counts)
        np.testing.assert_array_equal(regions.box, routes == "box")
        np.testing.assert_array_equal(regions.seeded, routes == "seeded")

    @pytest.mark.parametrize("config", [small_config(rho_o_dbm=-60.0),
                                        common_exponent_config()],
                             ids=["single", "common"])
    def test_served_points_lie_within_skipped_radius(self, config):
        # layouts on which the rule leaves some tier untriangulated
        rng = np.random.default_rng(3)
        n_points = 0
        for index in range(5):
            tier_xy, trees, etas, reach, half = drawn_layout(config, index)
            regions, _ = montecarlo._proposal_regions(
                tier_xy, trees, etas, reach, half)
            radius = regions.radius
            _, applied = radius_without_cross_bound(tier_xy, etas, reach, half)
            assert set(applied) != {"box"}
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
        (small_config(rho_o_dbm=-80.0), [(3, 350), (4, 410), (3, 365)]),
        (common_exponent_config((-70.0, -82.0)), [(7, 1462), (6, 1440), (6, 1263)]),
        (small_config(), [(6, 1398), (5, 1174), (5, 1187)]),
        (common_exponent_config(), [(6, 1668), (5, 1284), (6, 1577)]),
    ], ids=["single", "common", "single-seeded", "common-seeded"])
    def test_single_exponent_counts_untouched(self, config, expected):
        # rounds and proposals of the sampler without the cross-tier bound,
        # on the scheduler's own stream: boxes and discs as v0.4.0 drew
        # them, and a seed round on every seeded case but realization 0 of
        # common-seeded, whose two tiers both keep discs
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

    # one case per route: single is seeded, boxes and disc are the same
    # network at -80 and -60 dBm, and mixed adds the cross-tier query
    @pytest.mark.parametrize("config", [
        two_tier_config(), small_config(), small_config(rho_o_dbm=-80.0),
        small_config(rho_o_dbm=-60.0),
    ], ids=["mixed", "single", "boxes", "disc"])
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


def stream_digest(config):
    """SHA-256 of the UEs (to the micrometre, so that a last-bit
    difference in sin or cos between platforms does not count), the
    tagged BS and the probe of realizations 0-2 at seed 42."""
    h = hashlib.sha256()
    for i in range(3):
        r = build_realization(config, realization_rng(42, i))
        h.update(np.round(r.ue_xy, 6).tobytes())
        h.update(np.int64(r.tagged_bs).tobytes())
        h.update(np.bool_(r.probe_truncated).tobytes())
    return h.hexdigest()


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
        # one layout scheduled on every route, every tier triangulated,
        # every tier seeded and every tier on discs: the proposals differ,
        # the layout, probe and per-BS fades do not
        probes = []

        def recording_link(points, trees, etas):
            if np.ndim(points) == 1:
                probes.append(np.array(points))
            return best_link(points, trees, etas)

        monkeypatch.setattr(montecarlo, "best_link", recording_link)
        runs = []
        for cutoffs in ((0.0, 0.0), (math.inf, 0.0), (math.inf, math.inf)):
            monkeypatch.setattr(montecarlo, "TRIANGULATE_ABOVE", cutoffs[0])
            monkeypatch.setattr(montecarlo, "SEED_ABOVE", cutoffs[1])
            runs.append(build_realization(config, realization_rng(3, 5)))
        a = runs[0]
        for b in runs[1:]:
            assert a.n_ue_dropped != b.n_ue_dropped
            assert not np.array_equal(a.ue_xy, b.ue_xy)
            np.testing.assert_array_equal(a.bs_xy, b.bs_xy)
            assert a.probe_truncated == b.probe_truncated
            assert a.tagged_fade == b.tagged_fade
        assert runs[1].n_ue_dropped != runs[2].n_ue_dropped
        for probe in probes[1:]:
            np.testing.assert_array_equal(probes[0], probe)
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

    @pytest.mark.parametrize("config, digest", [
        (small_config(rho_o_dbm=-60.0),
         "d0c85422b55efdd59ffa2e6aca918985540017127f07791ff7ca59da01ecca7d"),
        (NetworkConfig.from_engineering(
            tiers=[TierConfig.from_engineering(1.0, -65.0, 0.0, 3.2),
                   TierConfig.from_engineering(10.0, -75.0, 0.0, 4.0)],
            window_km=2.0, guard_km=0.3),
         "98128a30af8473e2ac02e19d0ff19d99ca28095b4125f935a0d6bb560638fdf7"),
    ], ids=["single", "mixed"])
    def test_untriangulated_stream_pinned(self, config, digest, monkeypatch):
        # without a triangulated tier the scheduler draws from discs alone,
        # the numbers of v0.2.0: the UEs of realizations 0-2 at seed 42,
        # to the micrometre so that a last-bit difference in sin or cos
        # between platforms does not count
        monkeypatch.setattr(montecarlo, "_cell_boxes", None)
        h = hashlib.sha256()
        for i in range(3):
            r = build_realization(config, realization_rng(42, i))
            h.update(np.round(r.ue_xy, 6).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("config, digest", [
        (small_config(rho_o_dbm=-80.0),
         "30a6a4fee90cc562df86aab9cf7b6dfcc95f60bae9b9873ea4fcf8ab3d088edb"),
        (two_tier_config(),
         "805ece01487e6346011c1d2aa51347fe6a9f81303e8d6f7d30077eca4f3d436c"),
    ], ids=["single", "mixed"])
    def test_triangulated_stream_pinned(self, config, digest, monkeypatch):
        # box proposals and, on the mixed config, the cross-tier bound: the
        # UEs, the tagged BS and the probe of realizations 0-2 at seed 42,
        # as v0.4.0 drew them
        boxes = []

        def counted(*args):
            boxes.append(args)
            return cell_boxes(*args)

        cell_boxes = montecarlo._cell_boxes
        monkeypatch.setattr(montecarlo, "_cell_boxes", counted)
        assert stream_digest(config) == digest
        assert len(boxes) >= 3

    @pytest.mark.parametrize("config, digest", [
        (small_config(),
         "922f8d93689976aa82a05319aa71c36ff737a1ff641fd9c6a979b7bc12e3ec93"),
        (common_exponent_config(),
         "db8a3caff329336ec319c9de38f76693bff7ba9eae403d49c7bc7955e9e4d25b"),
    ], ids=["single", "common"])
    def test_seeded_stream_pinned(self, config, digest, monkeypatch):
        # a seed round, then discs, with no triangulation: the UEs, the
        # tagged BS and the probe of realizations 0-2 at seed 42, as v0.5.0
        # draws them (tier 1 of the common config is seeded in realizations
        # 1 and 2 only)
        monkeypatch.setattr(montecarlo, "_cell_boxes", None)
        assert stream_digest(config) == digest

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


@pytest.mark.parametrize("config", [
    small_config(rho_o_dbm=-80.0), small_config(), small_config(rho_o_dbm=-60.0),
], ids=["triangulated", "seeded", "disc"])
def test_estimates_invariant_under_scale_map(config, scaled):
    # c times the density, with cutoffs and noise scaled to match, is the
    # same network seen from farther away: powers of 4 scale every length
    # by a power of 2, exactly, so each accept decision stays the same
    want = estimate_metrics(config, 200, seed=5)
    for c in (4.0, 0.25):
        assert estimate_metrics(scaled(config, c), 200, seed=5) == want, c


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
