"""Monte Carlo simulation of the uplink system model.

Protocol per realization:

1. Draw each tier's BSs as an independent PPP on an expanded square window
   (the inner measurement window plus a guard ring on every side).
2. Schedule one UE per BS, guard ring included, uniform over the BS's
   eligible region: the points of the expanded window that the BS serves
   and whose channel-inversion power fits the budget.  Each BS draws
   rejection-sampling proposals uniformly in a region that contains that
   region: a disc of radius min(reach, cross-tier bound) with reach
   (P_u / rho_o)^(1/eta), or its same-tier Voronoi polygon.  The
   cross-tier bound holds for a BS of a tier whose exponent exceeds
   another tier's, and shrinks as that tier's nearest BS gets closer.  A
   tier whose discs hold more than ``TRIANGULATE_ABOVE`` same-tier BSs on
   average (pi lambda_k times the mean squared radius, lambda_k counted
   in the expanded window; on a single tier, the exponent of O_p) is
   triangulated, and each of its BSs draws from whichever of its polygon
   and its disc is smaller; below that, a polygon seldom beats the disc
   and the triangulation costs more than it saves.  A polygon is a fan of
   triangles from the BS to its cell's edges: a proposal picks one with
   probability proportional to its area, then a uniform point in it.  Any
   region that holds the eligible region gives the same UE law, so the
   choice changes speed, never the distribution.  The BS keeps the first
   proposal that lies in the window, is served by it, and fits the
   budget.  Unresolved BSs get twice as many proposals each round; a
   realization in which an inner-window BS is still unresolved after the
   round cap is discarded and counted.
3. Measure the BS nearest the window centre (a Slivnyak-style surrogate
   for the typical BS): its uplink is received at rho_o * h with h a
   unit-mean exponential fade, while every other scheduled UE interferes
   with power P_i h_i d_i^(-eta_j).  A realization with an interfering
   UE on the tagged BS itself (d_i = 0) is discarded and counted.
4. Drop one independent probe UE in the inner window to sample the
   truncation-outage indicator.

Association follows the best average link: argmin over BSs of
r^eta_tier(BS) with r in metres, which reduces to nearest-BS association
when all tiers share an exponent.  :func:`best_link` makes every such
decision, for the proposals and the probe alike.

Reproducibility: realization ``i`` of a run uses a counter-based Philox
stream keyed by ``(seed, i)``, so results are bitwise identical for a
given (seed, iterations) regardless of the worker count.  Each stage draws
from its own substream of it: the layout from the stream itself, the
scheduler's proposals, the fades and the probe from jumps of it 2^128
draws apart.  The fades are indexed by BS, so a change to the scheduler
moves neither the layout, nor the probe and O_p, nor any link's fade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .model import NetworkConfig

__all__ = [
    "SaturationError",
    "Realization",
    "EstimateWithCI",
    "SimulationReport",
    "wilson_interval",
    "sample_ppp",
    "best_link",
    "build_realization",
    "estimate_metrics",
]

MAX_BATCHES_DEFAULT = 50
# proposals per round over all unresolved BSs, once doubling reaches it
MAX_ROUND_POINTS = 2**16
# Newton steps for the cross-tier bound; an unconverged root is discarded
NEWTON_STEPS = 8
# a tier's same-tier Voronoi polygons are computed only when its proposal
# discs hold more than this many of its BSs on average; below it the
# Delaunay triangulation costs more than the proposals the polygons save
TRIANGULATE_ABOVE = 4.0
# two-sided 95% standard normal quantile of every confidence interval
_Z_95 = 1.96


class SaturationError(RuntimeError):
    """An inner-window BS got no scheduled UE within the round cap, the
    window holds no usable BS, or an interfering UE lies on the measured
    BS."""


def sample_ppp(
    intensity: float, side: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous PPP on a square of the given side centred at the origin.

    Returns an (n, 2) array with n ~ Poisson(intensity * side^2) and
    positions i.i.d. uniform.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    if not side > 0:
        raise ValueError(f"window side must be positive, got {side}")
    n = rng.poisson(intensity * side * side)
    return rng.uniform(-side / 2.0, side / 2.0, size=(n, 2))


def cKDTree(data: np.ndarray):
    """``scipy.spatial.cKDTree(data)``, importing ``scipy.spatial`` on the
    first call rather than with the package.

    :func:`build_realization` builds every tree through this module
    attribute, which the benchmark's trace hooks and the tests replace.
    """
    from scipy import spatial

    return spatial.cKDTree(data)


def _tier_distances(points, trees):
    """Distance from each of ``points`` (an (m, 2) array or one (2,) point)
    to its nearest BS of every tier, and that BS's index within its tier:
    two arrays of shape (n_tiers,) + points.shape[:-1], inf and 0 for an
    empty tier (``None`` tree).  Each tree is queried once."""
    points = np.asarray(points, dtype=float)
    dist = np.full((len(trees),) + points.shape[:-1], np.inf)
    local = np.zeros(dist.shape, dtype=np.intp)
    for k, tree in enumerate(trees):
        if tree is not None:
            dist[k], local[k] = tree.query(points)
    return dist, local


def best_link(points, trees, etas):
    """Best-link association of ``points``, an (m, 2) array or one (2,)
    point: each is served by the BS that minimizes r^eta over every tier
    (r in metres, eta that BS's tier exponent).

    ``trees`` holds one KD-tree per tier, ``None`` for an empty tier; each
    tree is queried once with all of ``points``.  Returns ``(tier, index,
    weight)``: the serving BS's tier, its index within that tier, and
    r^eta to it.  The required transmit power is rho_o of that tier times
    the weight.
    """
    if all(tree is None for tree in trees):
        raise ValueError("association requires at least one base station")
    dist, local = _tier_distances(points, trees)
    weights = np.empty_like(dist)
    for k, eta in enumerate(etas):
        weights[k] = dist[k] ** eta
    tier = np.argmin(weights, axis=0)
    pick = tier[np.newaxis]
    return (
        tier,
        np.take_along_axis(local, pick, 0)[0],
        np.take_along_axis(weights, pick, 0)[0],
    )


def _voronoi_fans(sites: np.ndarray, half: float):
    """Each site's Voronoi cell as a fan of triangles (site, c, c'), one per
    cell edge: c and c' are the circumcentres of the two Delaunay triangles
    that share the Delaunay edge from the site to its counter-clockwise
    neighbour in one of them.

    The convex-hull sites (every site, when they span no triangle) are
    mirrored across the four edges of the square [-half, half]^2: a
    mirrored site wins no point inside the square, and every original cell
    closes, so the fan holds the part of the site's cell inside the square.
    Returns each fan triangle's site, in non-decreasing order, and its
    edges c - site and c' - site, shape (f, 2, 2).  A site left out of
    every Delaunay triangle (a repeated site), or next to a degenerate
    one, gets no fan triangles.
    """
    from scipy.spatial import ConvexHull, Delaunay, QhullError

    try:
        hull = sites[ConvexHull(sites).vertices]
    except QhullError:  # fewer than three sites, or all on one line
        hull = sites
    flip_x, flip_y = hull * (-1.0, 1.0), hull * (1.0, -1.0)
    pts = np.concatenate([
        sites,
        flip_x + (2.0 * half, 0.0), flip_x - (2.0 * half, 0.0),
        flip_y + (0.0, 2.0 * half), flip_y - (0.0, 2.0 * half),
    ])
    tri = Delaunay(pts)
    # np.take gathers rows far faster than fancy indexing
    a, b, c = np.take(pts, tri.simplices.T, axis=0)
    ab, ac = b - a, c - a
    cross = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    ab2, ac2 = np.sum(ab**2, axis=1), np.sum(ac**2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        centre = a + np.stack(
            (ac[:, 1] * ab2 - ab[:, 1] * ac2, ab[:, 0] * ac2 - ac[:, 0] * ab2),
            axis=1,
        ) / (2.0 * cross[:, np.newaxis])
    # scipy orients 2-D simplices counter-clockwise: the vertex in slot j
    # has its counter-clockwise neighbour in slot j + 1, and the triangle
    # across that edge is the neighbour opposite slot j + 2
    site, other = tri.simplices.ravel(), tri.neighbors[:, [2, 0, 1]].ravel()
    # the original sites sorted first; a key of 16 bits or fewer sorts by radix
    order = np.argsort(site.astype(np.min_scalar_type(len(pts))), kind="stable")
    keep = order[: np.count_nonzero(site < len(sites))]
    site, own, other = site[keep], keep // 3, other[keep]
    edges = np.stack(
        (np.take(centre, own, axis=0), np.take(centre, other, axis=0)), axis=1
    ) - np.take(sites, site, axis=0)[:, np.newaxis]
    finite = np.isfinite(centre).all(axis=1)
    bad = (other < 0) | ~(finite[own] & finite[other])
    keep = np.take(np.bincount(site[bad], minlength=len(sites)), site) == 0
    return site[keep], edges[keep]


def _fan_areas(edges: np.ndarray) -> np.ndarray:
    """Areas of fan triangles given by their two edges from the site."""
    (x1, y1), (x2, y2) = edges[:, 0].T, edges[:, 1].T
    return 0.5 * np.abs(x1 * y2 - y1 * x2)


class _Fans:
    """The Voronoi polygons of the BSs that draw their proposals there:
    BS b owns fan triangles ``lo[b]:hi[b]``, none for a BS that draws from
    its disc."""

    def __init__(self, n_bs: int, bs: np.ndarray, edges: np.ndarray):
        # ``bs`` is non-decreasing: each BS's triangles are contiguous
        count = np.bincount(bs, minlength=n_bs)
        self.hi = np.cumsum(count)
        self.lo = self.hi - count
        self.edges = edges
        self.cum = np.cumsum(_fan_areas(edges))

    def offsets(self, bs: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Offsets from each of ``bs`` uniform in its polygon, shape
        ``w.shape + (2,)``: ``w`` picks a fan triangle with probability
        proportional to its area, the pair ``u`` (shape (2,) + w.shape)
        a point in it."""
        lo, hi = self.lo[bs, np.newaxis], self.hi[bs, np.newaxis]
        before = np.where(lo > 0, self.cum[lo - 1], 0.0)
        target = before + w * (self.cum[hi - 1] - before)
        pick = np.clip(np.searchsorted(self.cum, target, side="right"), lo, hi - 1)
        edges = np.take(self.edges, pick, axis=0)
        fold = u[0] + u[1] > 1.0
        s, t = np.where(fold, 1.0 - u, u)
        return (s[..., np.newaxis] * edges[..., 0, :]
                + t[..., np.newaxis] * edges[..., 1, :])


def _proposal_regions(tier_xy, trees, etas, reach, half):
    """Per BS, tiers concatenated, a region that holds every point of
    [-half, half]^2 that the BS serves within its reach: a disc about it or
    its same-tier Voronoi polygon.

    The disc's radius is min(reach, cross-tier bound).  A BS serves no
    point that a same-tier BS is nearer to, so its region also lies in its
    same-tier cell.  On a tier with pi lambda_k mean(radius^2) above
    ``TRIANGULATE_ABOVE``, lambda_k its count over the square's area, the
    radius is capped by the distance to the square's farthest corner, and
    each BS whose polygon is smaller than its disc draws from the polygon.
    For a tier-k BS and a tier i with eta_i < eta_k, let D be the distance
    from the BS to its nearest tier-i BS ``a``.  A point x at distance r
    that the BS serves has r^eta_k <= |x - a|^eta_i <= (D + r)^eta_i, so r
    is at most the root r* of g(r) = eta_k ln r - eta_i ln(D + r), which
    is increasing and concave on (0, inf).  The cross-tier bound is the
    least r* over such tiers.

    Returns the radii, the polygons as :class:`_Fans`, and whether the
    sites were queried against every tree for D, which happens only when
    two non-empty tiers have different exponents.
    """
    counts = [len(p) for p in tier_xy]
    radius = np.repeat(reach, counts)
    eta_bs = np.repeat(etas, counts)
    # otherwise no BS has a non-empty lower-exponent tier, and the loop
    # below skips every tier before it reads ``dist``
    queried = bool(eta_bs.min() < eta_bs.max())
    if queried:
        dist, _ = _tier_distances(np.concatenate(tier_xy), trees)
    for i, eta_i in enumerate(etas):
        lower = eta_i < eta_bs
        if not (counts[i] and lower.any()):
            continue
        d, eta_k = dist[i, lower], eta_bs[lower]
        # Newton in t = ln r on the increasing, concave
        # h(t) = eta_k t - eta_i ln(D + e^t) climbs to the root from any
        # start below it, here ln max(1, D^(eta_i / eta_k)) <= ln r*
        with np.errstate(divide="ignore"):
            t = np.maximum(0.0, eta_i / eta_k * np.log(d))
        for _ in range(NEWTON_STEPS):
            r = np.exp(t)
            t -= (eta_k * t - eta_i * np.log(d + r)) / (eta_k - eta_i * r / (d + r))
        # the iterates stay below r*: a root still short of it after the
        # inflation fails g >= 0 and leaves the radius as it was
        root = np.exp(t) * (1.0 + 1e-9)
        ok = eta_k * np.log(root) >= eta_i * np.log(d + root)
        radius[lower] = np.where(ok, np.minimum(radius[lower], root), radius[lower])
    density = np.asarray(counts) / (2.0 * half) ** 2
    fan_bs, fan_edges = [np.empty(0, dtype=np.intp)], [np.empty((0, 2, 2))]
    for k, start in enumerate(np.cumsum([0] + counts[:-1])):
        own = radius[start : start + counts[k]]
        if counts[k] and math.pi * density[k] * np.mean(own**2) > TRIANGULATE_ABOVE:
            sites = tier_xy[k]
            np.minimum(own, np.hypot(half + np.abs(sites[:, 0]),
                                     half + np.abs(sites[:, 1])), out=own)
            site, edges = _voronoi_fans(sites, half)
            area = np.bincount(site, _fan_areas(edges), minlength=counts[k])
            smaller = (area < math.pi * own**2)[site]
            fan_bs.append(start + site[smaller])
            fan_edges.append(edges[smaller])
    fans = _Fans(len(radius), np.concatenate(fan_bs), np.concatenate(fan_edges))
    return radius, fans, queried


@dataclass
class Realization:
    """One Monte Carlo draw.

    ``ue_*`` arrays describe the scheduled UEs, one per BS (a guard-ring
    BS still unresolved at the round cap has none); the tagged quantities
    describe the measured link at the tier-``tagged_tier`` BS nearest the
    window centre.  ``tagged_fade`` and ``tagged_interference`` are stored
    so the SINR identity can be re-checked exactly.
    """

    bs_xy: np.ndarray          # (n_bs, 2) m
    bs_tier: np.ndarray        # (n_bs,) tier index
    ue_xy: np.ndarray          # (n_sched, 2) m
    ue_bs: np.ndarray          # (n_sched,) serving BS index
    ue_power: np.ndarray       # (n_sched,) W
    tagged_bs: int
    tagged_tier: int
    tagged_sinr: float
    tagged_fade: float
    tagged_interference: float
    tagged_ue_power: float     # W, the scheduled UE in the tagged cell
    probe_truncated: bool
    # 2-D queries of each non-empty tier's tree: one per proposal round,
    # plus one of every BS site for the cross-tier bound when two tiers
    # have different exponents; the probe's 1-D query is not counted
    n_ue_dropped: int          # points in those queries, per tree
    n_batches: int             # those queries, per tree


def build_realization(
    config: NetworkConfig,
    rng: np.random.Generator,
    tagged_tier: int = 0,
    max_batches: int = MAX_BATCHES_DEFAULT,
) -> Realization:
    """Run the full draw/schedule/measure protocol once.

    The measured BS is the inner-window BS of tier ``tagged_tier`` nearest
    the window centre.
    Raises :class:`SaturationError` when an inner-window BS is still
    unscheduled after ``max_batches`` proposal rounds, when the window
    contains no usable BS, or when an interfering UE lies on the measured
    BS (infinite interference).
    """
    guard = config.effective_guard_margin()
    drop_side = config.window_side + 2.0 * guard
    half_drop = drop_side / 2.0
    half_window = config.window_side / 2.0
    # the layout draws from ``rng`` itself, every later stage from its own
    # jump of it, taken before any draw
    schedule_rng, fade_rng, probe_rng = [
        np.random.Generator(rng.bit_generator.jumped(k)) for k in (1, 2, 3)
    ]

    tier_xy = [sample_ppp(t.intensity, drop_side, rng) for t in config.tiers]
    counts = [len(p) for p in tier_xy]
    n_bs = sum(counts)
    if n_bs == 0:
        raise SaturationError("no base stations fell in the window")
    bs_xy = np.concatenate(tier_xy, axis=0)
    bs_tier = np.concatenate(
        [np.full(c, k, dtype=np.intp) for k, c in enumerate(counts)]
    )
    trees = [cKDTree(p) if len(p) else None for p in tier_xy]
    offsets = np.cumsum([0] + counts[:-1])

    etas = np.array([t.eta for t in config.tiers])
    rhos = np.array([t.rho_o for t in config.tiers])

    inner = np.max(np.abs(bs_xy), axis=1) <= half_window
    if not inner.any():
        raise SaturationError("no base station inside the inner window")

    reach = (config.p_max / rhos) ** (1.0 / etas)
    radius, fans, queried = _proposal_regions(tier_xy, trees, etas, reach, half_drop)
    polygon = fans.hi > fans.lo

    ue_xy = np.zeros((n_bs, 2))
    ue_power = np.zeros(n_bs)
    pending = np.arange(n_bs)
    n_points = n_bs if queried else 0
    n_rounds = 0
    while pending.size and n_rounds < max_batches:
        m = max(1, min(2**n_rounds, MAX_ROUND_POINTS // pending.size))
        n_rounds += 1
        u = schedule_rng.random((2, pending.size, m))
        r = radius[pending, np.newaxis] * np.sqrt(u[0])
        angle = 2.0 * math.pi * u[1]
        pts = np.stack(
            (bs_xy[pending, 0, np.newaxis] + r * np.cos(angle),
             bs_xy[pending, 1, np.newaxis] + r * np.sin(angle)),
            axis=-1,
        )
        # the polygon's third uniform is drawn for its BSs alone, so a run
        # without polygons draws what the disc sampler always drew
        fan = polygon[pending]
        if fan.any():
            w = schedule_rng.random((np.count_nonzero(fan), m))
            pts[fan] = (np.take(bs_xy, pending[fan], axis=0)[:, np.newaxis]
                        + fans.offsets(pending[fan], u[:, fan], w))
        pts = pts.reshape(-1, 2)
        n_points += len(pts)
        tier, local, weight = best_link(pts, trees, etas)
        power = rhos[tier] * weight
        # a polygon may reach past the budget, a disc only by rounding
        accept = (
            (offsets[tier] + local == np.repeat(pending, m))
            & (power <= config.p_max)
            & (np.max(np.abs(pts), axis=1) <= half_drop)
        ).reshape(pending.size, m)
        first = np.argmax(accept, axis=1)
        hit = accept[np.arange(pending.size), first]
        chosen = np.flatnonzero(hit) * m + first[hit]
        ue_xy[pending[hit]] = pts[chosen]
        ue_power[pending[hit]] = power[chosen]
        pending = pending[~hit]
    if inner[pending].any():
        raise SaturationError(
            f"{np.count_nonzero(inner[pending])} inner-window BSs unscheduled "
            f"after {n_rounds} rounds ({n_points} points queried per tree)"
        )

    scheduled = np.setdiff1d(np.arange(n_bs), pending, assume_unique=True)
    ue_xy = ue_xy[scheduled]
    ue_power = ue_power[scheduled]

    candidates = np.flatnonzero(inner & (bs_tier == tagged_tier))
    if candidates.size == 0:
        raise SaturationError(
            f"no tier-{tagged_tier} base station inside the inner window"
        )
    centre_dist = np.hypot(bs_xy[candidates, 0], bs_xy[candidates, 1])
    tagged = int(candidates[np.argmin(centre_dist)])
    eta_j = config.tiers[tagged_tier].eta
    rho_j = config.tiers[tagged_tier].rho_o

    # one fade per BS: the link from its scheduled UE to the tagged BS
    fades = fade_rng.exponential(size=n_bs)
    fade = float(fades[tagged])
    interferers = scheduled != tagged
    d = np.hypot(
        ue_xy[interferers, 0] - bs_xy[tagged, 0],
        ue_xy[interferers, 1] - bs_xy[tagged, 1],
    )
    if not d.all():
        raise SaturationError("an interfering UE sits on the tagged BS")
    h = fades[scheduled[interferers]]
    interference = float(np.sum(ue_power[interferers] * h * d**-eta_j))
    sinr = rho_j * fade / (config.noise + interference)

    # a single (2,) point: the probe is not a proposal round
    probe = probe_rng.uniform(-half_window, half_window, size=2)
    _, _, probe_weight = best_link(probe, trees, etas)
    # tier-specific truncation applies the tagged tier's cutoff to the
    # best-link weight, matching the analytic convention
    probe_truncated = bool(rho_j * probe_weight > config.p_max)

    tagged_pos = np.flatnonzero(scheduled == tagged)[0]
    return Realization(
        bs_xy=bs_xy,
        bs_tier=bs_tier,
        ue_xy=ue_xy,
        ue_bs=scheduled,
        ue_power=ue_power,
        tagged_bs=tagged,
        tagged_tier=tagged_tier,
        tagged_sinr=float(sinr),
        tagged_fade=fade,
        tagged_interference=interference,
        tagged_ue_power=float(ue_power[tagged_pos]),
        probe_truncated=probe_truncated,
        n_ue_dropped=n_points,
        n_batches=n_rounds + int(queried),
    )


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for realization ``index`` of run ``seed``."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- estimation ---------------------------------------------------------------


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 95% half-width: 1.96 * std / sqrt(n) for means
    and the Wilson interval half-width for proportions."""

    mean: float
    half_width_95: float
    n_samples: int


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("Wilson interval requires at least one sample")
    p = successes / n
    z = _Z_95
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return centre - half, centre + half


def _proportion_estimate(successes: int, n: int) -> EstimateWithCI:
    lo, hi = wilson_interval(successes, n)
    return EstimateWithCI(successes / n, (hi - lo) / 2.0, n)


def _mean_estimate(values: np.ndarray) -> EstimateWithCI:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        half = _Z_95 * math.sqrt(var / n)
    else:
        half = math.inf
    return EstimateWithCI(mean, half, n)


@dataclass(frozen=True)
class SimulationReport:
    """Per-metric estimates with confidence intervals, plus saturation
    bookkeeping.  The composite fields are derived from the component
    means through the exact outage/rate identities, with half-widths
    propagated to first order."""

    truncation_outage: EstimateWithCI
    sinr_outage: EstimateWithCI
    total_outage: EstimateWithCI
    spectral_efficiency: EstimateWithCI
    effective_spectral_efficiency: EstimateWithCI
    mean_tx_power: EstimateWithCI
    n_discarded: int


def _run_chunk(args) -> np.ndarray:
    config, seed, tagged_tier, indices = args
    theta = config.tiers[tagged_tier].theta
    out = np.empty((len(indices), 5))
    for row, i in enumerate(indices):
        rng = realization_rng(seed, i)
        try:
            r = build_realization(config, rng, tagged_tier)
        except SaturationError:
            out[row] = (0.0, np.nan, np.nan, np.nan, np.nan)
            continue
        out[row] = (
            1.0,
            1.0 if r.tagged_sinr <= theta else 0.0,
            math.log1p(r.tagged_sinr),
            r.tagged_ue_power,
            1.0 if r.probe_truncated else 0.0,
        )
    return out


def estimate_metrics(
    config: NetworkConfig,
    iterations: int,
    seed: int,
    *,
    tier: int = 0,
    workers: int = 1,
) -> SimulationReport:
    """Estimate the uplink metrics from ``iterations`` independent
    realizations.

    The SINR outage, rate, and transmit power are measured on the tagged
    link; the truncation outage on the per-realization probe UE.  Output
    is bitwise reproducible for a given (seed, iterations) whatever
    ``workers`` is, because every realization owns its own keyed stream
    and the reduction runs in realization order.  ``workers`` must be at
    least 1, and ``tier`` (the measured tier) a tier index of ``config``.
    """
    if iterations < 100:
        raise ValueError(f"at least 100 iterations required, got {iterations}")
    if not 0 <= tier < config.n_tiers:
        raise ValueError(
            f"tier must be in [0, {config.n_tiers}) for this config, got {tier}"
        )
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    indices = np.arange(iterations)
    chunk_size = max(1, math.ceil(iterations / (workers * 8)))
    chunks = [
        (config, seed, tier, indices[i : i + chunk_size])
        for i in range(0, iterations, chunk_size)
    ]
    if workers > 1:
        # this process builds no realization: import the simulator's scipy
        # module here, once, so that forked workers inherit it instead of
        # each importing it again
        import scipy.spatial  # noqa: F401

        # the platform's default start method: fork is missing on Windows
        # and unsafe with threads on macOS
        with get_context().Pool(workers) as pool:
            parts = pool.map(_run_chunk, chunks)
    else:
        parts = [_run_chunk(c) for c in chunks]
    records = np.concatenate(parts, axis=0)

    valid = records[:, 0] == 1.0
    n_valid = int(valid.sum())
    n_discarded = iterations - n_valid
    if n_valid == 0:
        raise SaturationError("every realization was discarded: an empty inner "
                              "window or an unscheduled inner BS in each")
    outages = records[valid, 1]
    o_s = _proportion_estimate(int(outages.sum()), n_valid)
    rate = _mean_estimate(records[valid, 2])
    power = _mean_estimate(records[valid, 3])
    o_p = _proportion_estimate(int(records[valid, 4].sum()), n_valid)

    # composite identities on the means; half-widths by the delta method
    o_t_mean = o_p.mean + (1.0 - o_p.mean) * o_s.mean
    o_t_half = math.hypot(
        (1.0 - o_s.mean) * o_p.half_width_95, (1.0 - o_p.mean) * o_s.half_width_95
    )
    eff_mean = (1.0 - o_p.mean) * rate.mean
    eff_half = math.hypot(
        rate.mean * o_p.half_width_95, (1.0 - o_p.mean) * rate.half_width_95
    )
    return SimulationReport(
        truncation_outage=o_p,
        sinr_outage=o_s,
        total_outage=EstimateWithCI(o_t_mean, o_t_half, n_valid),
        spectral_efficiency=rate,
        effective_spectral_efficiency=EstimateWithCI(eff_mean, eff_half, n_valid),
        mean_tx_power=power,
        n_discarded=n_discarded,
    )
