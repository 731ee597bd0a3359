"""Monte Carlo simulation of the uplink system model.

Protocol per realization, one stage per step; :func:`build_realization`
composes them:

1. Layout: draw each tier's BSs as an independent PPP on the torus
   [0, L)^2, L the window side.  Every distance is the minimum-image
   distance, so the window has no edge and every BS is statistically
   equivalent to every other (a periodic edge correction).
2. :func:`_tag`: drop one probe UE uniform on the torus to sample the
   truncation-outage indicator, then pick the tagged BS of the measured
   tier k: the serving BS of the first point, the probe first, that a
   tier-k BS serves within budget.  That point is uniform on the union of
   the tier's eligible regions, so a BS is tagged with probability
   proportional to its eligible area, as the serving BS of a typical
   active UE is.  A realization with no tier-k BS, or whose search finds
   no such point within the round cap, is discarded and counted.
3. :func:`_schedule`: schedule one UE per BS, uniform over the BS's
   eligible region: the points of the torus that the BS serves and whose
   channel-inversion power fits the budget.  Rounds of points follow one
   first-hit rule: a BS keeps the first point, in draw order, that it may
   claim and that it serves within budget.  Any BS may claim a point of a
   seed round, uniform on the torus; only the proposing BS may claim its
   own proposal, uniform in a region that holds its eligible region and
   maps onto the torus one to one, so it lies in the square of side L
   about the BS.  :func:`_proposal_regions` picks one of three routes per
   tier by its load, the number of its BSs a reach disc holds on average:
   - up to ``SEED_ABOVE``, a disc about the BS;
   - up to ``TRIANGULATE_ABOVE``, the tier is seeded: round 0 is a seed
     round, and a BS that claims none of it goes on with its disc;
   - above it, a box: the BS's same-tier Voronoi cell's bounding box
     clipped to its reach.
   A disc whose radius would exceed L/2 is a box too, the square of side
   L about the BS.  :class:`_Regions` draws from the discs and boxes.  The
   kept point is uniform on the eligible region whatever the round and
   the route, so they change speed, never the distribution.  Unresolved
   BSs get twice as many proposals each round; a realization with a BS
   still unresolved after the round cap is discarded and counted.
4. :func:`_measure`: the tagged BS's uplink is received at rho_o * h with
   h a unit-mean exponential fade, while the UE of every other BS
   interferes with power P_i h_i d_i^(-eta_j).  A realization with an
   interfering UE on the tagged BS itself (d_i = 0) is discarded and
   counted.

Association follows the best average link: argmin over BSs of
r^eta_tier(BS) with r in metres, which reduces to nearest-BS association
when all tiers share an exponent.  :func:`best_link` makes every such
decision, for the proposals and the probe alike.  Proposals, seed points
and UEs are not wrapped onto [0, L)^2: the periodic KD-trees wrap every
query, and :func:`_measure` takes minimum-image distances.

Reproducibility: realization ``i`` of a run uses a counter-based Philox
stream keyed by ``(seed, i)``, so results are bitwise identical for a
given (seed, iterations) regardless of the worker count.  Each stage draws
from its own substream of it: the layout from the stream itself, the
scheduler's proposals, the fades and the probe from jumps of it 2^128
draws apart.  The fades are indexed by BS, so a change to the scheduler
moves neither the layout, nor the probe, the tag and O_p, nor any link's
fade.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

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

# proposal rounds before a realization with an unscheduled BS is
# discarded, and point batches before one whose tag search failed is
MAX_BATCHES = 50
# points per proposal round over all unresolved BSs, and per tag batch,
# once doubling reaches it
MAX_ROUND_POINTS = 2**16
# Newton steps for the cross-tier bound; an unconverged root is discarded
NEWTON_STEPS = 8
# a tier is seeded when its proposal discs hold more than SEED_ABOVE of its
# BSs on average, and triangulated when they hold more than
# TRIANGULATE_ABOVE; below SEED_ABOVE its discs accept well enough alone,
# and up to TRIANGULATE_ABOVE one whole-square round costs less than the
# Delaunay triangulation that the boxes need
SEED_ABOVE = 4.0
TRIANGULATE_ABOVE = 10.0
# points per seeded BS in the seed round
SEED_POINTS = 3
# periodic copies of the sites within this many mean spacings of an edge
# close the cells of the sites near it
CELL_MARGIN = 2.0
# the most BSs a tier's PPP may hold on average; the largest config in the
# tests, demos and benchmark holds about 800
MAX_MEAN_BS = 1e6
# two-sided 95% standard normal quantile of every confidence interval
_Z_95 = 1.96


class SaturationError(RuntimeError):
    """The measured tier has no BS, the tag search or a BS's scheduling
    reached the round cap, or an interfering UE lies on the measured BS."""


def sample_ppp(
    intensity: float, side: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous PPP on the square [0, side)^2.

    Returns an (n, 2) array with n ~ Poisson(intensity * side^2) and
    positions i.i.d. uniform.  Raises ``ValueError`` when that mean count
    exceeds ``MAX_MEAN_BS``.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    if not side > 0:
        raise ValueError(f"window side must be positive, got {side}")
    mean = intensity * side * side
    if mean > MAX_MEAN_BS:
        raise ValueError(
            f"a window of side {side:g} m holds {mean:.3g} BSs on average, "
            f"more than the {MAX_MEAN_BS:.0e} that can be simulated"
        )
    n = rng.poisson(mean)
    return rng.uniform(0.0, side, size=(n, 2))


def cKDTree(data: np.ndarray, boxsize: float):
    """``scipy.spatial.cKDTree(data, boxsize=boxsize)``, a tree on the torus
    [0, boxsize)^2, importing ``scipy.spatial`` on the first call rather
    than with the package.  Every datum must lie in [0, boxsize); a query
    point may lie anywhere, and its distances are minimum-image ones.

    :func:`build_realization` builds every tree through this module
    attribute, which the benchmark's trace hooks and the tests replace.
    """
    from scipy import spatial

    return spatial.cKDTree(data, boxsize=boxsize)


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


def _cell_boxes(sites: np.ndarray, side: float):
    """The bounding box of each site's Voronoi cell on the torus
    [0, side)^2, in the plane about the site: ``(lo, hi)``, each of shape
    (n, 2).

    The sites within ``CELL_MARGIN`` mean spacings of an edge are copied
    across it, shifted by ``side``, and those near a corner across both
    edges too.  A cell computed from part of the periodic sites holds the
    true cell, so every box holds its cell whatever the margin, which
    trades the triangulation's size against how many cells close.  A
    cell's vertices are the circumcentres of the Delaunay triangles around
    its site, and its box is their extent along each axis.  A site whose
    cell does not close gets (-inf, inf) on both axes: every site when the
    sites span no triangle, a repeated site, left out of every triangle, a
    site next to a degenerate triangle, and a site on the hull of the
    copied set.
    """
    from scipy.spatial import Delaunay, QhullError

    margin = CELL_MARGIN * side / math.sqrt(len(sites))
    # a copy shifted by +side (-side) comes from a site near the low (high) edge
    near = {1: sites < margin, 0: np.ones_like(sites, dtype=bool),
            -1: sites >= side - margin}
    pts = np.concatenate([sites] + [
        sites[near[sx][:, 0] & near[sy][:, 1]] + (sx * side, sy * side)
        for sx in (-1, 0, 1) for sy in (-1, 0, 1) if sx or sy
    ])
    try:
        tri = Delaunay(pts)
    except QhullError:  # every point on one line
        return np.full(sites.shape, -np.inf), np.full(sites.shape, np.inf)
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
    site = tri.simplices.ravel()
    lo, hi = np.full((2, len(pts)), np.inf), np.full((2, len(pts)), -np.inf)
    # one 1-D ufunc.at per axis runs far faster than one on (n, 2) rows
    for axis, value in enumerate(np.repeat(centre, 3, axis=0).T):
        np.minimum.at(lo[axis], site, value)
        np.maximum.at(hi[axis], site, value)
    unclosed = np.bincount(site, minlength=len(pts)) == 0
    unclosed[tri.simplices[~np.isfinite(centre).all(axis=1)]] = True
    unclosed[tri.convex_hull] = True
    lo[:, unclosed], hi[:, unclosed] = -np.inf, np.inf
    return lo[:, : len(sites)].T, hi[:, : len(sites)].T


class _Regions:
    """Per BS, tiers concatenated, the region its proposals are drawn from:
    the box [lo[b], hi[b]] where ``box[b]``, else the disc of radius
    ``radius[b]`` about the BS ``xy[b]``; ``seeded[b]`` marks a BS of a
    seeded tier, which takes part in the seed round."""

    def __init__(self, xy, radius, lo, hi, box, seeded):
        self.xy, self.radius, self.lo, self.hi, self.box = xy, radius, lo, hi, box
        self.seeded = seeded

    def propose(self, bs: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
        """``m`` points for each of ``bs``, uniform in its region: shape
        (len(bs), m, 2), from one pair of uniforms per point."""
        u = rng.random((2, len(bs), m))
        pts = np.empty((len(bs), m, 2))
        box = self.box[bs]
        disc = ~box
        r = self.radius[bs[disc], np.newaxis] * np.sqrt(u[0, disc])
        angle = 2.0 * math.pi * u[1, disc]
        pts[disc] = self.xy[bs[disc], np.newaxis] + np.stack(
            (r * np.cos(angle), r * np.sin(angle)), axis=-1)
        lo, hi = self.lo[bs[box], np.newaxis], self.hi[bs[box], np.newaxis]
        pts[box] = lo + np.moveaxis(u[:, box], 0, -1) * (hi - lo)
        return pts


def _proposal_regions(tier_xy, trees, etas, reach, side):
    """Per BS, tiers concatenated, a region that holds every point of the
    torus [0, side)^2 that the BS serves within its reach, and maps onto
    the torus one to one: a disc about it or a box, in the square of side
    ``side`` about it.

    The radius is min(reach, cross-tier bound).  The route of a tier
    follows its load pi lambda_k mean(radius^2), lambda_k its count over
    the torus's area: the number of its BSs a disc holds on average.
    - Up to ``SEED_ABOVE``, its BSs draw from their discs.
    - Above ``SEED_ABOVE`` and up to ``TRIANGULATE_ABOVE``, the tier is
      seeded: its BSs are marked in ``seeded`` and keep their discs, for
      the rounds after :func:`_schedule`'s seed round.
    - Above ``TRIANGULATE_ABOVE``, a BS serves no point that a same-tier BS
      is nearer to, so its region also lies in its same-tier cell: every
      BS draws from its cell's bounding box clipped to the square of side
      2 min(radius, side / 2) about it.
    A BS whose radius exceeds side / 2, which only a window a few reaches
    wide holds, draws from the square of side ``side`` about it on any
    route: a disc that wide would cover part of the torus twice.

    For a tier-k BS and a tier i with eta_i < eta_k, let D be the distance
    from the BS to its nearest tier-i BS ``a``.  A point x at distance r
    that the BS serves has r^eta_k <= |x - a|^eta_i <= (D + r)^eta_i, so r
    is at most the root r* of g(r) = eta_k ln r - eta_i ln(D + r), which
    is increasing and concave on (0, inf).  The cross-tier bound is the
    least r* over such tiers.  On a single tier, pi lambda_k reach^2 is the
    exponent of O_p.

    Returns the regions as :class:`_Regions`, and whether the sites were
    queried against every tree for D, which happens only when two
    non-empty tiers have different exponents.
    """
    counts = [len(p) for p in tier_xy]
    xy = np.concatenate(tier_xy)
    radius = np.repeat(reach, counts)
    eta_bs = np.repeat(etas, counts)
    # otherwise no BS has a non-empty lower-exponent tier, and the loop
    # below skips every tier before it reads ``dist``
    queried = bool(eta_bs.min() < eta_bs.max())
    if queried:
        dist, _ = _tier_distances(xy, trees)
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
    # a disc BS's box is never read
    half = np.minimum(radius, side / 2.0)[:, np.newaxis]
    lo, hi = xy - half, xy + half
    box = radius > side / 2.0
    seeded = np.zeros(len(xy), dtype=bool)
    for k, start in enumerate(np.cumsum([0] + counts[:-1])):
        own = slice(start, start + counts[k])
        load = counts[k] and math.pi * counts[k] / side**2 * np.mean(radius[own]**2)
        if load > TRIANGULATE_ABOVE:
            cell_lo, cell_hi = _cell_boxes(tier_xy[k], side)
            lo[own] = np.maximum(cell_lo, lo[own])
            hi[own] = np.minimum(cell_hi, hi[own])
            box[own] = True
        elif load > SEED_ABOVE:
            seeded[own] = True
    return _Regions(xy, radius, lo, hi, box, seeded), queried


@dataclass
class Realization:
    """One Monte Carlo draw.

    ``ue_*`` arrays describe the scheduled UEs, one per BS and indexed by
    BS; a UE's position is one of its images on the torus, as drawn, not
    wrapped into [0, L)^2.  The tagged quantities describe the measured
    link at BS ``tagged_bs``, of tier ``tagged_tier``.
    ``tagged_fade`` and ``tagged_interference`` are stored so the SINR
    identity can be re-checked exactly.
    """

    bs_xy: np.ndarray          # (n_bs, 2) m, in [0, L)^2
    bs_tier: np.ndarray        # (n_bs,) tier index
    ue_xy: np.ndarray          # (n_bs, 2) m
    ue_power: np.ndarray       # (n_bs,) W
    tagged_bs: int
    tagged_tier: int
    tagged_sinr: float
    tagged_fade: float
    tagged_interference: float
    probe_truncated: bool
    # 2-D queries of each non-empty tier's tree: one per proposal round and
    # per tag batch, plus one of every BS site for the cross-tier bound
    # when two tiers have different exponents; the probe's 1-D query is
    # not counted
    n_ue_dropped: int          # points in those queries, per tree
    n_batches: int             # those queries, per tree


def _tag(config: NetworkConfig, tier: int, trees, side: float,
         rng: np.random.Generator):
    """Protocol step 2: the probe's truncation indicator and the tagged BS,
    both drawn from ``rng``.

    The probe is one point uniform on the torus [0, side)^2, queried
    alone.  Tier-specific truncation applies tier ``tier``'s cutoff to its
    best-link weight, matching the analytic convention.  If a tier-``tier``
    BS serves the probe within budget, that BS is tagged; otherwise
    batches of 2, 4, 8, ... uniform points follow, at most
    ``MAX_ROUND_POINTS`` each, and the serving BS of the first point in
    draw order that a tier-``tier`` BS serves within budget is tagged.

    Returns the indicator, the tagged BS's index within its tier, and the
    points queried and the queries made per tree by the batches.  Raises
    :class:`SaturationError` when the tier has no BS or ``MAX_BATCHES``
    batches hold no such point.
    """
    if trees[tier] is None:
        raise SaturationError(f"no tier-{tier} base station in the window")
    etas = np.array([t.eta for t in config.tiers])
    rho = config.tiers[tier].rho_o
    # a single (2,) point: the probe is not a batch
    served, local, weight = best_link(rng.uniform(0.0, side, size=2), trees, etas)
    truncated = bool(rho * weight > config.p_max)
    n_points = 0
    for n_batches in range(MAX_BATCHES + 1):
        if n_batches:
            points = rng.uniform(0.0, side, size=(min(2**n_batches, MAX_ROUND_POINTS), 2))
            n_points += len(points)
            served, local, weight = best_link(points, trees, etas)
        hit = np.flatnonzero((served == tier) & (rho * weight <= config.p_max))
        if hit.size:
            return truncated, int(np.ravel(local)[hit[0]]), n_points, n_batches
    raise SaturationError(
        f"no point served by a tier-{tier} BS within budget in {MAX_BATCHES} "
        f"batches ({n_points} points queried per tree)"
    )


def _schedule(config: NetworkConfig, tier_xy, trees, side: float,
              rng: np.random.Generator):
    """Protocol step 3: schedule one UE per BS of ``tier_xy`` on the torus
    [0, side)^2, drawing every proposal from ``rng``.

    Each round's points are queried at once under one first-hit rule: a
    BS keeps the first point, in draw order, that it may claim and that it
    serves within budget.  When a tier is seeded (see
    :func:`_proposal_regions`), round 0 is a seed round: ``SEED_POINTS``
    points per seeded BS, at most ``MAX_ROUND_POINTS``, uniform on the
    torus, and any BS, of any tier, may claim one.  Every other round
    draws 1, 2, 4, ... proposals per pending BS from its own region, or 8,
    16, ... after a seed round, fewer once they would pass
    ``MAX_ROUND_POINTS`` over all of them, and only the proposing BS may
    claim its own proposal.

    The rule gives each BS a UE uniform on its eligible region E_b,
    independent of the others, as rejection sampling alone does.  A point
    that BS b may claim is uniform on a region that holds E_b, the torus
    or b's own region, independent of the other points.  So given that it
    lands in E_b, it is uniform on E_b; whether it is the first to land
    there depends on the points' region labels, not on where in their
    regions they lie; and given every point's label, the positions are
    independent.

    Returns each BS's UE position and transmit power, and the points
    queried and the queries made per tree.  Raises
    :class:`SaturationError` when a BS is still pending after
    ``MAX_BATCHES`` rounds, seed round included.
    """
    start = np.cumsum([0] + [len(p) for p in tier_xy[:-1]])
    etas = np.array([t.eta for t in config.tiers])
    rhos = np.array([t.rho_o for t in config.tiers])
    reach = (config.p_max / rhos) ** (1.0 / etas)
    regions, queried = _proposal_regions(tier_xy, trees, etas, reach, side)

    n_bs = len(regions.xy)
    ue_xy = np.zeros((n_bs, 2))
    ue_power = np.zeros(n_bs)
    pending = np.ones(n_bs, dtype=bool)
    n_points = n_bs if queried else 0
    n_seed = min(SEED_POINTS * int(np.count_nonzero(regions.seeded)), MAX_ROUND_POINTS)
    # after a seed round, doubling resumes at 8 proposals per BS
    shift = 2 if n_seed else 0
    n_rounds = 0
    while pending.any() and n_rounds < MAX_BATCHES:
        if n_rounds == 0 and n_seed:
            # the seed round: any BS may claim any point
            pts, owner = rng.uniform(0.0, side, size=(n_seed, 2)), -1
        else:
            bs = np.flatnonzero(pending)
            m = max(1, min(2 ** (n_rounds + shift), MAX_ROUND_POINTS // bs.size))
            pts, owner = regions.propose(bs, m, rng).reshape(-1, 2), np.repeat(bs, m)
        n_rounds += 1
        n_points += len(pts)
        tier, local, weight = best_link(pts, trees, etas)
        power = rhos[tier] * weight
        claim = start[tier] + local
        # a region may reach past the budget
        hit = np.flatnonzero(
            (power <= config.p_max) & ((owner < 0) | (claim == owner)))
        # np.unique returns the first index of each value
        served, first = np.unique(claim[hit], return_index=True)
        ue_xy[served] = pts[hit[first]]
        ue_power[served] = power[hit[first]]
        pending[served] = False
    if pending.any():
        raise SaturationError(
            f"{np.count_nonzero(pending)} BSs unscheduled after {MAX_BATCHES} rounds "
            f"({n_points} points queried per tree)"
        )
    return ue_xy, ue_power, n_points, n_rounds + int(queried)


def _measure(config: NetworkConfig, tier: int, bs_xy, tagged: int, ue_xy,
             ue_power, side: float, rng: np.random.Generator):
    """Protocol step 4: the uplink at BS ``tagged``, of tier ``tier``, from
    the UEs of every other BS, indexed by BS in ``ue_*``, at their
    minimum-image distances on the torus [0, side)^2.  ``rng`` draws one
    fade per BS, that of the link from its UE to the tagged BS.

    Returns the tagged link's fade, the interference and the SINR.
    """
    eta_j, rho_j = config.tiers[tier].eta, config.tiers[tier].rho_o
    fades = rng.exponential(size=len(bs_xy))
    offset = np.delete(ue_xy, tagged, axis=0) - bs_xy[tagged]
    offset -= side * np.round(offset / side)
    d = np.hypot(*offset.T)
    if not d.all():
        raise SaturationError("an interfering UE sits on the tagged BS")
    interference = float(np.sum(np.delete(ue_power * fades, tagged) * d**-eta_j))
    fade = float(fades[tagged])
    return fade, interference, float(rho_j * fade / (config.noise + interference))


def build_realization(
    config: NetworkConfig,
    rng: np.random.Generator,
    tagged_tier: int = 0,
) -> Realization:
    """Run the full draw/tag/schedule/measure protocol once.

    The measured BS is the tier-``tagged_tier`` BS that :func:`_tag` picks.
    Raises :class:`SaturationError` when that tier has no BS, when the tag
    search or a BS's scheduling reaches its round cap, or when an
    interfering UE lies on the measured BS (infinite interference).
    """
    side = config.window_side
    # the layout draws from ``rng`` itself, every later stage from its own
    # jump of it, taken before any draw
    schedule_rng, fade_rng, probe_rng = [
        np.random.Generator(rng.bit_generator.jumped(k)) for k in (1, 2, 3)
    ]

    tier_xy = [sample_ppp(t.intensity, side, rng) for t in config.tiers]
    trees = [cKDTree(p, boxsize=side) if len(p) else None for p in tier_xy]
    truncated, local, tag_points, tag_batches = _tag(
        config, tagged_tier, trees, side, probe_rng)
    tagged = sum(len(p) for p in tier_xy[:tagged_tier]) + local
    ue_xy, ue_power, n_points, n_queries = _schedule(
        config, tier_xy, trees, side, schedule_rng)

    bs_xy = np.concatenate(tier_xy)
    fade, interference, sinr = _measure(
        config, tagged_tier, bs_xy, tagged, ue_xy, ue_power, side, fade_rng)
    return Realization(
        bs_xy=bs_xy,
        bs_tier=np.repeat(np.arange(config.n_tiers), [len(p) for p in tier_xy]),
        ue_xy=ue_xy,
        ue_power=ue_power,
        tagged_bs=tagged,
        tagged_tier=tagged_tier,
        tagged_sinr=sinr,
        tagged_fade=fade,
        tagged_interference=interference,
        probe_truncated=truncated,
        n_ue_dropped=n_points + tag_points,
        n_batches=n_queries + tag_batches,
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


def _mean_estimate(values) -> EstimateWithCI:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return EstimateWithCI(mean, _Z_95 * math.sqrt(var / n), n)


@dataclass(frozen=True)
class SimulationReport:
    """Per-metric estimates with confidence intervals, plus the
    discarded-realization count.  The composite fields are derived from the
    component means through the exact outage/rate identities, with
    half-widths propagated to first order."""

    truncation_outage: EstimateWithCI
    sinr_outage: EstimateWithCI
    total_outage: EstimateWithCI
    spectral_efficiency: EstimateWithCI
    effective_spectral_efficiency: EstimateWithCI
    mean_tx_power: EstimateWithCI
    n_discarded: int


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (not on macOS), else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _realization_record(config: NetworkConfig, seed: int, tier: int, index: int):
    """Realization ``index`` of run ``seed``, tier ``tier`` measured: its
    ``(outage, log1p(SINR), tagged UE power, probe truncated)``, or
    ``None`` when it is discarded."""
    try:
        r = build_realization(config, realization_rng(seed, index), tier)
    except SaturationError:
        return None
    return (
        r.tagged_sinr <= config.tiers[tier].theta,
        math.log1p(r.tagged_sinr),
        float(r.ue_power[r.tagged_bs]),
        r.probe_truncated,
    )


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
    and the reduction runs in realization order.  So the run starts
    ``min(workers, usable CPUs)`` processes, and none beyond this one when
    that is 1.  ``workers`` must be at least 1, and ``tier`` (the measured
    tier) a tier index of ``config``.
    Raises :class:`SaturationError` when more than half the realizations
    are discarded.
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
    record = functools.partial(_realization_record, config, seed, tier)
    processes = min(workers, _usable_cpus())
    if processes > 1:
        # this process builds no realization, but importing the
        # simulator's scipy module here lets forked workers inherit it; a
        # spawn or forkserver worker imports it again all the same
        import scipy.spatial  # noqa: F401
        from multiprocessing import get_context

        # the platform's default start method: fork is missing on Windows
        # and unsafe with threads on macOS
        with get_context().Pool(processes) as pool:
            records = pool.map(record, range(iterations),
                               math.ceil(iterations / (processes * 8)))
    else:
        records = map(record, range(iterations))
    kept = [r for r in records if r is not None]

    n_valid = len(kept)
    n_discarded = iterations - n_valid
    if n_discarded > iterations / 2:
        raise SaturationError(
            f"{n_discarded}/{iterations} realizations discarded, more than half: "
            "a measured tier with no BS, a round cap reached or an interferer "
            "on the tagged BS"
        )
    outages, rates, powers, truncated = zip(*kept)
    o_s = _proportion_estimate(sum(outages), n_valid)
    rate = _mean_estimate(rates)
    power = _mean_estimate(powers)
    o_p = _proportion_estimate(sum(truncated), n_valid)

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
