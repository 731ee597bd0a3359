"""Closed-form and quadrature expressions for uplink performance under
truncated channel-inversion power control in Poisson cellular networks.

The chain of quantities, per observed tier j:

* transmit-power law of an active UE (:class:`TxPowerDistribution`),
  whose fractional moment E[P^(2/eta)] is the only statistic the
  interference needs;
* truncation outage, the probability that inverting the path loss to the
  best base station would exceed the power budget;
* the Laplace transform of each tier's aggregate interference at the
  serving BS, exp(-2 pi lambda_k s^(2/eta) E[P_k^(2/eta)] J(eta, a)) with
  J the tail integral and ``a`` the exclusion-region lower limit
  (s rho_o_k)^(-1/eta);
* SINR outage 1 - exp(-theta sigma^2 / rho_o) * prod_k LT_k(theta/rho_o);
* spectral efficiency, the semi-infinite integral of the SINR survival
  function against 1/(1+x).

Networks whose tiers share one path-loss exponent use the closed-form
(incomplete-gamma) power statistics; heterogeneous exponents fall back to
the mixture density, whose moments are integrated numerically over the
log-power.

Both numerical integrals, the rate integral in ln x and the mixture
moments in the log-power, run through one fixed rule,
:func:`~upcell.specfun.integrate_panels`: composite Gauss-Kronrod whose
integrand is evaluated once, on the array of all its nodes, and whose
error estimate raises :class:`~upcell.specfun.QuadratureError` when it
misses 1e-10 relative.  The truncation points come from closed-form
bounds on each integrand, so the dropped tails hold less than 1e-14 of
the integral.

The tail integral J is evaluated in closed form for every eta (arctan at
``eta == 4``, Gauss hypergeometric otherwise).  ``p_max = inf`` is
honoured exactly (the truncation terms vanish and the gamma factors
become complete), not approximated by a large number.

All functions are pure and reentrant; concurrent evaluation over
parameter sweeps is safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import MetricsReport, NetworkConfig
# integrate_interval and integrate_semi_infinite stay bound here, where the
# benchmark's trace hooks (upbench/spans.py) wrap them by name; nothing in
# this module calls them, and scipy.integrate loads on their first call
from .specfun import (  # noqa: F401
    integrate_interval,
    integrate_panels,
    integrate_semi_infinite,
    lower_incomplete_gamma,
    tail_interference_integral,
)

__all__ = [
    "TxPowerDistribution",
    "truncation_outage",
    "sinr_outage",
    "spectral_efficiency",
    "full_report",
]

_TWO_PI = 2.0 * math.pi
# share of an integral that a truncated tail may hold, well below the
# 1e-10 tolerance of the rule that integrates the rest
_TRUNCATION = 1e-14


class TxPowerDistribution:
    """Transmit-power law of a generic active UE served by tier ``j``.

    The density lives on [0, p_max] and is normalized by the probability
    of not being in truncation outage.  Its moments use the
    incomplete-gamma closed form when all tiers share one exponent and
    are integrated over the mixture density otherwise.
    """

    def __init__(self, config: NetworkConfig, tier: int):
        self.config = config
        self.tier = tier

    def pdf(self, x: float) -> float:
        """Density at ``x`` watts; raises for x outside [0, p_max].

        The density diverges like x^(2/eta - 1) at the origin but remains
        integrable (the cdf at p_max is 1).
        """
        if not 0 <= x <= self.config.p_max:
            raise ValueError(f"power {x} outside the support [0, {self.config.p_max}]")
        rho = self.config.tiers[self.tier].rho_o
        if x == 0.0:
            return math.inf
        weight = sum(
            _TWO_PI * t.intensity * x ** (2.0 / t.eta - 1.0)
            / (t.eta * rho ** (2.0 / t.eta))
            for t in self.config.tiers
        )
        return (
            weight * math.exp(-_void_exponent(self.config, self.tier, x))
            / _active_probability(self.config, self.tier)
        )

    def cdf(self, x: float) -> float:
        if not 0 <= x <= self.config.p_max:
            raise ValueError(f"power {x} outside the support [0, {self.config.p_max}]")
        return (
            -math.expm1(-_void_exponent(self.config, self.tier, x))
            / _active_probability(self.config, self.tier)
        )

    def moment(self, alpha: float) -> float:
        """Fractional moment E[P^alpha], alpha > 0."""
        if not alpha > 0:
            raise ValueError(f"moment order must be positive, got {alpha}")
        return _fractional_moment(self.config, self.tier, alpha)


@lru_cache(maxsize=4096)
def _fractional_moment(config: NetworkConfig, tier: int, alpha: float) -> float:
    """E[P_tier^alpha]; cached because the 2/eta moment of every tier is
    reused across the Laplace-transform factors of a report."""
    if config.common_exponent():
        return _common_moment(config, tier, alpha)
    return _mixture_moment(config, tier, alpha)


def _common_moment(config: NetworkConfig, tier: int, alpha: float) -> float:
    # all tiers share eta: an incomplete-gamma closed form
    t = config.tiers[tier]
    eta = t.eta
    lam_total = config.total_intensity
    b = math.pi * lam_total * (config.p_max / t.rho_o) ** (2.0 / eta)
    a = alpha * eta / 2.0 + 1.0
    return (
        t.rho_o**alpha
        * lower_incomplete_gamma(a, b)
        / ((math.pi * lam_total) ** (alpha * eta / 2.0) * -math.expm1(-b))
    )


def _mixture_moment(config: NetworkConfig, tier: int, alpha: float) -> float:
    # In v = ln x - split, x^alpha f(x) dx is
    #   exp(alpha (v + split)) W'(v) exp(-W(v)) dv / norm
    # with W the sum of the per-tier void exponents
    # w_k = pi lambda_k (x/rho_o)^(2/eta_k) = exp(c_k (v + split - u_k)):
    # a smooth bump, where in x the mass sits in a spike that can be orders
    # of magnitude narrower than [0, P_u].  The split is the log-power
    # where the smallest w_k reaches 1 (at most ln P_u, a hard endpoint),
    # and the integrand is scaled by exp(-alpha * split) to be O(1).
    t = config.tiers[tier]
    log_rho = math.log(t.rho_o)
    c = np.array([2.0 / k.eta for k in config.tiers])
    u = np.array([log_rho - 0.5 * k.eta * math.log(math.pi * k.intensity)
                  for k in config.tiers])
    log_p_max = math.log(config.p_max)
    split = min(u.max(), log_p_max)
    offset = c * (split - u)
    # Below v_top every w_k <= 1, so the bump lies between e^-n and 1 times
    # g(v) = sum_k c_k exp((alpha + c_k) v + offset_k), whose integral up to
    # v_top bounds the total from below and the left tail from above.
    v_top = min(u.min(), log_p_max) - split
    margin = math.log(1.0 / _TRUNCATION) + len(c)
    lower = v_top - margin / (alpha + c.min())
    # Above 0, W(v) >= exp(c_min v) and exp(alpha v) <= W^r, so the right
    # tail is at most Gamma(r + 1, W) <= exp(-W/2) 2^(r+1) Gamma(r + 1),
    # r = alpha / c_min; it matters only without a power budget.
    g_top = np.sum(c * np.exp((alpha + c) * v_top + offset) / (alpha + c))
    r = alpha / c.min()
    w_high = 2.0 * (margin - math.log(g_top) + (r + 1.0) * math.log(2.0)
                    + math.lgamma(r + 1.0))
    upper = min(log_p_max - split, math.log(max(w_high, 1.0)) / c.min())

    def bump(v: np.ndarray) -> np.ndarray:
        # exp(-W) underflows long before any w_k overflows
        w = np.exp(np.minimum(np.outer(c, v) + offset[:, None], 700.0))
        return np.exp(alpha * v - w.sum(axis=0)) * (c @ w)

    total = integrate_panels(bump, lower, upper)
    return math.exp(alpha * split) * total / _active_probability(config, tier)


def _void_exponent(config: NetworkConfig, tier: int, x: float) -> float:
    # sum_k pi lambda_k (x / rho_o_j)^(2/eta_k): the mean number of BSs
    # whose link would ask a UE of tier j for at most x watts; reduces to
    # pi Lambda (x/rho_o_j)^(2/eta) for a common exponent
    rho = config.tiers[tier].rho_o
    return sum(
        math.pi * t.intensity * (x / rho) ** (2.0 / t.eta) for t in config.tiers
    )


def _active_probability(config: NetworkConfig, tier: int) -> float:
    # 1 - O_p, the normaliser of the transmit-power law
    return -math.expm1(-_void_exponent(config, tier, config.p_max))


def truncation_outage(config: NetworkConfig, tier: int) -> float:
    """Probability that a UE served by ``tier`` cannot invert its path loss
    within the power budget: exp(-sum_k pi lambda_k (p_max/rho_o_j)^(2/eta_k)).

    Exactly 0 for p_max = inf and tends to 1 as rho_o grows.
    """
    return math.exp(-_void_exponent(config, tier, config.p_max))


def _moments_2_over_eta(config: NetworkConfig, observing_tier: int) -> list[float]:
    eta_j = config.tiers[observing_tier].eta
    return [
        _fractional_moment(config, k, 2.0 / eta_j) for k in range(config.n_tiers)
    ]


def _outage_exponent(
    config: NetworkConfig,
    tier: int,
    s: float,
    noise_term: float,
    moments: list[float],
) -> float:
    # noise term plus, per source tier k, the interference exponent
    # 2 pi lambda_k s^(2/eta_j) E[P_k^(2/eta_j)] J(eta_j, (s rho_o_k)^(-1/eta_j)):
    # an interferer is received below its own tier's cutoff
    eta_j = config.tiers[tier].eta
    total = noise_term
    for src, moment in zip(config.tiers, moments):
        lower = (s * src.rho_o) ** (-1.0 / eta_j)
        tail = tail_interference_integral(eta_j, lower)
        total += _TWO_PI * src.intensity * s ** (2.0 / eta_j) * moment * tail
    return total


def sinr_outage(config: NetworkConfig, tier: int) -> float:
    """SINR outage probability for an active UE in ``tier``:
    1 - exp(-theta sigma^2/rho_o) * prod_k LT_k(theta/rho_o).
    """
    t = config.tiers[tier]
    s = t.theta / t.rho_o
    moments = _moments_2_over_eta(config, tier)
    exponent = _outage_exponent(
        config, tier, s, t.theta * config.noise / t.rho_o, moments
    )
    return -math.expm1(-exponent)


def spectral_efficiency(config: NetworkConfig, tier: int) -> float:
    """Mean spectral efficiency E[ln(1 + SINR)] (nats/s/Hz) of an active UE
    in ``tier``, by integrating the SINR survival function:

        int_0^inf exp(-x sigma^2/rho_o) prod_k LT_k(x/rho_o) / (x + 1) dx.

    The integral runs in ln x through one fixed Gauss-Kronrod rule
    (:func:`~upcell.specfun.integrate_panels`) on the array of its nodes.
    In ln x the integrand decays like e^s at -inf and double-exponentially
    at +inf.  Both cuts come from bounds on the outage exponent E(x):
    E(x) <= kappa x, with kappa its slope at x = 0, so the rate is at
    least 1/(2e max(1, kappa)), and E(x) grows at least like x^(2/eta)
    beyond a point set by each tier's slope and growth coefficient.  The
    dropped tails are each below 1e-14 of the rate.
    """
    t = config.tiers[tier]
    rho, noise = t.rho_o, config.noise
    delta = 2.0 / t.eta
    moments = _moments_2_over_eta(config, tier)
    # Tier k adds 2 pi lambda_k E[P_k^delta] (x/rho)^delta J(eta, a_k) to
    # E(x).  As a^(2-eta)/(eta-2) >= J(eta, a) >= min(1, a^(2-eta))/(2(eta-2)),
    # that term is at most slope_k x and at least
    # min(slope_k x, growth_k x^delta)/2.
    growth = [
        _TWO_PI * src.intensity * m / ((t.eta - 2.0) * rho**delta)
        for src, m in zip(config.tiers, moments)
    ]
    slope = [
        g * (src.rho_o / rho) ** (1.0 - delta)
        for src, g in zip(config.tiers, growth)
    ]
    c = max(1.0, noise / rho + sum(slope))
    rate_floor = 1.0 / (2.0 * math.e * c)
    # below x_low the integrand is at most x, above x_high
    # E(x) >= level (x/x_high)^delta
    log_x_low = math.log(_TRUNCATION * rate_floor)
    level = math.log(1.0 / (delta * _TRUNCATION * rate_floor))
    log_x_high = min(
        max(math.log(2.0 * level / k), math.log(2.0 * level / g) / delta)
        for k, g in zip(slope, growth)
    )
    if noise > 0.0:
        log_x_high = min(log_x_high, math.log(level * rho / noise))

    def integrand(log_x: np.ndarray) -> np.ndarray:
        x = np.exp(log_x)
        exponent = _outage_exponent(config, tier, x / rho, x * noise / rho, moments)
        return np.exp(-exponent) * x / (1.0 + x)

    return integrate_panels(integrand, log_x_low, log_x_high)


def full_report(config: NetworkConfig, tier: int) -> MetricsReport:
    """All six metrics for ``tier``; the total-outage and effective-rate
    identities hold exactly by construction."""
    return MetricsReport.from_components(
        truncation_outage=truncation_outage(config, tier),
        sinr_outage=sinr_outage(config, tier),
        spectral_efficiency=spectral_efficiency(config, tier),
        mean_tx_power=_fractional_moment(config, tier, 1.0),
    )
