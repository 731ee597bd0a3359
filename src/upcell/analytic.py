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

from .model import MetricsReport, NetworkConfig
from .specfun import (
    integrate_interval,
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
    # In u = ln x, x^alpha f(x) dx is
    #   x^alpha sum_k (2/eta_k) w_k exp(-sum_k w_k) du / norm
    # with the per-tier void exponents w_k = pi lambda_k (x/rho_o)^(2/eta_k)
    # = exp((2/eta_k)(u - u_k)): a smooth bump, where in x the mass sits
    # in a spike that can be orders of magnitude narrower than [0, P_u].
    # The range splits at the log-power where the smallest w_k reaches 1,
    # and the integrand is scaled by exp(-alpha * split) to be O(1).
    t = config.tiers[tier]
    log_rho = math.log(t.rho_o)
    terms = [
        (2.0 / k.eta, log_rho - 0.5 * k.eta * math.log(math.pi * k.intensity))
        for k in config.tiers
    ]
    log_p_max = math.log(config.p_max)
    split = min(max(u_k for _, u_k in terms), log_p_max)

    def bump(v: float) -> float:
        z = [c * (v + split - u_k) for c, u_k in terms]
        if max(z) > 700.0:  # exp(-sum_k w_k) underflows
            return 0.0
        w = [math.exp(zk) for zk in z]
        density = sum(c * wk for (c, _), wk in zip(terms, w))
        return math.exp(alpha * v - sum(w)) * density

    total = integrate_semi_infinite(lambda v: bump(-v), 0.0)
    if math.isinf(log_p_max):
        total += integrate_semi_infinite(bump, 0.0)
    elif log_p_max > split:
        total += integrate_interval(bump, 0.0, log_p_max - split)
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

    The integrand decays at least like exp(-const x^(2/eta)), so the
    semi-infinite adaptive rule converges without manual truncation.  It
    is integrated in u = c x with c = max(1, kappa), kappa the slope of
    the outage exponent at x = 0: at low cutoffs the survival function
    has decayed by x ~ 1/kappa << 1, a scale the rule would not resolve.
    """
    t = config.tiers[tier]
    rho, noise = t.rho_o, config.noise
    moments = _moments_2_over_eta(config, tier)
    # each tier's slope from J(eta, a) ~ a^(2-eta)/(eta-2) as a -> inf
    kappa = noise / rho + sum(
        _TWO_PI * src.intensity * m * src.rho_o ** (1.0 - 2.0 / t.eta)
        / ((t.eta - 2.0) * rho)
        for src, m in zip(config.tiers, moments)
    )
    c = max(1.0, kappa)

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 1.0 / c
        x = u / c
        exponent = _outage_exponent(config, tier, x / rho, x * noise / rho, moments)
        return math.exp(-exponent) / (c + u)

    return integrate_semi_infinite(integrand, 0.0)


def full_report(config: NetworkConfig, tier: int) -> MetricsReport:
    """All six metrics for ``tier``; the total-outage and effective-rate
    identities hold exactly by construction."""
    return MetricsReport.from_components(
        truncation_outage=truncation_outage(config, tier),
        sinr_outage=sinr_outage(config, tier),
        spectral_efficiency=spectral_efficiency(config, tier),
        mean_tx_power=_fractional_moment(config, tier, 1.0),
    )
