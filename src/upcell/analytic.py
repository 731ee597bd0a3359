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

The tail integral is evaluated in closed form for every eta (``method=
"auto"``): arctan at ``eta == 4``, Gauss hypergeometric otherwise.  Every
metric can be forced through the arctan form (``"closed_form"``, eta = 4
only) or through adaptive quadrature of J (``"quadrature"``) to
cross-check the closed forms.  ``p_max = inf`` is honoured exactly
(the truncation terms vanish and the gamma factors become complete), not
approximated by a large number.

All functions are pure and reentrant; concurrent evaluation over
parameter sweeps is safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .model import MetricsReport, NetworkConfig
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_interval,
    integrate_semi_infinite,
    lower_incomplete_gamma,
    tail_interference_integral,
)

__all__ = [
    "TxPowerDistribution",
    "truncation_outage",
    "interference_laplace",
    "sinr_outage",
    "spectral_efficiency",
    "full_report",
]

_TWO_PI = 2.0 * math.pi


def _resolve_kind(config: NetworkConfig, kind: str) -> str:
    if kind == "auto":
        return "common" if config.common_exponent() else "mixture"
    if kind == "common":
        if not config.common_exponent():
            raise ValueError(
                "closed-form power statistics require a common path-loss exponent"
            )
        return kind
    if kind == "mixture":
        return kind
    raise ValueError(f"unknown power-distribution kind {kind!r}")


class TxPowerDistribution:
    """Transmit-power law of a generic active UE served by tier ``j``.

    ``kind`` selects the evaluation route: ``"common"`` (all tiers share
    one exponent; incomplete-gamma closed forms), ``"mixture"`` (the
    general weighted-association density; numeric moments), or ``"auto"``.
    The density lives on [0, p_max] and is normalized by the probability
    of not being in truncation outage.
    """

    def __init__(self, config: NetworkConfig, tier: int, kind: str = "auto"):
        self.config = config
        self.tier = tier
        self.kind = _resolve_kind(config, kind)
        self._rho = config.tiers[tier].rho_o

    def _truncation_exponent(self, x: float) -> float:
        # sum_k pi lambda_k (x / rho_o_j)^(2/eta_k); reduces to
        # pi Lambda (x/rho_o_j)^(2/eta) for a common exponent.
        rho = self._rho
        return sum(
            math.pi * t.intensity * (x / rho) ** (2.0 / t.eta)
            for t in self.config.tiers
        )

    @property
    def _norm(self) -> float:
        # P{required power <= p_max} = 1 - exp(-truncation exponent at p_max)
        return -math.expm1(-self._truncation_exponent(self.config.p_max))

    def pdf(self, x: float) -> float:
        """Density at ``x`` watts; raises for x outside [0, p_max].

        The density diverges like x^(2/eta - 1) at the origin but remains
        integrable (the cdf at p_max is 1).
        """
        if not 0 <= x <= self.config.p_max:
            raise ValueError(f"power {x} outside the support [0, {self.config.p_max}]")
        rho = self._rho
        if x == 0.0:
            return math.inf
        weight = sum(
            _TWO_PI * t.intensity * x ** (2.0 / t.eta - 1.0)
            / (t.eta * rho ** (2.0 / t.eta))
            for t in self.config.tiers
        )
        return weight * math.exp(-self._truncation_exponent(x)) / self._norm

    def cdf(self, x: float) -> float:
        if not 0 <= x <= self.config.p_max:
            raise ValueError(f"power {x} outside the support [0, {self.config.p_max}]")
        return -math.expm1(-self._truncation_exponent(x)) / self._norm

    def moment(self, alpha: float) -> float:
        """Fractional moment E[P^alpha], alpha > 0."""
        if not alpha > 0:
            raise ValueError(f"moment order must be positive, got {alpha}")
        return _fractional_moment(self.config, self.tier, alpha, self.kind)


@lru_cache(maxsize=4096)
def _fractional_moment(
    config: NetworkConfig,
    tier: int,
    alpha: float,
    kind: str,
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """E[P_tier^alpha]; cached because the 2/eta moment of every tier is
    reused across the Laplace-transform factors of a report."""
    t = config.tiers[tier]
    if kind == "common":
        eta = t.eta
        lam_total = config.total_intensity
        b = math.pi * lam_total * (config.p_max / t.rho_o) ** (2.0 / eta)
        a = alpha * eta / 2.0 + 1.0
        return (
            t.rho_o**alpha
            * lower_incomplete_gamma(a, b)
            / ((math.pi * lam_total) ** (alpha * eta / 2.0) * -math.expm1(-b))
        )
    # Mixture: in u = ln x, x^alpha f(x) dx is
    #   x^alpha sum_k (2/eta_k) w_k exp(-sum_k w_k) du / norm
    # with the per-tier void exponents w_k = pi lambda_k (x/rho_o)^(2/eta_k)
    # = exp((2/eta_k)(u - u_k)): a smooth bump, where in x the mass sits
    # in a spike that can be orders of magnitude narrower than [0, P_u].
    # The range splits at the log-power where the smallest w_k reaches 1,
    # and the integrand is scaled by exp(-alpha * split) to be O(1).
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

    total = integrate_semi_infinite(lambda v: bump(-v), 0.0, quadrature)
    if math.isinf(log_p_max):
        total += integrate_semi_infinite(bump, 0.0, quadrature)
    elif log_p_max > split:
        total += integrate_interval(bump, 0.0, log_p_max - split, quadrature)
    norm = TxPowerDistribution(config, tier, kind="mixture")._norm
    return math.exp(alpha * split) * total / norm


def truncation_outage(config: NetworkConfig, tier: int) -> float:
    """Probability that a UE served by ``tier`` cannot invert its path loss
    within the power budget: exp(-sum_k pi lambda_k (p_max/rho_o_j)^(2/eta_k)).

    Exactly 0 for p_max = inf and tends to 1 as rho_o grows.
    """
    rho = config.tiers[tier].rho_o
    exponent = sum(
        math.pi * t.intensity * (config.p_max / rho) ** (2.0 / t.eta)
        for t in config.tiers
    )
    return math.exp(-exponent)


def _moments_2_over_eta(
    config: NetworkConfig, observing_tier: int, power_kind: str,
    quadrature: QuadratureSpec,
) -> list[float]:
    kind = _resolve_kind(config, power_kind)
    eta_j = config.tiers[observing_tier].eta
    return [
        _fractional_moment(config, k, 2.0 / eta_j, kind, quadrature)
        for k in range(config.n_tiers)
    ]


def _interference_exponent_one(
    config: NetworkConfig,
    observing_tier: int,
    source_tier: int,
    s: float,
    moment: float,
    method: str,
    quadrature: QuadratureSpec,
) -> float:
    eta_j = config.tiers[observing_tier].eta
    src = config.tiers[source_tier]
    lower = (s * src.rho_o) ** (-1.0 / eta_j)
    tail = tail_interference_integral(eta_j, lower, quadrature, method)
    return _TWO_PI * src.intensity * s ** (2.0 / eta_j) * moment * tail


def interference_laplace(
    config: NetworkConfig,
    observing_tier: int,
    source_tier: int,
    s: float,
    *,
    method: str = "auto",
    power_kind: str = "auto",
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Laplace transform of the aggregate interference produced at a tagged
    BS of ``observing_tier`` by the active UEs of ``source_tier``:

        exp(-2 pi lambda_k s^(2/eta_j) E[P_k^(2/eta_j)]
            * J(eta_j, (s rho_o_k)^(-1/eta_j)))

    The lower limit reflects that any single interferer is received below
    its own tier's cutoff.  Value in (0, 1]; tends to 1 as s -> 0+ or as
    the source intensity vanishes.
    """
    if not s > 0:
        raise ValueError(f"transform argument must be positive, got {s}")
    moment = _moments_2_over_eta(config, observing_tier, power_kind, quadrature)[
        source_tier
    ]
    return math.exp(
        -_interference_exponent_one(
            config, observing_tier, source_tier, s, moment, method, quadrature
        )
    )


def _outage_exponent(
    config: NetworkConfig,
    tier: int,
    s: float,
    noise_term: float,
    moments: list[float],
    method: str,
    quadrature: QuadratureSpec,
) -> float:
    total = noise_term
    for k in range(config.n_tiers):
        total += _interference_exponent_one(
            config, tier, k, s, moments[k], method, quadrature
        )
    return total


def sinr_outage(
    config: NetworkConfig,
    tier: int,
    *,
    method: str = "auto",
    power_kind: str = "auto",
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """SINR outage probability for an active UE in ``tier``:
    1 - exp(-theta sigma^2/rho_o) * prod_k LT_k(theta/rho_o).

    ``method="auto"`` evaluates the tail integral in closed form (arctan
    at eta = 4, hypergeometric otherwise); ``"closed_form"`` forces the
    arctan tail (eta must equal 4); ``"quadrature"`` integrates the tail
    adaptively, as a cross-check.
    """
    t = config.tiers[tier]
    s = t.theta / t.rho_o
    moments = _moments_2_over_eta(config, tier, power_kind, quadrature)
    exponent = _outage_exponent(
        config, tier, s, t.theta * config.noise / t.rho_o, moments, method, quadrature
    )
    return -math.expm1(-exponent)


def spectral_efficiency(
    config: NetworkConfig,
    tier: int,
    *,
    method: str = "auto",
    power_kind: str = "auto",
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Mean spectral efficiency E[ln(1 + SINR)] (nats/s/Hz) of an active UE
    in ``tier``, by integrating the SINR survival function:

        int_0^inf exp(-x sigma^2/rho_o) prod_k LT_k(x/rho_o) / (x + 1) dx.

    The integrand decays at least like exp(-c x^(2/eta)), so the
    semi-infinite adaptive rule converges without manual truncation.
    """
    t = config.tiers[tier]
    rho, noise = t.rho_o, config.noise
    moments = _moments_2_over_eta(config, tier, power_kind, quadrature)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 1.0
        exponent = _outage_exponent(
            config, tier, x / rho, x * noise / rho, moments, method, quadrature
        )
        return math.exp(-exponent) / (x + 1.0)

    return integrate_semi_infinite(integrand, 0.0, quadrature)


def full_report(
    config: NetworkConfig,
    tier: int,
    *,
    method: str = "auto",
    power_kind: str = "auto",
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MetricsReport:
    """All six metrics for ``tier``; the total-outage and effective-rate
    identities hold exactly by construction."""
    dist = TxPowerDistribution(config, tier, kind=power_kind)
    return MetricsReport.from_components(
        truncation_outage=truncation_outage(config, tier),
        sinr_outage=sinr_outage(
            config, tier, method=method, power_kind=power_kind, quadrature=quadrature
        ),
        spectral_efficiency=spectral_efficiency(
            config, tier, method=method, power_kind=power_kind, quadrature=quadrature
        ),
        mean_tx_power=dist.moment(1.0),
    )
