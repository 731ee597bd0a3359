"""Shared test references."""

import math

import numpy as np
import pytest

from upcell import analytic
from upcell.specfun import integrate_interval, integrate_semi_infinite


def _quadrature_tail_scalar(eta: float, a: float) -> float:
    if math.isinf(a):
        return 0.0
    if a < 1.0:
        return integrate_semi_infinite(lambda y: y / (y**eta + 1.0), a)
    # y = a t: a^(2-eta) int_1^inf t / (t^eta + a^-eta) dt, so the
    # tolerance applies to an O(1) integral however small J is
    c = a**-eta
    return a ** (2.0 - eta) * integrate_semi_infinite(
        lambda t: t / (t**eta + c), 1.0
    )


def _quadrature_tail(eta: float, a):
    """J(eta, a) = int_a^inf y / (y^eta + 1) dy by adaptive quadrature of its
    defining integral, one QUADPACK call per element of ``a``: the
    reference for the closed forms in specfun."""
    values = [_quadrature_tail_scalar(eta, float(x)) for x in np.ravel(a)]
    if np.ndim(a) == 0:
        return values[0]
    return np.reshape(values, np.shape(a))


@pytest.fixture
def quadrature_tail():
    """The quadrature J; ``monkeypatch.setattr(analytic,
    "tail_interference_integral", quadrature_tail)`` routes every analytic
    metric through it."""
    return _quadrature_tail


def _reference_mixture_moment(config, tier: int, alpha: float) -> float:
    # E[P^alpha] over the mixture density by adaptive quadrature in the
    # log-power v = ln x - split, one scalar integrand call per node; the
    # integrand is scaled by exp(-alpha * split) to be O(1)
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
    return (math.exp(alpha * split) * total
            / analytic._active_probability(config, tier))


def _reference_moment(config, tier: int, alpha: float) -> float:
    if config.common_exponent():
        return analytic._common_moment(config, tier, alpha)
    return _reference_mixture_moment(config, tier, alpha)


def _reference_rate(config, tier: int) -> float:
    # the rate integral by adaptive quadrature in u = c x, c = max(1, kappa)
    # with kappa the slope of the outage exponent at x = 0, on the
    # reference moments; the outage exponent is evaluated one node at a time
    t = config.tiers[tier]
    rho, noise = t.rho_o, config.noise
    moments = [_reference_moment(config, k, 2.0 / t.eta)
               for k in range(config.n_tiers)]
    kappa = noise / rho + sum(
        2.0 * math.pi * src.intensity * m * src.rho_o ** (1.0 - 2.0 / t.eta)
        / ((t.eta - 2.0) * rho)
        for src, m in zip(config.tiers, moments)
    )
    c = max(1.0, kappa)

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 1.0 / c
        x = u / c
        exponent = analytic._outage_exponent(
            config, tier, x / rho, x * noise / rho, moments
        )
        return math.exp(-exponent) / (c + u)

    return integrate_semi_infinite(integrand, 0.0)


@pytest.fixture(scope="session")
def reference_rate():
    """Spectral efficiency by scalar adaptive quadrature (QUADPACK) of the
    kappa-scaled rate integral: the oracle for the fixed rule."""
    return _reference_rate


@pytest.fixture(scope="session")
def reference_mixture_moment():
    """Mixture-density power moment by scalar adaptive quadrature
    (QUADPACK) in the log-power: the oracle for the fixed rule."""
    return _reference_mixture_moment
