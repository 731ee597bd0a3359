"""Shared test references."""

import math

import pytest

from upcell.specfun import integrate_semi_infinite


def _quadrature_tail(eta: float, a: float) -> float:
    """J(eta, a) = int_a^inf y / (y^eta + 1) dy by adaptive quadrature of its
    defining integral: the reference for the closed forms in specfun."""
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


@pytest.fixture
def quadrature_tail():
    """The quadrature J; ``monkeypatch.setattr(analytic,
    "tail_interference_integral", quadrature_tail)`` routes every analytic
    metric through it."""
    return _quadrature_tail
