"""Numerical kernel: incomplete gamma, the interference tail integral, and
adaptive quadrature over finite and semi-infinite ranges.

The tail integral J(eta, a) has a closed form for every eta > 2: arctan at
eta = 4 and a Gauss hypergeometric function otherwise, the same function
as rho(.) in Andrews, Baccelli and Ganti, "A Tractable Approach to
Coverage and Rate in Cellular Networks" (2011).

Everything here is a pure function of its arguments; there is no shared
mutable state, so all routines are safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureError",
    "lower_incomplete_gamma",
    "tail_interference_integral",
    "integrate_semi_infinite",
    "integrate_interval",
]

# tight enough that the test-side quadrature of J reproduces the closed
# forms to <= 1e-9 relative
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget before reaching
    the requested tolerance."""


def lower_incomplete_gamma(a: float, b: float) -> float:
    """Lower incomplete gamma function  gamma(a, b) = int_0^b t^(a-1) e^(-t) dt.

    ``b`` may be ``inf``, in which case the complete Gamma(a) is returned.
    Backed by the regularized routine in scipy.special, which switches
    between the power series (b < a+1) and the continued fraction, giving
    full double accuracy across the parameter range used here, including
    b values small enough that gamma(a, b) ~ b^a / a.
    """
    if not a > 0:
        raise ValueError(f"shape parameter a must be positive, got {a}")
    if not b >= 0:
        raise ValueError(f"upper limit b must be nonnegative, got {b}")
    return float(special.gammainc(a, b) * special.gamma(a))


def _tail_integral_quartic(a: float) -> float:
    # int_a^inf y/(y^4+1) dy = (1/2)(pi/2 - arctan(a^2)); the atan2 form
    # avoids cancellation for large a where arctan(a^2) -> pi/2.
    a2 = a * a
    if a2 >= 1.0:
        return 0.5 * math.atan2(1.0, a2)
    return 0.5 * (0.5 * math.pi - math.atan(a2))


def _tail_integral_hypergeometric(eta: float, a: float) -> float:
    # Two branches keep the 2F1 argument in [-1, 0], where the series
    # converges; each term-wise integrates the geometric series of
    # 1/(1 + y^eta) (a < 1) or of y^-eta / (1 + y^-eta) (a >= 1).
    delta = 2.0 / eta
    if a >= 1.0:
        return (
            a ** (2.0 - eta) / (eta - 2.0)
            * special.hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -(a**-eta))
        )
    # J(eta, 0) minus the integral over [0, a]
    return (math.pi / eta) / math.sin(math.pi * delta) - 0.5 * a * a * (
        special.hyp2f1(1.0, delta, 1.0 + delta, -(a**eta))
    )


def tail_interference_integral(eta: float, a: float) -> float:
    """Evaluate J(eta, a) = int_a^inf y / (y^eta + 1) dy for eta > 2 in
    closed form: arctan when eta == 4, the Gauss hypergeometric form
    otherwise.

    This is the geometric factor of the interference Laplace transform;
    the lower limit encodes the interferer exclusion region.
    """
    if not eta > 2:
        raise ValueError(
            f"path-loss exponent must exceed 2 for a convergent tail, got {eta}"
        )
    if not a >= 0:
        raise ValueError(f"lower limit must be nonnegative, got {a}")
    if math.isinf(a):
        return 0.0
    if eta == 4.0:
        return _tail_integral_quartic(a)
    return _tail_integral_hypergeometric(eta, a)


def _check_quad_result(result: tuple) -> float:
    value, abserr = result[0], result[1]
    if len(result) > 3:  # QUADPACK appended a warning message
        tol = max(_ABS_TOL, _REL_TOL * abs(value))
        if not abserr <= tol:
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_SUBDIVISIONS} "
                f"subdivisions (estimated error {abserr:.3e}): {result[3]}"
            )
    return float(value)


def integrate_semi_infinite(f: Callable[[float], float], lower: float) -> float:
    """Integrate ``f`` over [lower, inf) to within
    max(1e-12, 1e-10 * |result|).

    The range is mapped onto a finite interval with the rational transform
    y = lower + (1 - t)/t and integrated by adaptive Gauss-Kronrod
    bisection (QUADPACK QAGI).  Raises :class:`QuadratureError` when the
    subdivision budget is exhausted without meeting the tolerance.
    """
    return integrate_interval(f, lower, np.inf)


def integrate_interval(
    f: Callable[[float], float], lower: float, upper: float
) -> float:
    """Adaptive Gauss-Kronrod integration of ``f`` over [lower, upper], to
    the same tolerance as :func:`integrate_semi_infinite`.

    Tolerates integrable endpoint singularities (the power-law densities
    integrated here behave like x^(2/eta - 1) at the origin).
    """
    result = integrate.quad(
        f,
        lower,
        upper,
        epsabs=_ABS_TOL,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
    )
    return _check_quad_result(result)
