"""Numerical kernel: incomplete gamma, the interference tail integral, and
adaptive quadrature over finite and semi-infinite ranges.

The tail integral J(eta, a) has a closed form for every eta > 2: arctan at
eta = 4 and a Gauss hypergeometric function otherwise, the same function
as rho(.) in Andrews, Baccelli and Ganti, "A Tractable Approach to
Coverage and Rate in Cellular Networks" (2011).  Its adaptive quadrature
is kept as the cross-check.

Everything here is a pure function of its arguments; there is no shared
mutable state, so all routines are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "DEFAULT_QUADRATURE",
    "lower_incomplete_gamma",
    "tail_interference_integral",
    "integrate_semi_infinite",
    "integrate_interval",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget before reaching
    the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrators.

    The defaults are tight enough that closed-form/quadrature cross-checks
    agree to <= 1e-9 relative.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_QUADRATURE = QuadratureSpec()


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


def tail_interference_integral(
    eta: float,
    a: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    method: str = "auto",
) -> float:
    """Evaluate J(eta, a) = int_a^inf y / (y^eta + 1) dy for eta > 2.

    This is the geometric factor of the interference Laplace transform;
    the lower limit encodes the interferer exclusion region.

    ``method``:
      * ``"auto"``         closed form: arctan when eta == 4, the Gauss
        hypergeometric form otherwise;
      * ``"closed_form"``  force the arctan form (eta must be 4);
      * ``"quadrature"``   adaptive quadrature, the cross-check of the
        closed forms; ``spec`` applies to this route only.
    """
    if not eta > 2:
        raise ValueError(
            f"path-loss exponent must exceed 2 for a convergent tail, got {eta}"
        )
    if not a >= 0:
        raise ValueError(f"lower limit must be nonnegative, got {a}")
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if math.isinf(a):
        return 0.0
    if method == "closed_form" or (method == "auto" and eta == 4.0):
        if eta != 4.0:
            raise ValueError("closed form is only available for eta == 4")
        return _tail_integral_quartic(a)
    if method == "auto":
        return _tail_integral_hypergeometric(eta, a)
    if a < 1.0:
        return integrate_semi_infinite(lambda y: y / (y**eta + 1.0), a, spec)
    # y = a t: a^(2-eta) int_1^inf t / (t^eta + a^-eta) dt, so the
    # tolerance applies to an O(1) integral however small J is
    c = a**-eta
    return a ** (2.0 - eta) * integrate_semi_infinite(
        lambda t: t / (t**eta + c), 1.0, spec
    )


def _check_quad_result(result: tuple, spec: QuadratureSpec) -> float:
    value, abserr = result[0], result[1]
    if len(result) > 3:  # QUADPACK appended a warning message
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if not abserr <= tol:
            raise QuadratureError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (estimated error {abserr:.3e}): {result[3]}"
            )
    return float(value)


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over [lower, inf) to within
    max(abs_tol, rel_tol * |result|).

    The range is mapped onto a finite interval with the rational transform
    y = lower + (1 - t)/t and integrated by adaptive Gauss-Kronrod
    bisection (QUADPACK QAGI).  Raises :class:`QuadratureError` when the
    subdivision budget is exhausted without meeting the tolerance.
    """
    result = integrate.quad(
        f,
        lower,
        np.inf,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    return _check_quad_result(result, spec)


def integrate_interval(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive Gauss-Kronrod integration of ``f`` over [lower, upper].

    Tolerates integrable endpoint singularities (the power-law densities
    integrated here behave like x^(2/eta - 1) at the origin).
    """
    result = integrate.quad(
        f,
        lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    return _check_quad_result(result, spec)
