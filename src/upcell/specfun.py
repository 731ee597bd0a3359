"""Numerical kernel: incomplete gamma, the interference tail integral, a
fixed vectorised quadrature rule, and adaptive quadrature over finite and
semi-infinite ranges.

The tail integral J(eta, a) has a closed form for every eta > 2: arctan at
eta = 4 and a Gauss hypergeometric function otherwise, the same function
as rho(.) in Andrews, Baccelli and Ganti, "A Tractable Approach to
Coverage and Rate in Cellular Networks" (2011).  Both are ufuncs, so J is
evaluated elementwise over an array of lower limits.

:func:`integrate_panels`, composite 21-point Gauss-Kronrod on fixed
panels, evaluates its integrand once on the array of all nodes; the
package's integrals (rate and mixture moments, in logarithmic variables)
run on it.  The adaptive QUADPACK wrappers :func:`integrate_interval` and
:func:`integrate_semi_infinite` take scalar integrands and serve as
independent references.  Every routine accepts a result only within
1e-10 relative of its error estimate and raises :class:`QuadratureError`
otherwise.

Importing this module loads numpy only.  The special functions import
``scipy.special`` on their first call, through the module attribute
``special``, and the QUADPACK wrappers likewise import ``scipy.integrate``
(which loads ``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg``)
through ``integrate``; the wrappers and that attribute stay because the
benchmark's trace hooks wrap them by name.

Everything here is a pure function of its arguments; there is no shared
mutable state, so all routines are safe to call concurrently.
"""

from __future__ import annotations

import importlib
import math
import sys
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "lower_incomplete_gamma",
    "tail_interference_integral",
    "integrate_semi_infinite",
    "integrate_interval",
    "integrate_panels",
]

# relative tolerance of every integral: tight enough that the test-side
# quadrature of J reproduces the closed forms to <= 1e-9
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000

# the 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): its nodes
# in [0, 1], descending, with their weights; the 2nd, 4th, ... 10th are the
# nodes of the embedded 10-point Gauss rule
_HALF_NODES = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_HALF_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_HALF_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# ascending on [-1, 1]; the Gauss nodes are the odd-indexed ones
_KRONROD_NODES = np.concatenate([-_HALF_NODES, _HALF_NODES[-2::-1]])
_KRONROD_WEIGHTS = np.concatenate([_HALF_KRONROD_WEIGHTS,
                                   _HALF_KRONROD_WEIGHTS[-2::-1]])
_GAUSS_WEIGHTS = np.concatenate([_HALF_GAUSS_WEIGHTS, _HALF_GAUSS_WEIGHTS[::-1]])
# widest panel of the fixed rule: the integrands it serves are smooth on a
# scale of order one in a logarithmic variable
_PANEL_WIDTH = 1.5


def __getattr__(name: str):
    # PEP 562: the first access to ``special`` or ``integrate`` imports that
    # scipy module and binds it as a module global, which later lookups
    # find directly; a bare global name would skip this hook
    if name not in ("special", "integrate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"scipy.{name}")
    globals()[name] = module
    return module


class QuadratureError(RuntimeError):
    """A quadrature's error estimate missed the relative tolerance: the
    adaptive rule exhausted its subdivision budget, or the fixed rule's
    panels are too coarse for the integrand."""


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
    special = sys.modules[__name__].special
    return float(special.gammainc(a, b) * special.gamma(a))


def _tail_integral_quartic(a: np.ndarray) -> np.ndarray:
    # int_a^inf y/(y^4+1) dy = (1/2)(pi/2 - arctan(a^2)) = (1/2) atan2(1, a^2),
    # which has no cancellation for large a; a^2 overflows only where J is
    # below the smallest normal double anyway
    with np.errstate(over="ignore"):
        return 0.5 * np.arctan2(1.0, a * a)


def _tail_integral_hypergeometric(eta: float, a: np.ndarray) -> np.ndarray:
    # Two branches keep the 2F1 argument in [-1, 0], where the series
    # converges; each term-wise integrates the geometric series of
    # 1/(1 + y^eta) (a < 1) or of y^-eta / (1 + y^-eta) (a >= 1).
    special = sys.modules[__name__].special
    delta = 2.0 / eta
    out = np.empty_like(a)
    high = a >= 1.0
    b = a[high]
    out[high] = (
        b ** (2.0 - eta) / (eta - 2.0)
        * special.hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -(b**-eta))
    )
    # J(eta, 0) minus the integral over [0, a]
    b = a[~high]
    out[~high] = (math.pi / eta) / math.sin(math.pi * delta) - 0.5 * b * b * (
        special.hyp2f1(1.0, delta, 1.0 + delta, -(b**eta))
    )
    return out


def tail_interference_integral(
    eta: float, a: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate J(eta, a) = int_a^inf y / (y^eta + 1) dy for eta > 2 in
    closed form: arctan when eta == 4, the Gauss hypergeometric form
    otherwise.

    Elementwise over an array ``a``; a scalar ``a`` returns a float.
    This is the geometric factor of the interference Laplace transform;
    the lower limit encodes the interferer exclusion region.
    """
    if not eta > 2:
        raise ValueError(
            f"path-loss exponent must exceed 2 for a convergent tail, got {eta}"
        )
    a = np.asarray(a, dtype=float)
    bad = ~(a >= 0)
    if bad.any():
        raise ValueError(f"lower limit must be nonnegative, got {a[bad].flat[0]}")
    if eta == 4.0:
        j = _tail_integral_quartic(a)
    else:
        j = _tail_integral_hypergeometric(eta, a)
    return float(j) if j.ndim == 0 else j


def _check_quad_result(result: tuple) -> float:
    value, abserr = result[0], result[1]
    if len(result) > 3:  # QUADPACK appended a warning message
        if not abserr <= _REL_TOL * abs(value):
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_SUBDIVISIONS} "
                f"subdivisions (estimated error {abserr:.3e}): {result[3]}"
            )
    return float(value)


def integrate_semi_infinite(f: Callable[[float], float], lower: float) -> float:
    """Integrate ``f`` over [lower, inf) to within 1e-10 * |result|.

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
    # an attribute lookup, so a stand-in set on the module is what runs
    result = sys.modules[__name__].integrate.quad(
        f,
        lower,
        upper,
        epsabs=0.0,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
    )
    return _check_quad_result(result)


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray], lower: float, upper: float
) -> float:
    """Integrate ``f`` over the finite [lower, upper] by one fixed rule:
    21-point Gauss-Kronrod on equal panels at most 1.5 wide.

    ``f`` is called once, on the array of every node, and must return
    the integrand elementwise.  The error estimate is the summed
    difference between the Kronrod and the embedded 10-point Gauss sums,
    which is the error of the Gauss rule and so well above that of the
    returned Kronrod sum.  Raises :class:`QuadratureError` when it exceeds
    1e-10 * |result| or a value is not finite.
    """
    n = max(1, math.ceil((upper - lower) / _PANEL_WIDTH))
    half = 0.5 * (upper - lower) / n
    centres = lower + half * (2.0 * np.arange(n) + 1.0)
    nodes = centres[:, None] + half * _KRONROD_NODES
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kronrod = half * (values @ _KRONROD_WEIGHTS)
    gauss = half * (values[:, 1::2] @ _GAUSS_WEIGHTS)
    value = float(kronrod.sum())
    error = float(np.abs(kronrod - gauss).sum())
    if not error <= _REL_TOL * abs(value):
        raise QuadratureError(
            f"fixed rule on {n} panels over [{lower:.6g}, {upper:.6g}] missed "
            f"the tolerance (estimated error {error:.3e}, value {value:.6e})"
        )
    return value
