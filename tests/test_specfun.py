"""Numerical-kernel tests: incomplete gamma, the interference tail
integral, the fixed Gauss-Kronrod rule and the adaptive quadrature
wrappers, each cross-checked against independently coded fixed-order
oracles."""

import math
import sys

import mpmath
import numpy as np
import pytest

from upcell import specfun
from upcell.specfun import (
    QuadratureError,
    integrate_interval,
    integrate_panels,
    integrate_semi_infinite,
    lower_incomplete_gamma,
    tail_interference_integral,
)

# gamma(2, 1) from an 80-node Gauss-Legendre rule applied to the defining
# integral (independent of the implementation's series/continued fraction)
GAMMA_2_1 = 0.26424111765711517

# J(3, 0.5) from composite Simpson on [0.5, 50] with 2^16 panels plus the
# alternating series tail sum_m (-1)^m / ((3m+1) 50^(3m+1))
J_3_HALF = 1.0900017302284664


def small_oscillating(x):
    # 1e-13 e^-x (1 + 0.5 sin 50x), whose integral over [0, inf) is
    # 1e-13 (1 + 25/2501): far below an absolute tolerance of 1e-12
    return 1e-13 * np.exp(-x) * (1.0 + 0.5 * np.sin(50.0 * x))


SMALL_OSCILLATING_INTEGRAL = 1e-13 * (1.0 + 25.0 / 2501.0)


class TestLowerIncompleteGamma:
    def test_exponential_case(self):
        # gamma(1, b) = 1 - e^(-b) by direct integration
        np.testing.assert_allclose(
            lower_incomplete_gamma(1.0, 2.0), 1.0 - math.exp(-2.0), rtol=1e-13
        )

    def test_complete_limit(self):
        assert lower_incomplete_gamma(2.0, math.inf) == pytest.approx(1.0, rel=1e-14)

    def test_against_quadrature_oracle(self):
        np.testing.assert_allclose(
            lower_incomplete_gamma(2.0, 1.0), GAMMA_2_1, rtol=1e-12
        )

    def test_twelve_digits_on_parameter_box(self):
        # 200-node Gauss-Legendre oracle; for a < 1 the substitution
        # u = t^a removes the endpoint singularity:
        # gamma(a, b) = (1/a) int_0^(b^a) exp(-u^(1/a)) du
        nodes, weights = np.polynomial.legendre.leggauss(200)
        for a in (0.5, 1.0, 2.0, 3.5, 10.0):
            for b in (0.01, 0.5, 2.0, 10.0, 50.0):
                if a < 1.0:
                    top = b**a
                    u = 0.5 * top * (nodes + 1.0)
                    ref = 0.5 * top / a * np.sum(
                        weights * np.exp(-(u ** (1.0 / a)))
                    )
                else:
                    edges = np.linspace(0.0, b, max(2, int(b / 5.0) + 2))
                    ref = 0.0
                    for lo, hi in zip(edges, edges[1:]):
                        t = 0.5 * (hi - lo) * (nodes + 1.0) + lo
                        ref += 0.5 * (hi - lo) * np.sum(
                            weights * t ** (a - 1.0) * np.exp(-t)
                        )
                np.testing.assert_allclose(
                    lower_incomplete_gamma(a, b), ref, rtol=1e-12,
                    err_msg=f"a={a}, b={b}",
                )

    def test_against_mpmath(self):
        # b from 1e-12, where gamma(a, b) ~ b^a / a, to 1e3 and inf,
        # where it is the complete Gamma(a)
        for a in (0.5, 1.5, 3.0):
            for b in [*np.geomspace(1e-12, 1e3, 31), math.inf]:
                with mpmath.workdps(40):
                    ref = float(mpmath.gammainc(a, 0, mpmath.mpf(b)))
                np.testing.assert_allclose(
                    lower_incomplete_gamma(a, b), ref, rtol=1e-13,
                    err_msg=f"a={a}, b={b}",
                )

    def test_monotone_in_b(self):
        bs = np.linspace(0.0, 12.0, 25)
        for a in (0.5, 1.0, 3.0, 7.5):
            vals = [lower_incomplete_gamma(a, b) for b in bs]
            assert vals[0] == 0.0
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_complete_gamma_matches_factorials(self):
        for n in range(1, 11):
            np.testing.assert_allclose(
                lower_incomplete_gamma(float(n), math.inf),
                math.factorial(n - 1),
                rtol=1e-13,
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -0.5)


class TestTailInterferenceIntegral:
    def test_quartic_closed_form(self, quadrature_tail):
        # J(4, 1) = (1/2)(pi/2 - arctan 1) = pi/8
        np.testing.assert_allclose(
            tail_interference_integral(4.0, 1.0), math.pi / 8.0, rtol=1e-14
        )
        np.testing.assert_allclose(
            quadrature_tail(4.0, 1.0),
            math.pi / 8.0,
            rtol=1e-10,
        )

    def test_empty_tail(self):
        assert tail_interference_integral(4.0, math.inf) == 0.0
        assert tail_interference_integral(4.0, 1e12) < 1e-20

    def test_against_simpson_oracle(self):
        np.testing.assert_allclose(
            tail_interference_integral(3.0, 0.5), J_3_HALF, rtol=1e-10
        )

    def test_closed_form_matches_quadrature_on_grid(self, quadrature_tail):
        for a in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0):
            closed = tail_interference_integral(4.0, a)
            generic = quadrature_tail(4.0, a)
            np.testing.assert_allclose(generic, closed, rtol=1e-9, err_msg=f"a={a}")

    def test_monotone_nonincreasing_in_a(self):
        for eta in (2.5, 3.0, 4.0, 6.0):
            vals = [
                tail_interference_integral(eta, a)
                for a in np.linspace(0.0, 5.0, 21)
            ]
            assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_monotone_nonincreasing_in_eta_beyond_one(self):
        for a in (1.0, 1.5, 3.0):
            vals = [
                tail_interference_integral(eta, a)
                for eta in np.linspace(2.2, 8.0, 15)
            ]
            assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_finite_at_zero(self):
        # J(eta, 0) = (pi/eta) / sin(2 pi/eta)
        for eta in (2.5, 3.0, 4.0, 5.0):
            expected = (math.pi / eta) / math.sin(2.0 * math.pi / eta)
            np.testing.assert_allclose(
                tail_interference_integral(eta, 0.0), expected, rtol=1e-9
            )

    def test_closed_form_against_mpmath_hypergeometric(self):
        # mpmath evaluates the one-branch form a^(2-eta)/(eta-2)
        # 2F1(1, 1-2/eta; 2-2/eta; -a^-eta) by analytic continuation for
        # |z| > 1 as well, so it checks both branches of the implementation
        # from 1e-300 to 1e300
        grid = [0.0, 1e-300, 1e-100, 1e-30, 1e-10, 1e-3, 0.1, 0.5, 0.99, 1.0,
                1.01, 2.0, 10.0, 1e3, 1e10, 1e30, 1e100, 1e300]
        with mpmath.workdps(30):
            for eta in (2.01, 2.5, 3.0, 3.5, 4.0, 4.5, 6.0, 8.0):
                e = mpmath.mpf(eta)
                for a in grid:
                    if a == 0.0:
                        exact = (mpmath.pi / e) / mpmath.sin(2 * mpmath.pi / e)
                    else:
                        x = mpmath.mpf(a)
                        exact = x ** (2 - e) / (e - 2) * mpmath.hyp2f1(
                            1, 1 - 2 / e, 2 - 2 / e, -x ** (-e)
                        )
                    got = tail_interference_integral(eta, a)
                    if exact < sys.float_info.min:
                        # below the normal doubles: no relative accuracy
                        assert got < sys.float_info.min, f"eta={eta}, a={a}"
                        continue
                    rel = abs(mpmath.mpf(got) - exact) / exact
                    assert rel <= 1e-12, f"eta={eta}, a={a}: {float(rel):.2e}"

    @pytest.mark.parametrize("eta", [2.5, 3.5, 4.0, 6.0])
    def test_quadrature_matches_closed_form_on_grid(self, eta, quadrature_tail):
        # includes a = 1e3 at eta = 6, where J = 2.5e-13 sits far below the
        # absolute tolerance of an unscaled quadrature
        for a in (0.0, 1e-3, 0.3, 0.99, 1.0, 1.01, 3.0, 10.0, 100.0, 1e3):
            np.testing.assert_allclose(
                quadrature_tail(eta, a),
                tail_interference_integral(eta, a),
                rtol=1e-9,
                err_msg=f"eta={eta}, a={a}",
            )

    @pytest.mark.parametrize("eta", [3.5, 4.0])
    def test_elementwise_over_arrays(self, eta):
        a = np.array([[0.0, 1e-3, 0.5, 0.99], [1.0, 3.0, 1e30, math.inf]])
        got = tail_interference_integral(eta, a)
        assert got.shape == a.shape
        for x, j in zip(a.flat, got.flat):
            assert j == tail_interference_integral(eta, float(x))
        assert type(tail_interference_integral(eta, 0.5)) is float
        assert type(tail_interference_integral(eta, np.float64(2.0))) is float

    def test_array_domain_errors(self):
        with pytest.raises(ValueError):
            tail_interference_integral(3.5, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            tail_interference_integral(4.0, np.array([0.5, math.nan]))

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            tail_interference_integral(2.0, 1.0)
        with pytest.raises(ValueError):
            tail_interference_integral(1.5, 0.0)


class TestIntegrateSemiInfinite:
    def test_known_integrals(self):
        np.testing.assert_allclose(
            integrate_semi_infinite(lambda x: math.exp(-x), 0.0), 1.0, atol=1e-10
        )
        np.testing.assert_allclose(
            integrate_semi_infinite(lambda x: x * math.exp(-x), 0.0), 1.0, atol=1e-10
        )

    def test_rational_integrand_against_partial_fractions(self):
        # 1/((x+1)(x^2+1)) = (1/2)/(x+1) + (1/2)(1 - x)/(x^2+1), whose
        # antiderivative evaluates to pi/4 over [0, inf)
        val = integrate_semi_infinite(
            lambda x: 1.0 / ((x + 1.0) * (x * x + 1.0)), 0.0
        )
        np.testing.assert_allclose(val, math.pi / 4.0, rtol=1e-11)

    def test_nonzero_lower_limit(self):
        np.testing.assert_allclose(
            integrate_semi_infinite(lambda x: math.exp(-x), 3.0),
            math.exp(-3.0),
            rtol=1e-11,
        )

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(
                lambda x: math.sin(50.0 * x) * math.exp(-0.01 * x), 0.0
            )


class TestIntegrateInterval:
    def test_endpoint_singularity(self):
        # integrable x^(-1/2) singularity, as in the power densities
        val = integrate_interval(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        np.testing.assert_allclose(val, 2.0, rtol=1e-9)

    def test_tolerance_is_relative(self):
        # an absolute 1e-12 acceptance returned 1.109e-13 here, 10% high
        val = integrate_interval(lambda x: float(small_oscillating(x)),
                                 0.0, math.inf)
        np.testing.assert_allclose(val, SMALL_OSCILLATING_INTEGRAL, rtol=1e-9)


class TestIntegratePanels:
    def test_rule_constants(self):
        # the embedded rule is 10-point Gauss-Legendre; the Kronrod rule
        # integrates monomials exactly up to degree 31, the Gauss rule up
        # to degree 19 (odd ones vanish by symmetry)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(specfun._KRONROD_NODES[1::2], nodes,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(specfun._GAUSS_WEIGHTS, weights,
                                   rtol=0, atol=1e-15)
        x = specfun._KRONROD_NODES
        for k in range(0, 40, 2):
            exact = 2.0 / (k + 1)
            kronrod = specfun._KRONROD_WEIGHTS @ x**k
            gauss = specfun._GAUSS_WEIGHTS @ x[1::2] ** k
            assert (abs(kronrod - exact) <= 1e-14) == (k <= 31), k
            assert (abs(gauss - exact) <= 1e-14) == (k <= 19), k

    def test_one_call_on_all_nodes(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.exp(-x)

        val = integrate_panels(f, 0.0, 40.0)
        np.testing.assert_allclose(val, -math.expm1(-40.0), rtol=1e-14)
        assert len(calls) == 1 and calls[0][0] % 21 == 0

    def test_known_integrals(self):
        np.testing.assert_allclose(integrate_panels(np.sin, 0.0, math.pi), 2.0,
                                   rtol=1e-14)
        np.testing.assert_allclose(
            integrate_panels(lambda x: 1.0 / (1.0 + x * x), -3.0, 3.0),
            2.0 * math.atan(3.0), rtol=1e-13,
        )
        assert integrate_panels(np.zeros_like, 0.0, 5.0) == 0.0

    def test_tolerance_is_relative(self):
        # a resolved integral of size 1e-13 keeps 1e-10 relative accuracy:
        # int_0^40 e^-x (1 + 0.5 sin x) dx = (1 - e^-40)
        #   + (1 - e^-40 (sin 40 + cos 40)) / 4
        tail = math.exp(-40.0)
        exact = (1.0 - tail) + 0.25 * (
            1.0 - tail * (math.sin(40.0) + math.cos(40.0)))
        val = integrate_panels(
            lambda x: 1e-13 * np.exp(-x) * (1.0 + 0.5 * np.sin(x)), 0.0, 40.0)
        np.testing.assert_allclose(val, 1e-13 * exact, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e13])
    def test_unresolved_integrand_raises(self, scale):
        # sin 50x is far narrower than a panel: the error estimate misses
        # the tolerance whatever the size of the integral
        with pytest.raises(QuadratureError):
            integrate_panels(lambda x: scale * small_oscillating(x), 0.0, 40.0)

    def test_non_finite_value_raises(self):
        with pytest.raises(QuadratureError):
            integrate_panels(lambda x: np.where(x > 1.0, np.nan, 1.0), 0.0, 2.0)

