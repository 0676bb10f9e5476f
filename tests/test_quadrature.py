"""Quadrature kernels against closed moments and independent Simpson oracles."""

import math

import numpy as np
import pytest

from infoprice.model import ModelParams
from infoprice.quadrature import (
    expect_gaussian,
    g_of_q,
    gauss_hermite,
    gauss_jacobi,
    phi2,
    phi2_many,
    psi_double_integral,
)

from .oracles import (
    gaussian_expect_simpson,
    hermite_nodes_newton,
    tensor_simpson_2d,
)

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermite:
    def test_one_point_rule(self):
        rule = gauss_hermite(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([SQRT_PI], abs=1e-15)

    def test_two_point_rule(self):
        # roots of H_2(x) = 4x^2 - 2 are +-1/sqrt(2), each with weight sqrt(pi)/2
        rule = gauss_hermite(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)],
                                           abs=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], abs=1e-14)

    @pytest.mark.parametrize("order", [4, 16, 64, 128, 200])
    def test_weight_normalization(self, order):
        rule = gauss_hermite(order)
        assert abs(rule.weights.sum() - SQRT_PI) < 1e-12

    @pytest.mark.parametrize("order", [3, 8, 64])
    def test_nodes_match_recurrence_root_finder(self, order):
        rule = gauss_hermite(order)
        oracle = hermite_nodes_newton(order)
        assert np.max(np.abs(rule.nodes - oracle)) < 1e-9

    @pytest.mark.parametrize("order", [2, 9, 64])
    def test_nodes_symmetric_increasing(self, order):
        rule = gauss_hermite(order)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-12

    @pytest.mark.parametrize("order", [0, 201, -3])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            gauss_hermite(order)


class TestGaussJacobi:
    @pytest.mark.parametrize("c", [0.01, 0.05, 1.0, 250.0, 1e6])
    def test_probability_rule_with_exact_moments(self, c):
        nodes, probs = gauss_jacobi(c)
        assert np.all((nodes > 0.0) & (nodes < 1.0)) and np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) <= 1e-15
        # E[t^n] = c/(c + n) under c t^(c-1), exact up to degree 2 * 32 - 1
        for n in (1, 7, 63):
            assert abs(probs @ nodes ** n - c / (c + n)) <= 1e-13 * c / (c + n)

    def test_uniform_density_is_gauss_legendre(self):
        nodes, probs = gauss_jacobi(1.0)
        x, w = np.polynomial.legendre.leggauss(32)
        assert np.max(np.abs(nodes - 0.5 * (x + 1.0))) <= 1e-15
        assert np.max(np.abs(probs - 0.5 * w)) <= 1e-15


class TestPointsAndProbs:
    """QuadratureRule.points and probs are the written-out N(mean, var)
    nodes and probabilities, bit for bit."""

    def test_scalar_mean(self, rule64):
        want = -0.05 + math.sqrt(2.0 * 0.03) * rule64.nodes
        assert np.array_equal(rule64.points(-0.05, 0.03), want)

    def test_array_mean_gives_a_row_per_entry(self, rule64):
        mean = np.array([-0.3, 0.0, 0.7])
        got = rule64.points(mean, 0.02)
        assert got.shape == (3, 64)
        assert np.array_equal(got, mean[:, None] + math.sqrt(2.0 * 0.02) * rule64.nodes)

    def test_probs(self, rule64):
        assert np.array_equal(rule64.probs, rule64.weights / SQRT_PI)
        assert math.fsum(rule64.probs) == pytest.approx(1.0, abs=1e-14)


class TestExpectGaussian:
    def test_constant(self, rule64):
        assert expect_gaussian(lambda x: np.ones_like(x), 0.7, 0.3, rule64) == \
            pytest.approx(1.0, abs=1e-14)

    def test_first_moment(self, rule64):
        assert expect_gaussian(lambda x: x, 0.3, 0.5, rule64) == \
            pytest.approx(0.3, abs=1e-14)

    def test_second_moment(self, rule64):
        got = expect_gaussian(lambda x: x * x, 0.0, 0.01, rule64)
        assert abs(got - 0.01) < 1e-12

    def test_polynomial_exactness(self, rule64):
        # degree <= 2 order - 1 is integrated exactly; check random degree-9
        # polynomials against analytic Gaussian moments
        rng = np.random.default_rng(7)
        mean, var = 0.4, 0.09
        # central moments of N(0, var): E[Z^{2k}] = (2k-1)!! var^k
        central = [1.0, 0.0]
        for n in range(2, 10):
            central.append((n - 1) * var * central[n - 2])
        for _ in range(20):
            coeffs = rng.standard_normal(10)

            def poly(x):
                return np.polyval(coeffs, x - mean)   # in powers of (x - mean)

            exact = sum(c * central[9 - i] for i, c in enumerate(coeffs))
            got = expect_gaussian(poly, mean, var, rule64)
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_rejects_bad_variance(self, rule64):
        with pytest.raises(ValueError):
            expect_gaussian(lambda x: x, 0.0, 0.0, rule64)

    def test_rejects_non_finite_integrand(self, rule64):
        with pytest.raises(ValueError):
            expect_gaussian(lambda x: np.where(x > 0, np.inf, 1.0), 0.0, 1.0, rule64)


class TestGOfQ:
    def test_at_zero(self, canon, rule64):
        assert g_of_q(0.0, canon, rule64) == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_limit(self, rule64):
        # v -> 0 collapses the jump law to delta(m): g(1) -> e^{(1-R) m}
        p = ModelParams(mu=0.10, r=0.05, sigma=0.20, lam=0.5, m=-0.05,
                        v=1e-12, rho=0.10, R=2.0, v_eps=0.02)
        assert g_of_q(1.0, p, rule64) == pytest.approx(math.exp(0.05), abs=1e-6)

    def test_against_simpson_oracle(self, canon, rule64):
        got = g_of_q(0.5, canon, rule64)
        want = gaussian_expect_simpson(
            lambda x: (1.0 + 0.5 * math.expm1(x)) ** (1.0 - canon.R),
            canon.m, canon.v)
        assert abs(got - want) < 1e-9 * abs(want)

    def test_rejects_out_of_range(self, canon, rule64):
        for q in (-0.01, 1.01):
            with pytest.raises(ValueError):
                g_of_q(q, canon, rule64)

    def test_monotone_decreasing_for_adverse_jumps(self, canon, rule64):
        # m < 0 and R > 1: more jump exposure costs utility moment
        qs = np.linspace(0.0, 1.0, 1001)
        vals = np.array([g_of_q(q, canon, rule64) for q in qs])
        assert np.all(np.diff(vals) > 0)   # g increasing means g/(1-R) decreasing

    def test_order_doubling_stable(self, canon):
        r64, r128 = gauss_hermite(64), gauss_hermite(128)
        a = g_of_q(0.5, canon, r64)
        b = g_of_q(0.5, canon, r128)
        assert abs(a - b) < 1e-9 * abs(b)


class TestPhi2:
    def test_at_zero_is_u_of_one(self, canon, rule64):
        # U(1) = 1/(1-R) = -1 at R = 2
        assert phi2(0.0, 0.0, 0.005, canon, rule64) == pytest.approx(-1.0, abs=1e-14)

    def test_reduces_to_g(self, canon, rule64):
        for q in (0.2, 0.7):
            lhs = phi2(q, canon.m, canon.v, canon, rule64)
            rhs = g_of_q(q, canon, rule64) / (1.0 - canon.R)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_many_rejects_out_of_range(self, canon, rule64):
        # 1 + q (e^x - 1) can be negative outside [0, 1]
        for q in (-0.01, 1.01):
            with pytest.raises(ValueError):
                phi2_many(np.array([0.5, q]), 0.0, 0.005, canon, rule64)

    def test_against_simpson_oracle(self, canon, rule64):
        got = phi2(0.3, 0.0, 0.005, canon, rule64)
        want = gaussian_expect_simpson(
            lambda x: (1.0 + 0.3 * math.expm1(x)) ** (1.0 - canon.R)
            / (1.0 - canon.R), 0.0, 0.005)
        assert abs(got - want) < 1e-9 * abs(want)

    def test_order_doubling_stable(self, canon):
        r64, r128 = gauss_hermite(64), gauss_hermite(128)
        a = phi2(0.3, 0.0, 0.005, canon, r64)
        b = phi2(0.3, 0.0, 0.005, canon, r128)
        assert abs(a - b) < 1e-9 * abs(b)


class TestPsiDoubleIntegral:
    def test_constant_psi_reduces_to_1d(self, canon, rule64):
        got = psi_double_integral(lambda x: np.ones_like(x), 0.5, canon, rule64)
        from infoprice.quadrature import expect_gaussian
        want = expect_gaussian(
            lambda x: (1.0 + 0.5 * np.expm1(x)) ** (-canon.R),
            canon.m, canon.v, rule64)
        assert abs(got - want) < 1e-10

    def test_zero_psi(self, canon, rule64):
        assert psi_double_integral(lambda x: np.zeros_like(x), 0.3, canon,
                                   rule64) == pytest.approx(0.0, abs=1e-15)

    def test_against_tensor_simpson(self, canon, rule64):
        got = psi_double_integral(np.tanh, 0.5, canon, rule64)
        want = tensor_simpson_2d(
            lambda x1, x2: np.tanh(x1 + x2)
            * (1.0 + 0.5 * np.expm1(x1)) ** (-canon.R),
            canon.m, canon.v, 0.0, canon.v_eps, n_panels=800)
        assert abs(got - want) < 1e-7 * max(1.0, abs(want))

    @pytest.mark.parametrize("a", [0.0, 0.3])
    def test_noiseless_is_one_dimensional(self, rule64, a):
        # v_eps = 0 puts every noise node at 0, leaving the integral over X1
        p = ModelParams(mu=0.10, r=0.05, sigma=0.20, lam=0.5, m=-0.05,
                        v=0.01, rho=0.10, R=2.0, v_eps=0.0)
        got = psi_double_integral(np.tanh, a, p, rule64)
        want = expect_gaussian(
            lambda x: np.tanh(x) * (1.0 + a * np.expm1(x)) ** (-p.R),
            p.m, p.v, rule64)
        assert abs(got - want) <= 1e-15

    def test_order_doubling_stable(self, canon):
        r64, r128 = gauss_hermite(64), gauss_hermite(128)
        a = psi_double_integral(np.tanh, 0.5, canon, r64)
        b = psi_double_integral(np.tanh, 0.5, canon, r128)
        assert abs(a - b) < 1e-9 * max(1.0, abs(b))
