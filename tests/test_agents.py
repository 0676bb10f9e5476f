"""Regime solvers: limits, oracles, deflator normalizations, orderings."""

import dataclasses
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoprice import agents, quadrature
from infoprice.agents import (
    REGIMES,
    RegimeSolutions,
    _MonotoneCubic,
    _renewal_excess,
    g1_of_q,
    log_scale,
    posterior_of_jump,
    q_bar_signal,
    signal_terms,
    solve_all,
    solve_merton,
    solve_signal_insider,
    solve_timing_insider,
    solve_uninformed,
)
from infoprice.errors import (
    BoundaryOptimumError,
    DomainError,
    GateError,
    IllPosedError,
)
from infoprice.model import (
    ConstantStream,
    ExpUntilFirstJumpStream,
    PostFirstJumpSignalStream,
    validate_params,
)
from infoprice.optimize import maximize_bounded
from infoprice.pricing import info_value_report
from infoprice.quadrature import (
    g_of_q,
    g_of_q_many,
    gauss_hermite,
    gauss_jacobi,
    phi2_many,
)
from infoprice.simulate import SimConfig

from .oracles import (
    argmax_exposure_slope_corners,
    beta_coef,
    bisection_root,
    consumption_integral,
    deflator,
    discretized_bayes_posterior,
    exposure_slope_allocating,
    gauss_laguerre_exp_average,
    grid_argmax,
    timing_f,
)


def with_fields(p, **kw):
    return dataclasses.replace(p, **kw)


def average_excess(gamma, c0, R, c):
    """E[f(T)]/f(0) - 1 on the rule of c = lam/gamma, as the timing solve
    takes it."""
    nodes, probs = gauss_jacobi(c)
    return _renewal_excess(gamma, c0, R, 1.0 - nodes, probs)[0]


# Parameter box of the uninformed and timing properties (r and rho as in
# canon), and of test_pricing's pipeline property. The signal properties use
# the same ranges with R in [1.5, 6] and in [1.5, 20], since the gate needs
# R > 1, and draw v_eps as well.
BOX = dict(mu=st.floats(0.06, 0.14), sigma=st.floats(0.15, 0.3),
           lam=st.floats(0.1, 4.0), m=st.floats(-0.1, 0.05),
           v=st.floats(0.005, 0.09), R=st.floats(0.3, 6.0))
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None,
                    database=None)


# ---------------------------------------------------------------------------
# Uninformed
# ---------------------------------------------------------------------------

class TestUninformed:
    def test_no_jump_limit_is_merton(self, canon, rule64):
        p0 = with_fields(canon, lam=0.0)
        sol = solve_uninformed(p0, rule64)
        mer = solve_merton(p0)
        assert abs(sol.q_bar1 - 0.625) < 1e-8
        assert abs(sol.A1 - mer.A_M) < 1e-10 * mer.A_M

    def test_lambda_continuity(self, canon, rule64):
        tiny = solve_uninformed(with_fields(canon, lam=1e-8), rule64)
        mer = solve_merton(canon)
        assert abs(tiny.A1 - mer.A_M) < 1e-6 * mer.A_M
        assert abs(tiny.q_bar1 - canon.merton_fraction) < 1e-6

    def test_exposure_matches_grid_oracle(self, canon, rule64, sol_uninformed):
        def g1_vec(q):
            q = np.atleast_1d(q)
            return (canon.r + q * (canon.mu - canon.r)
                    - 0.5 * canon.sigma**2 * canon.R * q * q
                    + canon.lam * (g_of_q_many(q, canon, rule64) - 1.0)
                    / (1.0 - canon.R))

        brute = grid_argmax(g1_vec, 0.0, 1.0, n=1_000_001)
        assert abs(sol_uninformed.q_bar1 - brute) < 1e-5

    def test_invariants(self, canon, rule64, sol_uninformed):
        sol = sol_uninformed
        denom = canon.rho + (canon.R - 1.0) * sol.g1_at_opt
        assert denom > 0
        assert sol.A1 == pytest.approx((canon.R / denom) ** canon.R, rel=1e-12)
        expect_alpha = canon.r - canon.rho + canon.R * (
            -canon.r - sol.q_bar1 * (canon.mu - canon.r)
            + sol.A1 ** (-1.0 / canon.R)
            + 0.5 * (canon.R + 1.0) * canon.sigma**2 * sol.q_bar1**2)
        assert sol.alpha == pytest.approx(expect_alpha, rel=1e-12)

    @PROPERTY
    @given(**BOX)
    def test_solve_converges_or_raises_domain_error(self, canon, rule64, mu,
                                                     sigma, lam, m, v, R):
        """Property over the box mu in [0.06, 0.14], sigma in [0.15, 0.3],
        lam in [0.1, 4], m in [-0.1, 0.05], v in [0.005, 0.09], R in
        [0.3, 6] (r and rho as in canon): the solve returns an interior
        q_bar1 with finite A1 = (R/(rho + (R-1) g1))^R, or raises a
        DomainError subclass."""
        p = with_fields(canon, mu=mu, sigma=sigma, lam=lam, m=m, v=v, R=R)
        try:
            sol = solve_uninformed(p, rule64)
        except DomainError:
            return
        assert 0.0 < sol.q_bar1 < 1.0
        assert math.isfinite(sol.A1) and sol.A1 > 0.0
        want = (p.R / (p.rho + (p.R - 1.0) * sol.g1_at_opt)) ** p.R
        assert sol.A1 == pytest.approx(want, rel=1e-12)

    def test_zero_premium_hits_boundary(self, canon, rule64):
        # mu = r with adverse jumps puts the maximizer at q = 0
        with pytest.raises(BoundaryOptimumError):
            solve_uninformed(with_fields(canon, mu=canon.r), rule64)

    def test_adverse_dense_jumps_hit_boundary(self, canon, rule64):
        # lam 2 with m -0.05 puts the maximizer at q = 0 as well
        with pytest.raises(BoundaryOptimumError):
            solve_uninformed(with_fields(canon, lam=2.0, m=-0.05), rule64)

    def test_deflator_normalization(self, canon, sol_uninformed):
        w0 = canon.R / (canon.rho + (canon.R - 1.0) * sol_uninformed.g1_at_opt)
        assert deflator(sol_uninformed, canon, 0.0, w0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_deflator_plugins(self, canon, sol_uninformed):
        a1 = sol_uninformed.A1
        assert deflator(sol_uninformed, canon, 0.0, 1.0) == \
            pytest.approx(a1, rel=1e-14)
        assert deflator(sol_uninformed, canon, 1.0, 2.0) == \
            pytest.approx(a1 * math.exp(-0.1) * 0.25, rel=1e-14)
        with pytest.raises(ValueError):
            deflator(sol_uninformed, canon, 0.0, 0.0)


class TestMerton:
    def test_canon_arithmetic(self, canon, sol_merton):
        # independent arithmetic on the closed form
        want = 2.0**2 / (0.1 + 1.0 * (0.05 + 0.0025 / 0.16)) ** 2
        assert sol_merton.A_M == pytest.approx(want, rel=1e-14)
        assert sol_merton.kappa == pytest.approx(0.25)
        assert sol_merton.merton_fraction == pytest.approx(0.625)
        assert sol_merton.gamma_M_merton == pytest.approx(
            sol_merton.A_M ** (-0.5), rel=1e-14)

    @pytest.mark.parametrize("fields", [{}, dict(R=7.3, mu=0.21, sigma=0.37),
                                        dict(R=1.4, rho=0.29, sigma=0.11)])
    def test_one_consumption_rate(self, canon, rule64, fields):
        # merton and the timing insider between jumps consume at one gamma_M
        p = with_fields(canon, **fields)
        assert solve_merton(p).gamma_M_merton == \
            solve_timing_insider(p, rule64).gamma_M

    def test_zero_premium(self, canon):
        p = with_fields(canon, mu=canon.r)
        mer = solve_merton(p)
        assert mer.A_M == pytest.approx(
            (p.R / (p.rho + (p.R - 1) * p.r)) ** p.R, rel=1e-14)

    def test_ill_posed_rejected(self, canon):
        with pytest.raises(IllPosedError):
            solve_merton(with_fields(canon, R=0.2, rho=1e-6, mu=1.5, sigma=0.1))


# ---------------------------------------------------------------------------
# Timing insider
# ---------------------------------------------------------------------------

# interior jump exposure: needs -v/2 < m < 3v/2 at R = 2
INTERIOR_TIMING = dict(m=0.02, v=0.04)


class TestTimingInsider:
    def test_canon_corner_accepted(self, canon, sol_timing):
        # adverse jumps (m < 0, R > 1) put the optimal jump exposure at 0,
        # where the renewal identities hold trivially
        assert sol_timing.a_star == 0.0
        assert sol_timing.g_at_a_star == pytest.approx(1.0, rel=1e-12)
        assert sol_timing.gamma_M == pytest.approx(0.0828125, rel=1e-12)

    def test_fixed_point_residual_and_bisection_oracle(self, canon, rule64,
                                                       sol_timing):
        g_star = sol_timing.g_at_a_star
        gamma = sol_timing.gamma_M
        R = canon.R

        def phi(x):
            c = x ** (1.0 / R)

            def f_of_s(s):
                return (-math.expm1(-gamma * s) / gamma
                        + math.exp(-gamma * s) * c) ** R

            return g_star * gauss_laguerre_exp_average(f_of_s, canon.lam)

        assert abs(phi(sol_timing.f0) - sol_timing.f0) < 1e-10 * max(1.0, sol_timing.f0)
        root = bisection_root(lambda x: x - phi(x), 50.0, 400.0, tol=1e-10)
        assert abs(root - sol_timing.f0) < 1e-7 * sol_timing.f0

    @pytest.mark.parametrize("fields", [
        {}, INTERIOR_TIMING, dict(lam=2.0, m=0.0), dict(lam=4.0, m=0.0),
    ], ids=["canon", "interior", "dense", "lam4"])
    def test_a2_identity_and_laguerre_oracle(self, canon, rule64, fields):
        p = with_fields(canon, **fields)
        sol = solve_timing_insider(p, rule64)
        # f0 = g(a*) A2 exactly at the root of the renewal equation
        assert abs(sol.f0 - sol.g_at_a_star * sol.A2) < 1e-9 * sol.f0
        want = gauss_laguerre_exp_average(lambda s: float(timing_f(sol, s)), p.lam)
        assert abs(sol.A2 - want) < 1e-10 * abs(want)

    @pytest.mark.parametrize("fields", [
        {}, INTERIOR_TIMING, dict(lam=2.0, m=0.0), dict(lam=4.0, m=0.0),
    ], ids=["canon", "interior", "dense", "lam4"])
    def test_bisection_matches_brentq(self, canon, rule64, fields):
        from scipy.optimize import brentq
        p = with_fields(canon, **fields)
        sol = solve_timing_insider(p, rule64)

        def residual(x):
            g = sol.g_at_a_star
            return (g - 1.0) + g * average_excess(
                sol.gamma_M, x ** (1.0 / p.R), p.R, p.lam / sol.gamma_M)

        # a bracket: halve and double from the Merton A_M
        lo = hi = solve_merton(p).A_M
        while residual(lo) <= 0.0:
            lo *= 0.5
        while residual(hi) >= 0.0:
            hi *= 2.0
        want = brentq(residual, lo, hi, xtol=1e-13, rtol=1e-15, maxiter=200)
        assert abs(sol.f0 - want) <= 1e-14 * want

    def test_exp_average_matches_simpson(self):
        # non-integer R against Simpson on Euler's integral gamma^(-R)
        # int_0^1 c u^(c-1) (1 - btilde u)^R du, taken in s = u^c so that
        # the integrand stays bounded for c < 1
        from .oracles import adaptive_simpson
        gamma, R = 0.07, 2.7
        for c in (0.05, 0.5, 0.9 / 0.07, 67.0, 250.0):
            for btilde in (-1.8, 0.5, 0.9):
                c0 = (1.0 - btilde) / gamma
                want = gamma ** (-R) * adaptive_simpson(
                    lambda s: (1.0 - btilde * s ** (1.0 / c)) ** R, 0.0, 1.0,
                    tol=1e-14 * (1.0 - btilde) ** R)
                got = c0 ** R * (1.0 + average_excess(gamma, c0, R, c))
                assert abs(got - want) <= 1e-12 * want, (c, btilde)

    @pytest.mark.parametrize("R", [1, 2, 5, 15])
    @pytest.mark.parametrize("c", [0.05, 1.0, 0.9 / 0.07, 250.0])
    @pytest.mark.parametrize("btilde", [-3.0, -1.8, 0.0, 0.5, 0.9])
    def test_exp_average_matches_binomial_sum(self, R, c, btilde):
        # integer R: E[(1 - btilde t)^R] = sum_n C(R, n) (-btilde)^n c/(c + n)
        # under the density c t^(c-1), summed in exact rational arithmetic
        # because the terms alternate and cancel for btilde > 0
        gamma = 0.07
        c0 = (1.0 - btilde) / gamma
        bt, cf = Fraction(1.0 - gamma * c0), Fraction(c)
        want = gamma ** (-R) * float(sum(
            math.comb(R, n) * (-bt) ** n * cf / (cf + n) for n in range(R + 1)))
        got = c0 ** R * (1.0 + average_excess(gamma, c0, float(R), c))
        assert abs(got - want) <= 1e-12 * want

    @PROPERTY
    @given(**BOX)
    def test_solve_converges_or_raises_domain_error(self, canon, rule64, mu,
                                                     sigma, lam, m, v, R):
        """Property over the box of the uninformed one: the solve returns
        finite f0 and A2 with |f0 - g(a*) A2| <= 1e-9 max(1, f0) and
        gamma_M > 0, or raises a DomainError subclass."""
        p = with_fields(canon, mu=mu, sigma=sigma, lam=lam, m=m, v=v, R=R)
        try:
            sol = solve_timing_insider(p, rule64)
        except DomainError:
            return
        assert math.isfinite(sol.f0) and math.isfinite(sol.A2)
        assert abs(sol.f0 - sol.g_at_a_star * sol.A2) <= 1e-9 * max(1.0, sol.f0)
        assert sol.gamma_M > 0.0

    @PROPERTY
    @given(**BOX)
    def test_newton_climbs_to_the_root(self, canon, rule64, mu, sigma, lam, m,
                                       v, R):
        """Property over the box of the uninformed one: the residual is
        convex in log x and the solve starts below its root, so the x at
        which it evaluates the renewal average never decrease, and there are
        at most 25 of them."""
        p = with_fields(canon, mu=mu, sigma=sigma, lam=lam, m=m, v=v, R=R)
        with mock.patch.object(agents, "_renewal_excess",
                               wraps=agents._renewal_excess) as spy:
            try:
                solve_timing_insider(p, rule64)
            except DomainError:
                return
        # each call is passed c0 = x^(1/R), which orders the calls as x does
        c0s = [call.args[1] for call in spy.call_args_list]
        assert 0 < len(c0s) <= 25
        assert all(b >= a for a, b in zip(c0s, c0s[1:])), c0s

    def test_renewal_identity_at_high_risk_aversion(self, canon, rule64):
        p = with_fields(canon, mu=-0.049050456331459706, sigma=0.28781961554920016,
                        lam=4.909742250504175, m=0.2438480834766812,
                        v=0.051407915587977776, rho=0.2087613817295842,
                        R=8.902369054088405)
        sol = solve_timing_insider(p, rule64)
        assert abs(sol.f0 - sol.g_at_a_star * sol.A2) <= 1e-9 * max(1.0, sol.f0)

    def test_renewal_identity_over_seeded_sweep(self, canon, rule64):
        """1000 draws of a box wider than the property's (R up to 15, lam up
        to 8): each solve raises a DomainError subclass or meets the renewal
        identity that `infoprice validate` checks."""
        rng = random.Random(0)
        misses = []
        for _ in range(1000):
            p = with_fields(canon, mu=rng.uniform(-0.05, 0.2),
                            sigma=rng.uniform(0.1, 0.4), lam=rng.uniform(0.01, 8.0),
                            m=rng.uniform(-0.3, 0.5), v=rng.uniform(0.001, 0.1),
                            rho=rng.uniform(0.02, 0.3), R=rng.uniform(0.3, 15.0))
            try:
                sol = solve_timing_insider(p, rule64)
            except DomainError:
                continue
            if not abs(sol.f0 - sol.g_at_a_star * sol.A2) <= 1e-9 * max(1.0, sol.f0):
                misses.append(p)
            # a* = 0 makes the timing insider the Merton investor
            merton = sol.gamma_M ** (-p.R)
            if sol.a_star == 0.0 and not (abs(sol.f0 - merton) <= 1e-14 * merton
                                          and abs(sol.A2 - merton) <= 1e-14 * merton):
                misses.append(p)
        assert misses == []

    @pytest.mark.parametrize("lam", [20.0, 50.0])
    def test_high_jump_rate_at_low_risk_aversion(self, canon, rule64, lam):
        # a* = 0 makes jumps harmless, so f is the constant gamma_M^(-R);
        # c = lam/gamma_M is 229 and 571 here
        p = with_fields(canon, lam=lam, R=0.5)
        sol = solve_timing_insider(p, rule64)
        assert sol.a_star == 0.0
        assert abs(sol.f0 - sol.g_at_a_star * sol.A2) <= 1e-9 * max(1.0, sol.f0)
        assert sol.f0 == pytest.approx(sol.gamma_M ** (-p.R), rel=1e-12)

    @pytest.mark.parametrize("order", [32, 64])
    def test_corner_is_exactly_the_merton_investor(self, canon, order):
        # g(0) = 1 exactly, although the 32-point rule's quadrature of it
        # gives 1 + 2.2e-16; c = lam/gamma_M is 229 here, which would
        # amplify that
        p = with_fields(canon, lam=20.0, R=0.5)
        sol = solve_timing_insider(p, gauss_hermite(order))
        merton = sol.gamma_M ** (-p.R)
        assert (sol.a_star, sol.g_at_a_star) == (0.0, 1.0)
        assert abs(sol.f0 - merton) <= 1e-14 * merton
        assert abs(sol.A2 - merton) <= 1e-14 * merton

    def test_interior_optimum_fixture(self, canon, rule64):
        p = with_fields(canon, **INTERIOR_TIMING)
        sol = solve_timing_insider(p, rule64)
        assert 1e-3 < sol.a_star < 1.0 - 1e-3
        # first-order condition makes the two jump moments coincide
        jump_rel = np.expm1(p.m + math.sqrt(2 * p.v) * rule64.nodes)
        w = rule64.weights / math.sqrt(math.pi)
        chi = float(w @ (1 + sol.a_star * jump_rel) ** (-p.R))
        assert abs(chi - sol.g_at_a_star) < 1e-9

    def test_upper_boundary_rejected(self, canon, rule64):
        # strongly favorable jumps push the exposure to 1, which breaks the
        # renewal construction
        with pytest.raises(BoundaryOptimumError):
            solve_timing_insider(with_fields(canon, m=0.4), rule64)

    def test_ill_posed_gate(self, canon, rule64):
        p = with_fields(canon, R=0.5, lam=50.0, m=0.05)
        # gate quantity lam g(a*)/(lam + R gamma_M) evaluated independently:
        g1 = g_of_q(1.0, p, rule64)
        gamma = (p.rho + (p.R - 1) * (p.r + (p.mu - p.r) ** 2
                                      / (2 * p.R * p.sigma**2))) / p.R
        assert p.lam * g1 / (p.lam + p.R * gamma) >= 1.0
        with pytest.raises(IllPosedError):
            solve_timing_insider(p, rule64)

    def test_no_jump_limit(self, canon, rule64):
        p0 = with_fields(canon, lam=0.0)
        sol = solve_timing_insider(p0, rule64)
        gamma = sol.gamma_M
        assert sol.f0 == pytest.approx(gamma ** (-p0.R), rel=1e-12)
        assert sol.A2 == pytest.approx(gamma ** (-p0.R), rel=1e-12)
        ts = np.linspace(0.0, 50.0, 101)
        assert np.max(np.abs(timing_f(sol, ts) - sol.f0)) < 1e-9 * sol.f0

    def test_f_monotone(self, canon, rule64, sol_timing):
        ts = np.linspace(0.0, 60.0, 1001)
        fv = np.asarray(timing_f(sol_timing, ts))
        diffs = np.diff(fv)
        if sol_timing.c0 <= 1.0 / sol_timing.gamma_M:
            assert np.all(diffs >= -1e-12)
        else:
            assert np.all(diffs <= 1e-12)

    def test_consumption_integral_matches_simpson(self, canon, sol_timing):
        from .oracles import adaptive_simpson
        t_next, a, b = 3.0, 0.4, 2.9
        got = float(consumption_integral(sol_timing, t_next, a, b))
        want = adaptive_simpson(
            lambda u: float(timing_f(sol_timing, t_next - u)) ** (-1.0 / canon.R), a, b)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_deflator_normalization(self, canon, sol_timing):
        t1 = 2.0
        w0 = float(timing_f(sol_timing, t1)) ** (1.0 / canon.R)
        assert deflator(sol_timing, canon, 0.0, w0, t1) == \
            pytest.approx(1.0, rel=1e-12)

    def test_deflator_plugin(self, canon, sol_timing):
        want = float(timing_f(sol_timing, 1.5)) * math.exp(-0.05)
        assert deflator(sol_timing, canon, 0.5, 1.0, 2.0) == \
            pytest.approx(want, rel=1e-12)

    def test_deflator_far_jump_limit(self, canon, rule64):
        p0 = with_fields(canon, lam=0.0)
        sol = solve_timing_insider(p0, rule64)
        got = deflator(sol, p0, 0.0, 1.0, 1e12)
        assert got == pytest.approx(sol.gamma_M ** (-p0.R), rel=1e-9)


# ---------------------------------------------------------------------------
# The exposure kernel in the uninformed and timing solves
# ---------------------------------------------------------------------------

KERNEL_SETS = {"canon": {}, "interior": INTERIOR_TIMING,
               "dense": dict(lam=2.0, m=0.0), "lam4": dict(lam=4.0, m=0.0),
               "R5": dict(R=5.0)}


class TestExposureKernel:
    """q_bar1 and a* come from the corner rule and bracketed Newton of the
    concave exposure kernel; the 257-point scan plus golden section of
    optimize.maximize_bounded and a brute-force grid are the references."""

    @pytest.mark.parametrize("fields", [*KERNEL_SETS.values(),
                                        dict(R=0.5, sigma=0.3)],
                             ids=[*KERNEL_SETS, "R0.5"])
    def test_uninformed_matches_golden_section_and_grid(self, canon, rule64,
                                                        fields):
        p = with_fields(canon, **fields)
        q = solve_uninformed(p, rule64).q_bar1
        golden = maximize_bounded(lambda x: g1_of_q(x, p, rule64), 0.0, 1.0,
                                  tol=1e-12)
        assert abs(q - golden.argument) <= 1e-6

        def g1_vec(qs):
            return (p.r + qs * (p.mu - p.r) - 0.5 * p.sigma**2 * p.R * qs * qs
                    + p.lam * (g_of_q_many(qs, p, rule64) - 1.0) / (1.0 - p.R))

        assert abs(q - grid_argmax(g1_vec, 0.0, 1.0, n=200_001)) <= 1e-5

    @pytest.mark.parametrize("fields", KERNEL_SETS.values(), ids=KERNEL_SETS)
    def test_timing_matches_golden_section_and_grid(self, canon, rule64, fields):
        p = with_fields(canon, **fields)
        a = solve_timing_insider(p, rule64).a_star
        golden = maximize_bounded(lambda x: g_of_q(x, p, rule64) / (1.0 - p.R),
                                  0.0, 1.0, tol=1e-12)
        assert abs(a - golden.argument) <= 1e-6
        brute = grid_argmax(lambda xs: g_of_q_many(xs, p, rule64) / (1.0 - p.R),
                            0.0, 1.0, n=200_001)
        assert abs(a - brute) <= 1e-5


# The benchmark's three parameter sets, and the fingerprints (sha256 of the
# bytes of A3, h_values and q_bar_values, first 16 hex digits) of their
# signal solves as the exposure kernel gave them before it took work
# arrays, recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64 (AVX-512).
SIGNAL_SETS = {"canon": {}, "interior": INTERIOR_TIMING,
               "dense": dict(lam=2.0, m=0.0, v=0.01)}
SIGNAL_FINGERPRINTS = {"canon": "c3fee78f99be433b", "interior": "f07afac70aa10a28",
                       "dense": "61fe770203f48479"}


def signal_fingerprint(sol) -> str:
    digest = hashlib.sha256(np.float64(sol.A3).tobytes())
    digest.update(sol.h_values.tobytes())
    digest.update(sol.q_bar_values.tobytes())
    return digest.hexdigest()[:16]


FAULT_PROBE = """
import resource, sys
sys.modules["scipy"] = None
from infoprice.agents import solve_signal_insider
from infoprice.model import ModelParams
from infoprice.quadrature import gauss_hermite
p, rule = ModelParams(**{fields!r}), gauss_hermite(64)
solve_signal_insider(p, rule)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
solve_signal_insider(p, rule)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestExposureWorkArrays:
    """The exposure kernel's (rows x nodes) terms live in two work arrays
    per _argmax_exposure call; the bits are those of fresh temporaries."""

    @pytest.mark.parametrize("fields", SIGNAL_SETS.values(), ids=SIGNAL_SETS)
    def test_bits_match_the_allocating_kernel(self, canon, rule64, fields,
                                              monkeypatch):
        p = with_fields(canon, **fields)
        got = solve_signal_insider(p, rule64)
        monkeypatch.setattr(agents, "_exposure_slope", exposure_slope_allocating)
        want = solve_signal_insider(p, rule64)
        assert got.A3 == want.A3
        assert np.array_equal(got.h_values, want.h_values)
        assert np.array_equal(got.q_bar_values, want.q_bar_values)
        eta = np.linspace(p.m - 1.0, p.m + 1.0, 301)
        for a, b in zip(signal_terms(got, p, eta, rule64),
                        signal_terms(want, p, eta, rule64)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", SIGNAL_SETS)
    def test_bits_match_the_recorded_fingerprint(self, canon, rule64, name,
                                                 monkeypatch):
        p = with_fields(canon, **SIGNAL_SETS[name])
        got = signal_fingerprint(solve_signal_insider(p, rule64))
        monkeypatch.setattr(agents, "_exposure_slope", exposure_slope_allocating)
        if signal_fingerprint(solve_signal_insider(p, rule64)) != SIGNAL_FINGERPRINTS[name]:
            pytest.skip("numpy or BLAS here rounds the allocating kernel "
                        "differently from the recording")
        assert got == SIGNAL_FINGERPRINTS[name]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    def test_warm_solve_takes_no_fresh_pages(self, canon):
        """A fresh interpreter without scipy: the second of two signal
        solves at canon makes fewer than 100 minor page faults (about 2800
        when every Newton step allocated its (201 x 64) temporaries, which
        glibc returned to the system between steps)."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             FAULT_PROBE.format(fields=dataclasses.asdict(canon))],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100


# The benchmark's sets and others that move the corners: R, the noise, a
# higher premium, and dense jumps at low risk aversion (where a* > 0).
CORNER_SETS = {**SIGNAL_SETS, "R1.5": dict(R=1.5), "R3": dict(R=3.0),
               "R5": dict(R=5.0), "v_eps0.5": dict(v_eps=0.5),
               "R8_mu0.2": dict(R=8.0, mu=0.2), "lam3_R1.5": dict(lam=3.0, R=1.5, m=0.0)}


def corner_slope_gaps(h, lam_a3, p, mean, var, rule):
    """|closed form - _exposure_slope| of F(0) and F(1) per row, each over
    the scale of its terms: |h| (|mu - r| + sigma^2 R q) plus the node sum
    of lam_a3 |x_k| (1 + q x_k)^(-R)."""
    got = agents._corner_slopes(h, lam_a3, p, mean, var)
    jump_rel = np.expm1(rule.points(mean, var))
    base, xu = np.empty_like(jump_rel), np.empty_like(jump_rel)
    gaps = []
    for q, closed in zip((0.0, 1.0), got):
        qs = np.full(len(jump_rel), q)
        slope = agents._exposure_slope(qs, h, lam_a3, jump_rel, rule.probs, p,
                                       base, xu)[0]
        scale = (np.abs(h) * (abs(p.mu - p.r) + p.sigma**2 * p.R * q) + lam_a3
                 * (np.abs(jump_rel) * (1.0 + q * jump_rel) ** -p.R) @ rule.probs)
        gaps.append(np.abs(closed - slope) / scale)
    return gaps


class TestCornerCoefficients:
    """The corner tests F(0) <= 0 and F(1) >= 0 are closed forms in each
    row's Gaussian jump law."""

    @pytest.mark.parametrize("fields", CORNER_SETS.values(), ids=CORNER_SETS)
    def test_corners_are_the_slope_at_zero_and_one(self, canon, rule64, fields):
        p = with_fields(canon, **fields)
        sol = solve_signal_insider(p, rule64)
        mean, var = posterior_of_jump(sol.eta_grid, p)
        for gap in corner_slope_gaps(sol.h_values, p.lam * sol.A3, p, mean, var,
                                     rule64):
            assert gap.max() <= 1e-12

    def test_corners_hold_at_high_risk_aversion(self, canon, rule64):
        """R 20 and a jump variance of 0.09: at the F(1) corner e^(-R xi)
        has a log-sd of R sqrt(v') = 6."""
        p = with_fields(canon, R=20.0)
        mean = np.array([-0.2, -0.05, 0.0, 0.1])
        for gap in corner_slope_gaps(np.full(4, 3.0), 1.5, p, mean, 0.09, rule64):
            assert gap.max() <= 1e-12

    def test_cancelling_zero_corner_converges_to_zero(self, canon, rule64):
        """Rows whose F(0) = h (mu - r) + lam_a3 expm1(m' + v'/2) cancels to
        rounding, on either side of 0: the rows sent to Newton stop within
        1e-14 of 0 (the quadrature root may lie just below it)."""
        p, var = canon, 0.01
        centre = math.log(1.0 - (p.mu - p.r)) - 0.5 * var      # F(0) = 0 at h = lam_a3 = 1
        mean = centre + np.arange(-20, 21) * np.spacing(centre)
        f0 = agents._corner_slopes(1.0, 1.0, p, mean, var)[0]
        assert (f0 > 0.0).any() and (f0 <= 0.0).any()
        jump_rel = np.expm1(rule64.points(mean, var))
        for start in (0.0, 0.5, 1.0):
            q = agents._argmax_exposure(np.ones(len(mean)), 1.0, jump_rel, rule64.probs,
                                        p, np.full(len(mean), start), mean, var)
            assert np.all((q >= 0.0) & (q <= 1e-14))

    def test_solve_pass_evaluates_the_slope_only_in_newton(self, canon, rule64,
                                                           monkeypatch):
        """Every regime solve and the closed-form reports of the three
        streams at canon, interior and dense (the benchmark's solve pass)
        call _exposure_slope only from _argmax_exposure's Newton loop: at the
        rows still iterating, with their own h, never at a corner."""
        calls = []
        slope = agents._exposure_slope

        def spy(q, h, *args):
            calls.append((sys._getframe(1).f_code.co_name, np.shape(h) == np.shape(q)))
            return slope(q, h, *args)

        monkeypatch.setattr(agents, "_exposure_slope", spy)
        cfg = SimConfig(horizon=25.0, dt=0.05, n_paths=1, seed=1)
        streams = (ConstantStream(1.0), ExpUntilFirstJumpStream(),
                   PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0, psi_name="tanh"))
        for fields in SIGNAL_SETS.values():
            p = with_fields(canon, **fields)
            sols = solve_all(p, rule64)
            for stream in streams:
                info_value_report(stream, p, cfg, sols=sols, rule=rule64)
        assert calls
        assert set(calls) == {("_argmax_exposure", True)}

    @pytest.mark.parametrize("fields", CORNER_SETS.values(), ids=CORNER_SETS)
    def test_bits_match_the_slope_evaluated_corners(self, canon, rule64, fields,
                                                    monkeypatch):
        """A3, h, q_bar, signal_terms at 301 signals, q_bar1 and a* are
        those of the kernel that evaluated both corners by the slope on
        every call's rows."""
        p = with_fields(canon, **fields)
        eta = np.linspace(p.m - 1.0, p.m + 1.0, 301)

        def solved():
            sol = solve_signal_insider(p, rule64)
            return (sol.A3, sol.h_values, sol.q_bar_values,
                    *signal_terms(sol, p, eta, rule64),
                    solve_uninformed(p, rule64).q_bar1,
                    solve_timing_insider(p, rule64).a_star)

        got = solved()
        monkeypatch.setattr(agents, "_argmax_exposure", argmax_exposure_slope_corners)
        for a, b in zip(got, solved(), strict=True):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Posterior of the jump given the signal
# ---------------------------------------------------------------------------

class TestPosterior:
    def test_uninformative_limit(self, canon):
        p = with_fields(canon, v_eps=1e8)
        mean, var = posterior_of_jump(0.3, p)
        assert abs(mean - canon.m) < 1e-6
        assert abs(var - canon.v) < 1e-6

    def test_perfect_signal_limit(self, canon):
        p = with_fields(canon, v_eps=1e-12)
        mean, var = posterior_of_jump(0.123, p)
        assert abs(mean - 0.123) < 1e-6
        assert var < 1e-6

    def test_at_prior_mean(self, canon):
        mean, var = posterior_of_jump(canon.m, canon)
        assert mean == canon.m
        assert var == pytest.approx(
            canon.v * canon.v_eps / (canon.v + canon.v_eps), rel=1e-14)

    def test_against_discretized_bayes(self, canon):
        mean, var = posterior_of_jump(0.1, canon)
        om, ov = discretized_bayes_posterior(0.1, canon.m, canon.v, canon.v_eps)
        assert abs(mean - om) < 1e-6
        assert abs(var - ov) < 1e-6

    def test_mean_between_prior_and_signal(self, canon):
        for eta in (-0.8, -0.1, 0.0, 0.4):
            mean, _ = posterior_of_jump(eta, canon)
            lo, hi = sorted((canon.m, eta))
            assert lo <= mean <= hi

    @pytest.mark.parametrize("eta", [-0.3, 0.0, 0.1])
    def test_noiseless_posterior_is_the_signal(self, canon, eta):
        mean, var = posterior_of_jump(eta, with_fields(canon, v_eps=0.0))
        assert (mean, var) == (eta, 0.0)

    def test_noiseless_posterior_mean_is_exact(self, canon):
        # (v eta + 0)/v would miss eta by an ulp at 306 of these 2001 signals
        eta = np.linspace(-1.0, 1.0, 2001)
        mean, _ = posterior_of_jump(eta, with_fields(canon, v_eps=0.0))
        assert np.array_equal(mean, eta)

    def test_one_owner(self):
        assert agents.posterior_of_jump is quadrature.posterior_of_jump


# ---------------------------------------------------------------------------
# Signal insider
# ---------------------------------------------------------------------------

class TestSignalInsider:
    @pytest.mark.parametrize("fields", [{}, INTERIOR_TIMING, dict(lam=2.0, m=0.0, v=0.01)],
                             ids=["canon", "interior", "dense"])
    def test_a3_does_not_depend_on_the_rule_order(self, canon, fields):
        # the rule sets only the jump-size laws, whose integrands are smooth;
        # on Gauss-Hermite nodes over the signal law A3 moved by 2.8e-6,
        # 2.9e-5 and 4.2e-4 between orders 64 and 128
        p = with_fields(canon, **fields)
        a64 = solve_signal_insider(p, gauss_hermite(64)).A3
        a128 = solve_signal_insider(p, gauss_hermite(128)).A3
        assert abs(a64 - a128) <= 1e-12 * a64

    def test_gate_rejects_low_risk_aversion(self, canon, rule64):
        with pytest.raises(GateError):
            solve_signal_insider(with_fields(canon, R=0.8), rule64, grid_size=41)

    def test_gate_rejects_fraction_outside_unit(self, canon, rule64):
        with pytest.raises(GateError):
            solve_signal_insider(with_fields(canon, mu=0.30), rule64, grid_size=41)

    @pytest.mark.parametrize("fields", [dict(R=0.8), dict(mu=0.30), dict(v_eps=0.0)])
    def test_gate_is_the_validate_flag(self, canon, rule64, fields):
        # R <= 1, a diffusion fraction outside (0, 1) or noiseless signals:
        # the solver raises the signal_regime_gate flag's own message
        p = with_fields(canon, **fields)
        flag, = [f for f in validate_params(p).failures()
                 if f.name == "signal_regime_gate"]
        with pytest.raises(GateError) as err:
            solve_signal_insider(p, rule64, grid_size=41)
        assert str(err.value) == flag.message

    def test_residuals_and_consistency(self, canon, rule64, sol_signal,
                                       sol_uninformed):
        assert float(sol_signal.residuals.max()) < 1e-8
        assert sol_signal.A3 <= sol_uninformed.A1 * (1 + 1e-8)
        # recompute A3 from the stored grid through the same quadrature
        from infoprice.agents import _SignalSystem
        system = _SignalSystem(canon, rule64, sol_signal.eta_grid)
        recomputed = system.average_h(sol_signal.h_values)
        assert abs(recomputed - sol_signal.A3) < 1e-8 * sol_signal.A3

    def test_uninformative_signal_flattens_h(self, canon, rule64, sol_uninformed):
        p = with_fields(canon, v_eps=1e8)
        u = solve_uninformed(p, rule64)
        sol = solve_signal_insider(p, rule64, grid_size=101, uninformed=u)
        spread = float(sol.h_values.max() - sol.h_values.min())
        assert spread < 1e-4 * u.A1
        assert abs(sol.A3 - u.A1) < 1e-4 * u.A1

    def test_q_bar_matches_grid_oracle_at_prior_mean(self, canon, rule64,
                                                     sol_signal):
        h_eta = float(sol_signal.h_at(canon.m))
        m_post, v_post = posterior_of_jump(canon.m, canon)

        def objective(q):
            q = np.atleast_1d(q)
            phi1 = (canon.r + q * (canon.mu - canon.r)
                    - 0.5 * canon.sigma**2 * q * q * canon.R
                    - (canon.rho + canon.lam) / (1.0 - canon.R))
            return h_eta * phi1 + canon.lam * sol_signal.A3 * phi2_many(
                q, m_post, v_post, canon, rule64)

        brute = grid_argmax(objective, 0.0, 1.0, n=1_000_001)
        got = q_bar_signal(sol_signal, canon, canon.m, rule64)
        assert abs(got - brute) < 1e-5

    def test_adverse_signal_cuts_exposure(self, canon, rule64, sol_signal):
        sd = math.sqrt(canon.v + canon.v_eps)
        q_bad = q_bar_signal(sol_signal, canon, canon.m - 4 * sd, rule64)
        q_mid = q_bar_signal(sol_signal, canon, canon.m, rule64)
        assert q_bad <= q_mid + 1e-9

    def test_exposure_grid_monotone(self, sol_signal):
        assert np.all(np.diff(sol_signal.q_bar_values) >= -1e-9)

    def test_deflator_normalization_and_plugins(self, canon, sol_signal):
        eta0 = canon.m
        h0 = float(sol_signal.h_at(eta0))
        w0 = h0 ** (1.0 / canon.R)
        assert deflator(sol_signal, canon, 0.0, w0, signal=eta0) == \
            pytest.approx(1.0, rel=1e-12)
        assert deflator(sol_signal, canon, 0.0, 1.0, signal=eta0) == \
            pytest.approx(h0, rel=1e-12)
        assert deflator(sol_signal, canon, 1.0, 1.0, signal=eta0) == \
            pytest.approx(math.exp(-0.1) * h0, rel=1e-12)

    def test_flat_extrapolation(self, sol_signal):
        lo = sol_signal.eta_grid[0]
        assert float(sol_signal.h_at(lo - 5.0)) == pytest.approx(
            float(sol_signal.h_values[0]), rel=1e-12)
        hi = sol_signal.eta_grid[-1]
        assert float(sol_signal.q_bar_at(hi + 5.0)) == pytest.approx(
            float(sol_signal.q_bar_values[-1]), abs=1e-12)

    def test_outer_trace_recorded_and_descending(self, sol_signal, sol_uninformed):
        trace = sol_signal.outer_trace
        assert trace[0] == pytest.approx(sol_uninformed.A1)
        assert trace[-1] >= sol_signal.A3 - 1e-6
        assert trace[0] >= trace[-1]

    def test_drift_identity_away_from_upper_corner(self, canon, rule64,
                                                   sol_signal):
        # the pricing density's drift identity beta(eta) = lam (1 - A3 chi/h)
        # follows from the first-order condition wherever the exposure is
        # interior or at the zero corner; at the upper corner (very favorable
        # signals) the constraint binds and a slack term remains, which is a
        # known boundary limitation of the construction
        sig = sol_signal
        w = rule64.weights / math.sqrt(math.pi)
        defects = []
        corner = []
        for i, eta in enumerate(sig.eta_grid):
            q = float(sig.q_bar_values[i])
            h = float(sig.h_values[i])
            m_post, v_post = posterior_of_jump(float(eta), canon)
            jump_rel = np.expm1(m_post + math.sqrt(2 * v_post) * rule64.nodes)
            chi = float(w @ (1.0 + q * jump_rel) ** (-canon.R))
            beta = canon.r - canon.rho + canon.R * (
                -canon.r - q * (canon.mu - canon.r) + h ** (-1.0 / canon.R)
                + 0.5 * (canon.R + 1.0) * canon.sigma**2 * q * q)
            defect = beta + canon.lam * (sig.A3 * chi / h - 1.0)
            (corner if q > 1.0 - 1e-9 else defects).append(abs(defect))
        assert max(defects) < 1e-7
        assert corner, "expected an upper-corner region at these parameters"
        assert max(corner) < 0.1   # slack is small but nonzero there

    @pytest.mark.parametrize("fields", [
        {}, INTERIOR_TIMING, dict(lam=2.0, m=0.0),
    ], ids=["canon", "interior", "dense"])
    def test_batched_exposure_matches_grid_oracle(self, canon, rule64, fields):
        p = with_fields(canon, **fields)
        sol = solve_signal_insider(p, rule64)
        q = sol.q_bar_values
        inner = np.flatnonzero((q > 0.0) & (q < 1.0))
        nodes = [int(np.flatnonzero(q == 0.0)[0]), int(np.flatnonzero(q == 1.0)[0]),
                 *inner[[0, inner.size // 2, -1]]]
        for i in nodes:
            eta = float(sol.eta_grid[i])
            h_eta = float(sol.h_values[i])
            m_post, v_post = posterior_of_jump(eta, p)

            def objective(qs):
                phi1 = (p.r + qs * (p.mu - p.r) - 0.5 * p.sigma**2 * qs * qs * p.R
                        - (p.rho + p.lam) / (1.0 - p.R))
                return h_eta * phi1 + p.lam * sol.A3 * phi2_many(
                    qs, m_post, v_post, p, rule64)

            brute = grid_argmax(objective, 0.0, 1.0, n=200_001, chunk=20_000)
            assert abs(q[i] - brute) < 1e-5
            assert abs(q_bar_signal(sol, p, eta, rule64) - q[i]) < 1e-9
        assert float(sol.residuals.max()) < 1e-8

    @pytest.mark.parametrize("fields", [
        {}, INTERIOR_TIMING, dict(lam=2.0, m=0.0),
    ], ids=["canon", "interior", "dense"])
    def test_interpolant_matches_scipy_pchip(self, canon, rule64, fields):
        from scipy.interpolate import PchipInterpolator
        sol = solve_signal_insider(with_fields(canon, **fields), rule64)
        x = sol.eta_grid
        pts = np.concatenate([x, np.linspace(x[0], x[-1], 10_007)])
        # q_bar's corner runs give the interpolant zero secants
        assert np.any(np.diff(sol.q_bar_values) == 0.0)
        for y in (sol.h_values, sol.q_bar_values):
            want = PchipInterpolator(x, y, extrapolate=False)(pts)
            np.testing.assert_allclose(_MonotoneCubic(x, y)(pts), want,
                                       rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(sol.h_at(pts), _MonotoneCubic(x, sol.h_values)(pts))

    def test_interpolant_end_slopes_match_scipy_pchip(self):
        from scipy.interpolate import PchipInterpolator
        # left end: secants 1 then 4, so the three-point slope -1/2 has the
        # wrong sign and becomes 0; right end: secants -6 then 1, so the
        # slope 9/2 exceeds three secants and becomes 3
        x = np.linspace(0.0, 5.0, 6)
        y = np.array([0.0, 1.0, 5.0, 3.0, -3.0, -2.0])
        want = PchipInterpolator(x, y, extrapolate=False)
        slope = want.derivative()
        assert slope(x[0]) == 0.0
        assert slope(x[-1]) == pytest.approx(3.0, rel=1e-12)
        pts = np.linspace(x[0], x[-1], 1001)
        np.testing.assert_allclose(_MonotoneCubic(x, y)(pts), want(pts),
                                   rtol=1e-14, atol=1e-14)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(mu=st.floats(0.06, 0.14), sigma=st.floats(0.15, 0.3),
           lam=st.floats(0.1, 4.0), m=st.floats(-0.1, 0.05),
           v=st.floats(0.005, 0.09), v_eps=st.floats(0.005, 1.0),
           R=st.floats(1.5, 6.0))
    def test_solve_converges_or_raises_domain_error(self, canon, rule64, mu,
                                                     sigma, lam, m, v, v_eps, R):
        """Property over the box mu in [0.06, 0.14], sigma in [0.15, 0.3],
        lam in [0.1, 4], m in [-0.1, 0.05], v in [0.005, 0.09],
        v_eps in [0.005, 1], R in [1.5, 6] (r and rho as in canon), on an
        81-node grid: the solve returns finite h, q_bar in [0, 1], grid
        residuals below 1e-8 and A3 <= A1 (1 + 1e-8), or raises a
        DomainError subclass."""
        p = with_fields(canon, mu=mu, sigma=sigma, lam=lam, m=m, v=v,
                        v_eps=v_eps, R=R)
        try:
            sol = solve_signal_insider(p, rule64, grid_size=81)
        except DomainError:
            return
        assert np.all(np.isfinite(sol.h_values)) and np.all(sol.h_values > 0.0)
        assert np.all((sol.q_bar_values >= 0.0) & (sol.q_bar_values <= 1.0))
        assert float(sol.residuals.max()) < 1e-8
        assert sol.A3 <= sol.a1 * (1 + 1e-8)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(**{**BOX, "v_eps": st.floats(0.005, 1.0), "R": st.floats(1.5, 20.0)})
    def test_high_risk_aversion_solves_to_a_relative_residual(
            self, canon, rule64, mu, sigma, lam, m, v, v_eps, R):
        """The property above with R in [1.5, 20]: h grows like A1 there, so
        the grid residual is taken relative to h^(1-1/R)/(1-1/R), as
        `infoprice validate` takes it, and must be below 1e-8."""
        p = with_fields(canon, mu=mu, sigma=sigma, lam=lam, m=m, v=v,
                        v_eps=v_eps, R=R)
        try:
            sol = solve_signal_insider(p, rule64, grid_size=81)
        except DomainError:
            return
        assert np.all(np.isfinite(sol.h_values)) and np.all(sol.h_values > 0.0)
        assert np.all((sol.q_bar_values >= 0.0) & (sol.q_bar_values <= 1.0))
        one_m = 1.0 - 1.0 / R
        relative = sol.residuals / (sol.h_values ** one_m / one_m)
        assert float(relative.max()) < 1e-8
        assert sol.A3 <= sol.a1 * (1 + 1e-8)

    @pytest.mark.parametrize("fields", [
        dict(mu=0.9020902195531264, r=0.028283934855836083,
             sigma=0.5148737399356748, lam=0.9550946205624684,
             m=0.23073492802190865, v=0.05197833065822411,
             rho=0.278975753163548, R=6.090377167123646,
             v_eps=0.0005606294000700017),
        dict(mu=0.1270673046847357, r=0.00739712928934916,
             sigma=0.17318180733154498, lam=0.016612602479615345,
             m=0.21511492773220176, v=0.11747940284765565,
             rho=0.0957948598030497, R=13.181676671264952,
             v_eps=0.007614546902582018),
    ], ids=["R6.09", "R13.18"])
    def test_rows_left_of_the_minimum_of_r_solve(self, canon, rule64, fields):
        # at high R some grid rows start left of the minimum of the convex
        # r(h), where the Newton slope is negative; they double h until it
        # is positive. h grows like A1 here (the R 13.18 set's absolute
        # residual is 4.1e3), so the residual is taken relative to
        # h^(1-1/R)/(1-1/R)
        sol = solve_signal_insider(with_fields(canon, **fields), rule64)
        one_m = 1.0 - 1.0 / fields["R"]
        assert sol.A3 <= sol.a1 * (1 + 1e-8)
        relative = sol.residuals / (sol.h_values ** one_m / one_m)
        assert float(relative.max()) <= 1e-12


# ---------------------------------------------------------------------------
# Cross-regime orderings: information cannot hurt (R > 1 scales are ordered)
# ---------------------------------------------------------------------------

class TestInformationOrdering:
    def test_canon(self, sols):
        assert sols.timing.A2 <= sols.uninformed.A1 * (1 + 1e-9)
        assert sols.signal.A3 <= sols.uninformed.A1 * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_fixtures(self, canon, rule64, seed):
        rng = np.random.default_rng(1000 + seed)
        p = with_fields(
            canon,
            mu=canon.mu * float(rng.uniform(0.9, 1.1)),
            sigma=canon.sigma * float(rng.uniform(0.9, 1.15)),
            lam=canon.lam * float(rng.uniform(0.5, 1.5)),
            m=float(rng.uniform(-0.08, -0.02)),
            v=canon.v * float(rng.uniform(0.7, 1.4)),
            rho=canon.rho * float(rng.uniform(0.9, 1.1)),
            v_eps=canon.v_eps * float(rng.uniform(0.5, 2.0)),
        )
        if not (0.0 < p.merton_fraction < 1.0):
            pytest.skip("fixture leaves the signal gate")
        u = solve_uninformed(p, rule64)
        t = solve_timing_insider(p, rule64)
        s = solve_signal_insider(p, rule64, grid_size=81, uninformed=u)
        assert t.A2 <= u.A1 * (1 + 1e-9)
        assert s.A3 <= u.A1 * (1 + 1e-9)


class TestSignalTerms:
    """signal_terms owns the per-signal (q*, h, beta, kappa) that
    q_bar_signal, beta_coef and the pricing closed forms read."""

    @pytest.mark.parametrize("fields", [{}, dict(lam=2.0, m=0.0, v=0.01)])
    def test_matches_q_bar_signal_and_beta_coef(self, canon, rule64, fields):
        p = with_fields(canon, **fields)
        sol = solve_all(p, rule64, regimes=("signal",)).signal
        sd = math.sqrt(p.v + p.v_eps)
        eta = p.m + sd * np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        for x in eta:
            (q,), (h,), (beta,), _ = signal_terms(sol, p, np.array([x]), rule64)
            assert q == q_bar_signal(sol, p, x, rule64)
            assert beta == beta_coef(x, sol, p, rule64)
            assert h == sol.h_at(x)
        # a batch of signals reads the same interpolants
        q, h, beta, _ = signal_terms(sol, p, eta, rule64)
        assert q == pytest.approx([q_bar_signal(sol, p, x, rule64) for x in eta],
                                  rel=1e-12, abs=1e-13)
        assert np.array_equal(h, sol.h_at(eta))

    def test_kappa_is_the_posterior_mean(self, canon, rule64, sol_signal):
        eta = np.array([-0.4, -0.05, 0.3])
        q, _, _, kappa = signal_terms(sol_signal, canon, eta, rule64)
        for i, x in enumerate(eta):
            m_post, v_post = posterior_of_jump(x, canon)
            xi = m_post + math.sqrt(2.0 * v_post) * rule64.nodes
            vals = (1.0 + q[i] * np.expm1(xi)) ** -canon.R
            want = math.fsum(rule64.weights * vals) / math.sqrt(math.pi)
            assert kappa[i] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_each_solution_names_its_slot(sols):
    assert [f.name for f in dataclasses.fields(RegimeSolutions)] == [
        "uninformed", "timing", "signal", "merton", "signal_gate"]
    for regime in REGIMES:
        assert sols.for_regime(regime).regime == regime
        assert type(getattr(sols, regime)).regime == regime


# ---------------------------------------------------------------------------
# deflator: the state-price density of all four agents
# ---------------------------------------------------------------------------

def value_scale(sol, p, t, next_jump, signal):
    """s of Y = s e^(-rho t) w^(-R), read from each solution's own fields."""
    if sol.regime == "timing":
        return float(timing_f(sol, next_jump - t))
    if sol.regime == "signal":
        return float(sol.h_at(signal))
    return sol.A1 if sol.regime == "uninformed" else sol.A_M


@pytest.mark.parametrize("regime", REGIMES)
def test_deflator_of_each_regime(canon, sols, regime):
    sol = sols.for_regime(regime)
    kw = dict(next_jump=2.5, signal=canon.m + 0.1)
    s0 = value_scale(sol, canon, 0.0, **kw)
    assert deflator(sol, canon, 0.0, s0 ** (1.0 / canon.R), **kw) == \
        pytest.approx(1.0, rel=1e-12)
    for t, w in [(0.0, 1.0), (0.7, 0.4), (2.2, 3.0)]:
        want = value_scale(sol, canon, t, **kw) * math.exp(-canon.rho * t) \
            * w ** -canon.R
        assert deflator(sol, canon, t, w, **kw) == pytest.approx(want, rel=1e-12)
    for w in (0.0, -1.0):
        with pytest.raises(ValueError, match="wealth must be > 0"):
            deflator(sol, canon, 0.5, w, **kw)
    if regime == "timing":
        for t in (2.5, 3.0):
            with pytest.raises(ValueError, match="next_jump must exceed t"):
                deflator(sol, canon, t, 1.0, next_jump=2.5)
    if regime == "signal":
        with pytest.raises(ValueError, match="needs its signal"):
            deflator(sol, canon, 0.5, 1.0)


@pytest.mark.parametrize("regime", REGIMES)
def test_log_scale_of_each_regime(canon, sols, regime):
    sol = sols.for_regime(regime)
    gap = np.array([0.0, 0.4, 2.5, 60.0])
    signal = canon.m + np.array([-0.3, 0.0, 0.1, 0.25])
    got = log_scale(sol, gap, signal)
    if regime == "timing":      # against the oracle's f = f_root^R
        assert np.allclose(got, np.log(timing_f(sol, gap)), rtol=1e-14, atol=1e-14)
    elif regime == "signal":
        assert np.array_equal(got, np.log(sol.h_at(signal)))
    else:
        assert got == math.log(sol.A1 if regime == "uninformed" else sol.A_M)
    # deflator is exp(log_scale - rho t) w^(-R)
    for t, w, g, e in [(0.0, 1.0, 2.5, 0.1), (0.7, 0.4, 0.3, -0.2), (2.2, 3.0, 9.0, 0.0)]:
        want = math.exp(float(log_scale(sol, g, e)) - canon.rho * t) * w ** -canon.R
        assert deflator(sol, canon, t, w, next_jump=t + g, signal=e) == \
            pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# solve_all: the listed regimes, a gated signal regime left None
# ---------------------------------------------------------------------------

class TestSolveAll:
    @pytest.mark.parametrize("regimes,solved", [
        (("merton",), {"merton"}),
        (("timing",), {"timing"}),
        (("signal",), {"uninformed", "signal"}),
        (("uninformed", "merton"), {"uninformed", "merton"}),
    ])
    def test_only_listed_regimes_are_solved(self, canon, rule64, regimes, solved):
        sols = solve_all(canon, rule64, grid_size=41, regimes=regimes)
        assert {r for r in REGIMES if getattr(sols, r) is not None} == solved
        for regime in set(REGIMES) - solved:
            with pytest.raises(GateError):
                sols.for_regime(regime)

    def test_same_solutions_as_each_solver(self, canon, rule64):
        sols = solve_all(canon, rule64, grid_size=41)
        u = solve_uninformed(canon, rule64)
        assert sols.uninformed == u
        assert sols.timing == solve_timing_insider(canon, rule64)
        assert sols.merton == solve_merton(canon)
        s = solve_signal_insider(canon, rule64, grid_size=41, uninformed=u)
        assert sols.signal.A3 == s.A3
        assert np.array_equal(sols.signal.h_values, s.h_values)

    def test_gated_signal_is_none(self, canon, rule64):
        # sigma 0.15 puts the diffusion fraction at 1.11, outside the gate
        p = with_fields(canon, sigma=0.15)
        sols = solve_all(p, rule64)
        assert sols.signal is None
        assert None not in (sols.uninformed, sols.timing, sols.merton)
        gate = next(f for f in validate_params(p).flags
                    if f.name == "signal_regime_gate")
        assert not gate.passed
        with pytest.raises(GateError, match=f"^{re.escape(gate.message)}$"):
            sols.for_regime("signal")

    def test_unlisted_failure_is_not_reached(self, canon, rule64):
        # at m = 0.05 the timing solve rejects a* = 1; other failures raise
        p = with_fields(canon, m=0.05)
        with pytest.raises(BoundaryOptimumError):
            solve_all(p, rule64)
        sols = solve_all(p, rule64, regimes=("uninformed", "merton"))
        assert sols.timing is None and sols.uninformed is not None
        with pytest.raises(GateError, match="'timing' was not solved: not listed"):
            sols.for_regime("timing")
