"""Closed forms, Monte Carlo estimator mechanics, and the info-value report."""

import dataclasses
import math

import numpy as np
import pytest

from infoprice.agents import (
    RegimeSolutions,
    UninformedSolution,
    solve_signal_insider,
    solve_uninformed,
)
from infoprice.errors import DomainError, GateError, ParameterError
from infoprice.model import (
    ConstantStream,
    ExpUntilFirstJumpStream,
    PostFirstJumpSignalStream,
)
from infoprice.pricing import (
    Conditioning,
    alpha_coef,
    beta_coef,
    closed_form_price,
    info_value_report,
    price_mc,
    truncation_bound,
)
from infoprice.quadrature import psi_double_integral
from infoprice.simulate import SimConfig


def with_fields(p, **kw):
    return dataclasses.replace(p, **kw)


E2 = ExpUntilFirstJumpStream()
E3 = PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0, psi_name="tanh")


class TestAlphaCoef:
    def test_term_cancellation_fixture(self, canon):
        # with rho = r and zero exposure only the consumption terms survive
        p = with_fields(canon, rho=canon.r)
        synthetic = UninformedSolution(q_bar1=0.0, A1=100.0, alpha=0.0,
                                       g1_at_opt=0.0)
        got = alpha_coef(synthetic, p)
        assert got == pytest.approx(p.R * (-p.r + 100.0 ** (-1 / p.R)), rel=1e-14)

    def test_jump_moment_identity(self, canon, rule64, sol_uninformed):
        # at the interior optimum, alpha = lam (1 - E[(1 + q (e^X - 1))^-R])
        q = sol_uninformed.q_bar1
        jump_rel = np.expm1(canon.m + math.sqrt(2 * canon.v) * rule64.nodes)
        chi = float(rule64.weights @ (1 + q * jump_rel) ** (-canon.R)) \
            / math.sqrt(math.pi)
        assert alpha_coef(sol_uninformed, canon) == pytest.approx(
            canon.lam * (1.0 - chi), abs=1e-9)

    def test_mc_drift_oracle(self, canon, sol_uninformed):
        # jump-free segments of e^{rt} Y drift at rate alpha
        alpha = alpha_coef(sol_uninformed, canon)
        q = sol_uninformed.q_bar1
        vol = canon.R * q * canon.sigma
        rng = np.random.default_rng(123)
        n = 100_000
        ts = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        w = np.cumsum(rng.standard_normal((n, len(ts)))
                      * np.sqrt(np.diff(np.concatenate(([0.0], ts)))), axis=1)
        samples = np.exp(alpha * ts - vol * w - 0.5 * vol**2 * ts)
        means = samples.mean(axis=0)
        ses = samples.std(axis=0, ddof=1) / math.sqrt(n)
        log_means = np.log(means)
        wts = (means / ses) ** 2
        slope = float(np.sum(wts * ts * log_means) / np.sum(wts * ts * ts))
        coefs = wts * ts / np.sum(wts * ts * ts)
        slope_sd_bound = float(np.sum(np.abs(coefs) * ses / means))
        assert abs(slope - alpha) <= 3 * slope_sd_bound

    def test_error_path_when_rate_nonpositive(self, canon, rule64, sols):
        p0 = with_fields(canon, lam=0.0)
        u0 = solve_uninformed(p0, rule64)
        wrapped = RegimeSolutions(uninformed=u0, timing=None, signal=None,
                                  merton=None)
        assert alpha_coef(u0, p0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            closed_form_price(E2, "uninformed", p0, wrapped)


class TestBetaCoef:
    def test_continuous_on_grid(self, canon, rule64, sol_signal):
        grid = sol_signal.eta_grid[::10]
        betas = [beta_coef(e, sol_signal, canon, rule64) for e in grid]
        assert np.max(np.abs(np.diff(betas))) < 0.1

    def test_uninformative_limit_matches_alpha(self, canon, rule64):
        p = with_fields(canon, v_eps=1e8)
        u = solve_uninformed(p, rule64)
        sol = solve_signal_insider(p, rule64, grid_size=101, uninformed=u)
        alpha = alpha_coef(u, p)
        sd = math.sqrt(p.v + p.v_eps)
        betas = [beta_coef(p.m + k * sd, sol, p, rule64) for k in (-2, 0, 2)]
        assert max(abs(b - alpha) for b in betas) < 1e-3
        assert max(betas) - min(betas) < 1e-4


class TestClosedForms:
    def test_constant_all_regimes(self, canon, sols):
        for regime in ("uninformed", "timing", "signal", "merton"):
            assert closed_form_price(ConstantStream(1.0), regime, canon, sols) \
                == pytest.approx(20.0, rel=1e-14)

    def test_exp_until_jump_uninformed(self, canon, sols):
        alpha = alpha_coef(sols.uninformed, canon)
        want = 1.0 / (canon.lam - alpha)
        got = closed_form_price(E2, "uninformed", canon, sols)
        assert got == pytest.approx(want, rel=1e-12)
        # adverse jumps make alpha < 0 here, so the value is below 1/lam
        assert alpha < 0 and got < 1.0 / canon.lam

    def test_exp_until_jump_timing(self, canon, sols):
        assert closed_form_price(E2, "timing", canon, sols,
                                 Conditioning(t1=3.7)) == 3.7
        assert closed_form_price(E2, "timing", canon, sols) == \
            pytest.approx(2.0, rel=1e-14)

    def test_exp_until_jump_signal_matches_beta(self, canon, rule64, sols):
        eta = canon.m + 0.1
        beta = beta_coef(eta, sols.signal, canon, rule64)
        got = closed_form_price(E2, "signal", canon, sols, Conditioning(eta0=eta))
        assert got == pytest.approx(1.0 / (canon.lam - beta), rel=1e-12)

    def test_zero_psi_prices_zero(self, canon, sols):
        zero = PostFirstJumpSignalStream(
            psi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            psi_bound=0.0, psi_name="zero")
        for regime in ("uninformed", "signal"):
            assert closed_form_price(zero, regime, canon, sols,
                                     Conditioning(eta0=0.0)
                                     if regime == "signal" else None) == \
                pytest.approx(0.0, abs=1e-15)

    def test_post_jump_uninformed_structure(self, canon, rule64, sols):
        alpha = alpha_coef(sols.uninformed, canon)
        dbl = psi_double_integral(np.tanh, sols.uninformed.q_bar1, canon, rule64)
        want = canon.lam / (canon.lam + 1.0 - alpha) * dbl
        assert closed_form_price(E3, "uninformed", canon, sols) == \
            pytest.approx(want, rel=1e-12)

    def test_not_available_cases(self, canon, rule64, sols):
        # the unconditional timing post-jump price has a closed form
        dbl = psi_double_integral(np.tanh, sols.timing.a_star, canon, rule64)
        assert closed_form_price(E3, "timing", canon, sols) == pytest.approx(
            canon.lam / (canon.lam + 1.0) * dbl / sols.timing.g_at_a_star,
            rel=1e-9)
        assert closed_form_price(E2, "merton", canon, sols) is None
        assert closed_form_price(E3, "merton", canon, sols) is None

    def test_conditioning_validation(self, canon, sols):
        with pytest.raises(ValueError):
            closed_form_price(E2, "uninformed", canon, sols, Conditioning(t1=1.0))
        with pytest.raises(ValueError):
            Conditioning(t1=1.0, eta0=0.0)


class TestPriceMc:
    def test_zero_stream(self, canon, sols):
        cfg = SimConfig(horizon=2.0, dt=0.1, n_paths=500, seed=1,
                        regime="uninformed")
        est = price_mc(ConstantStream(0.0), sols.uninformed, canon, cfg, sols=sols)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_deterministic_and_worker_invariant(self, canon, sols):
        cfg = SimConfig(horizon=4.0, dt=0.05, n_paths=6000, seed=3,
                        regime="uninformed")
        a = price_mc(ConstantStream(1.0), sols.uninformed, canon, cfg,
                     sols=sols, workers=1)
        b = price_mc(ConstantStream(1.0), sols.uninformed, canon, cfg,
                     sols=sols, workers=1)
        c = price_mc(ConstantStream(1.0), sols.uninformed, canon, cfg,
                     sols=sols, workers=2)
        assert a == b
        assert a.mean == c.mean and a.std_error == c.std_error

    def test_merton_rejects_jump_streams(self, canon, sols):
        cfg = SimConfig(horizon=4.0, dt=0.05, n_paths=100, seed=3, regime="merton")
        with pytest.raises(GateError):
            price_mc(E2, sols.merton, canon, cfg, sols=sols)

    def test_post_jump_timing_unconditional(self, canon, sols):
        cfg = SimConfig(horizon=22.0, dt=0.05, n_paths=40_000, seed=29,
                        regime="timing")
        est = price_mc(E3, sols.timing, canon, cfg, sols=sols)
        want = closed_form_price(E3, "timing", canon, sols)
        assert abs(est.mean - want) <= est.tolerance(3.0)

    def test_quick_example2_uninformed(self, canon, sols):
        cfg = SimConfig(horizon=22.0, dt=0.02, n_paths=20_000, seed=17,
                        regime="uninformed")
        est = price_mc(E2, sols.uninformed, canon, cfg, sols=sols)
        want = closed_form_price(E2, "uninformed", canon, sols)
        assert abs(est.mean - want) <= 4 * est.std_error + est.truncation_bound

    def test_common_random_numbers_ordering(self, canon, rule64, sols):
        # with shared seeds, the conditional price ranks with beta(eta0)
        sd = math.sqrt(canon.v + canon.v_eps)
        lo, hi = canon.m - 2 * sd, canon.m + 2 * sd
        cfg = SimConfig(horizon=20.0, dt=0.05, n_paths=8000, seed=4,
                        regime="signal")
        est = {e: price_mc(E2, sols.signal, canon, cfg, Conditioning(eta0=e),
                           sols=sols).mean for e in (lo, hi)}
        beta = {e: beta_coef(e, sols.signal, canon, rule64) for e in (lo, hi)}
        assert (est[hi] > est[lo]) == (beta[hi] > beta[lo])


class TestInvalidInputs:
    @pytest.mark.parametrize("regime", ["merton", "uninformed", "timing", "signal"])
    def test_zero_rate_raises_parameter_error(self, canon, sols, regime):
        # level / r and the e^(-rH) / r tail would divide by zero
        p = with_fields(canon, r=0.0)
        e = ConstantStream(1.0)
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=10, seed=1, regime=regime)
        with pytest.raises(ParameterError, match="r_positive"):
            price_mc(e, sols.for_regime(regime), p, cfg, sols=sols)
        with pytest.raises(ParameterError, match="r_positive"):
            closed_form_price(e, regime, p, sols)
        with pytest.raises(ParameterError, match="r_positive"):
            truncation_bound(e, regime, p, sols, 10.0)

    def test_non_stream_raises_type_error(self, canon, sols):
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=10, seed=1,
                        regime="uninformed")
        for e in (None, 1.0, "constant:1"):
            with pytest.raises(TypeError):
                closed_form_price(e, "uninformed", canon, sols)
            with pytest.raises(TypeError):
                truncation_bound(e, "uninformed", canon, sols, 10.0)
            with pytest.raises(TypeError):
                price_mc(e, sols.uninformed, canon, cfg, sols=sols)


class TestTruncationBounds:
    def test_constant(self, canon, sols):
        got = truncation_bound(ConstantStream(2.0), "uninformed", canon, sols, 100.0)
        assert got == pytest.approx(2.0 * math.exp(-0.05 * 100.0) / 0.05, rel=1e-12)

    def test_exp_until_jump_uninformed(self, canon, sols):
        rate = canon.lam - alpha_coef(sols.uninformed, canon)
        got = truncation_bound(E2, "uninformed", canon, sols, 30.0)
        assert got == pytest.approx(math.exp(-rate * 30.0) / rate, rel=1e-12)

    def test_timing_pinned_is_exact_gap(self, canon, sols):
        assert truncation_bound(E2, "timing", canon, sols, 10.0,
                                Conditioning(t1=3.0)) == 0.0
        assert truncation_bound(E2, "timing", canon, sols, 2.0,
                                Conditioning(t1=3.0)) == pytest.approx(1.0)

    def test_post_jump_bound(self, canon, sols):
        got = truncation_bound(E3, "signal", canon, sols, 20.0,
                               Conditioning(eta0=canon.m))
        assert got == pytest.approx(math.exp(-20.0), rel=1e-12)


class TestInfoValueReport:
    def test_constant_stream_invariance(self, canon, sols):
        cfg = SimConfig(horizon=10.0, dt=0.1, n_paths=100, seed=0,
                        regime="uninformed")
        report = info_value_report(ConstantStream(1.0), canon, cfg, sols=sols)
        for row in report.rows:
            assert row.closed_form == pytest.approx(20.0, rel=1e-12)
        assert report.timing_information_value == pytest.approx(0.0, abs=1e-12)
        assert report.signal_information_value == pytest.approx(0.0, abs=1e-12)

    def test_exp_until_jump_contents(self, canon, rule64, sols):
        cfg = SimConfig(horizon=10.0, dt=0.1, n_paths=100, seed=0,
                        regime="uninformed")
        report = info_value_report(E2, canon, cfg, sols=sols)
        alpha = alpha_coef(sols.uninformed, canon)
        assert report.row("timing").closed_form == pytest.approx(1.0 / canon.lam)
        assert report.row("uninformed").closed_form == pytest.approx(
            1.0 / (canon.lam - alpha), rel=1e-12)
        sd = math.sqrt(canon.v + canon.v_eps)
        for eta, val in report.signal_conditional_values:
            beta = beta_coef(eta, sols.signal, canon, rule64)
            assert val == pytest.approx(1.0 / (canon.lam - beta), rel=1e-10)
        assert len(report.signal_conditional_values) == 3
        # stored differences recompute exactly from the rows
        base = report.row("uninformed").closed_form
        assert report.timing_information_value == \
            report.row("timing").closed_form - base
        assert report.signal_information_value == \
            report.row("signal").closed_form - base
