"""Closed forms, Monte Carlo estimator mechanics, and the info-value report."""

import dataclasses
import math
import multiprocessing
import os
import types

import numpy as np
import pytest

from infoprice import pricing
from infoprice.agents import (
    RegimeSolutions,
    _MonotoneCubic,
    _pre_jump_rate,
    posterior_of_jump,
    q_bar_signal,
    solve_all,
    solve_merton,
    solve_signal_insider,
    solve_timing_insider,
    solve_uninformed,
)
from infoprice.errors import DomainError, GateError, ParameterError, SimulationError
from infoprice.model import (
    ConstantStream,
    ExpUntilFirstJumpStream,
    PostFirstJumpSignalStream,
)
from infoprice.pricing import (
    Conditioning,
    closed_form_price,
    info_value_report,
    n_workers,
    price_mc,
    truncation_bound,
)
from infoprice.quadrature import gauss_hermite, psi_double_integral
from infoprice.simulate import SimConfig, path_integrals

from .oracles import beta_coef, signal_law_average


def with_fields(p, **kw):
    return dataclasses.replace(p, **kw)


E2 = ExpUntilFirstJumpStream()
E3 = PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0, psi_name="tanh")

# the parameter sets of the solver benchmark
SETS = {"canon": {}, "interior": dict(m=0.02, v=0.04),
        "dense": dict(lam=2.0, m=0.0, v=0.01)}


class TestAlphaCoef:
    def test_term_cancellation_fixture(self, canon):
        # with rho = r and zero exposure only the consumption terms survive
        p = with_fields(canon, rho=canon.r)
        got = _pre_jump_rate(0.0, 100.0, p)
        assert got == pytest.approx(p.R * (-p.r + 100.0 ** (-1 / p.R)), rel=1e-14)

    def test_jump_moment_identity(self, canon, rule64, sol_uninformed):
        # at the interior optimum, alpha = lam (1 - E[(1 + q (e^X - 1))^-R])
        q = sol_uninformed.q_bar1
        jump_rel = np.expm1(canon.m + math.sqrt(2 * canon.v) * rule64.nodes)
        chi = float(rule64.weights @ (1 + q * jump_rel) ** (-canon.R)) \
            / math.sqrt(math.pi)
        assert sol_uninformed.alpha == pytest.approx(
            canon.lam * (1.0 - chi), abs=1e-9)

    def test_mc_drift_oracle(self, canon, sol_uninformed):
        # jump-free segments of e^{rt} Y drift at rate alpha
        alpha = sol_uninformed.alpha
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
        assert u0.alpha == pytest.approx(0.0, abs=1e-12)
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
        alpha = u.alpha
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
        alpha = sols.uninformed.alpha
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
        alpha = sols.uninformed.alpha
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

    def test_merton_rule_after_the_lam_zero_case(self, canon, rule64):
        # with no jumps the post-jump stream never starts, so it is worth 0.0
        # under every regime, merton included; the pre-jump stream still has
        # no merton price and neither jump-keyed stream a merton bound
        p0 = with_fields(canon, lam=0.0)
        sols0 = solve_all(p0, rule64, grid_size=41)
        for regime in pricing.REGIMES:
            assert closed_form_price(E3, regime, p0, sols0) == 0.0
        assert closed_form_price(E2, "merton", p0, sols0) is None
        for e in (E2, E3):
            with pytest.raises(GateError, match="merton benchmark has no jump"):
                truncation_bound(e, "merton", p0, sols0, 5.0)

    def test_unsolved_regime_raises_gate_error(self, canon, rule64):
        # at v_eps = 0 the signal regime is gated; the others still price
        p = with_fields(canon, v_eps=0.0)
        sols0 = solve_all(p, rule64, grid_size=41)
        assert sols0.signal is None
        for e in (E2, E3):
            with pytest.raises(GateError, match="v_eps=0$"):
                closed_form_price(e, "signal", p, sols0)
        dbl = psi_double_integral(np.tanh, sols0.uninformed.q_bar1, p, rule64)
        assert closed_form_price(E3, "uninformed", p, sols0, rule=rule64) == \
            pytest.approx(p.lam / (p.lam + 1.0 - sols0.uninformed.alpha)
                          * dbl, rel=1e-15)

    def test_scalar_psi_matches_vectorized(self, canon, sols):
        # a psi written for scalars reduces an array to one float, so the
        # closed form must call it once per signal
        scalar = PostFirstJumpSignalStream(
            psi=lambda x: float(np.sum(np.tanh(x))), psi_bound=1.0,
            psi_name="scalar_tanh")
        for cond in (None, Conditioning(eta0=0.1)):
            assert closed_form_price(scalar, "signal", canon, sols, cond) == \
                pytest.approx(closed_form_price(E3, "signal", canon, sols, cond),
                              rel=1e-15)

    def test_conditioning_validation(self, canon, sols):
        with pytest.raises(ValueError):
            closed_form_price(E2, "uninformed", canon, sols, Conditioning(t1=1.0))
        with pytest.raises(ValueError):
            Conditioning(t1=1.0, eta0=0.0)

    def test_pin_names_its_regime(self, canon, sols):
        assert Conditioning().regime is None
        assert Conditioning(t1=2.0).regime == "timing"
        assert Conditioning(eta0=-1.0).regime == "signal"
        for cond in (Conditioning(t1=2.0), Conditioning(eta0=0.1)):
            for regime in set(pricing.REGIMES) - {cond.regime}:
                with pytest.raises(ValueError, match=f"not the {regime} regime"):
                    truncation_bound(E2, regime, canon, sols, 5.0, cond)

    @pytest.mark.parametrize("pin", [dict(eta0=math.nan), dict(eta0=math.inf),
                                     dict(eta0=-math.inf), dict(t1=math.inf),
                                     dict(t1=math.nan), dict(t1=0.0)])
    def test_non_finite_pin_rejected(self, pin):
        # an infinite t1 would give an infinite closed form and bound, and a
        # NaN eta0 NaN wealth in the engine
        with pytest.raises(ValueError, match="must be finite"):
            Conditioning(**pin)


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
        assert abs(est.mean - want) <= 3 * est.std_error + est.truncation_bound

    def test_post_jump_signal_renewal_factor(self, canon, rule64):
        # at dense the q* = 1 corner binds, e^{rt} Y is not a martingale and
        # the renewal factor M_1 is 2.2% below A3: the closed form with A3
        # sits 6-8 SE above the estimate at eta0 = 0.1
        p = with_fields(canon, **SETS["dense"])
        sols = solve_all(p, rule64)
        cfg = SimConfig(horizon=25.0, dt=0.05, n_paths=16_384, seed=7,
                        regime="signal")
        for cond in (Conditioning(eta0=0.1), None):
            est = price_mc(E3, sols.signal, p, cfg, cond, sols=sols)
            want = closed_form_price(E3, "signal", p, sols, cond)
            assert abs(est.mean - want) <= 3 * est.std_error + est.truncation_bound

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

    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal"])
    def test_scalar_only_psi_in_the_engine(self, canon, regime):
        # a psi written for scalars reduces an array to one float, so the
        # engine must call it once per path, with the same values as np.tanh
        p = with_fields(canon, **SETS["dense"])
        sols = solve_all(p, gauss_hermite(32), grid_size=61)
        scalar = PostFirstJumpSignalStream(
            psi=lambda x: float(np.sum(np.tanh(x))), psi_bound=1.0,
            psi_name="scalar_tanh")
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=500, seed=5, regime=regime)
        sol = sols.for_regime(regime)
        want = price_mc(E3, sol, p, cfg, sols=sols, workers=1)
        got = price_mc(scalar, sol, p, cfg, sols=sols, workers=1)
        assert want.std_error > 0.0
        assert (got.mean, got.std_error) == (want.mean, want.std_error)


class TestWorkerCount:
    """INFOPRICE_WORKERS and price_mc's workers: a forked pool starts all
    its workers at once, so either value is capped at the CPU count."""

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("INFOPRICE_WORKERS", "100000")
        assert 1 <= n_workers() <= (os.cpu_count() or 1)

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setenv("INFOPRICE_WORKERS", "-3")
        assert n_workers() == 1

    def test_default(self, monkeypatch):
        monkeypatch.delenv("INFOPRICE_WORKERS", raising=False)
        assert n_workers() == min(2, os.cpu_count() or 1)

    def test_explicit_count(self, monkeypatch):
        # an explicit count overrides INFOPRICE_WORKERS, under the same cap
        monkeypatch.setenv("INFOPRICE_WORKERS", "two")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [n_workers(w) for w in (1, 2, 3, 1000, 0, -5)] == [1, 2, 3, 3, 1, 1]

    def test_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("INFOPRICE_WORKERS", "two")
        with pytest.raises(ValueError, match="INFOPRICE_WORKERS"):
            n_workers()

    def test_explicit_count_capped_at_cpu_count(self, canon, sols, monkeypatch):
        # price_mc(workers=N) also sizes its pool to at most the CPU count;
        # the recorder runs the tasks in this process, so none is started
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(pricing, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(pricing, "_JOB", pricing._JOB)     # restored after
        cfg = SimConfig(horizon=1.0, dt=1.0, n_paths=4096, seed=5,
                        regime="uninformed")
        est = price_mc(ConstantStream(1.0), sols.uninformed, canon, cfg,
                       sols=sols, workers=1000)
        assert sizes == [3]
        one = price_mc(ConstantStream(1.0), sols.uninformed, canon, cfg,
                       sols=sols, workers=1)
        assert est.mean == one.mean and est.std_error == one.std_error

    @pytest.mark.parametrize("regime", ["uninformed", "signal"])
    def test_forked_pool_runs_an_unpicklable_psi(self, canon, sols, monkeypatch,
                                                 regime):
        # the workers inherit the job through the pool initializer, so a
        # lambda psi never needs pickling; count the processes the pool starts
        fork = multiprocessing.get_context("fork")
        started = []

        class CountingProcess(fork.Process):
            def start(self):
                started.append(self)
                super().start()

        class CountingContext(type(fork)):
            Process = CountingProcess

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(pricing, "multiprocessing", types.SimpleNamespace(
            get_context=lambda method: CountingContext()))
        stream = PostFirstJumpSignalStream(psi=lambda x: np.tanh(x) ** 2,
                                           psi_bound=1.0, psi_name="tanh2")
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=4096, seed=8, regime=regime)
        cond = Conditioning(eta0=0.1) if regime == "signal" else None
        pool = price_mc(stream, sols.for_regime(regime), canon, cfg, cond,
                        sols=sols, workers=2)
        assert 0 < len(started) <= 2
        one = price_mc(stream, sols.for_regime(regime), canon, cfg, cond,
                       sols=sols, workers=1)
        assert (pool.mean, pool.std_error) == (one.mean, one.std_error)
        assert pool.std_error > 0.0


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

    @pytest.mark.parametrize("field", ["mu", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_raises(self, canon, rule64, sols, field, value):
        # a NaN mu used to pass every check and give A1 = nan
        p = with_fields(canon, **{field: value})
        e = ConstantStream(1.0)
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=10, seed=1,
                        regime="uninformed")
        calls = (lambda: solve_uninformed(p, rule64),
                 lambda: solve_timing_insider(p, rule64),
                 lambda: solve_merton(p),
                 lambda: solve_signal_insider(p, rule64, grid_size=41),
                 lambda: solve_all(p, rule64),
                 lambda: price_mc(e, sols.uninformed, p, cfg, sols=sols),
                 lambda: closed_form_price(e, "uninformed", p, sols),
                 lambda: truncation_bound(e, "uninformed", p, sols, 10.0),
                 lambda: info_value_report(e, p, cfg, rule=rule64))
        for call in calls:
            with pytest.raises(ParameterError,
                               match=f"^all_finite: .*; not finite: {field}$"):
                call()

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
            with pytest.raises(TypeError):
                info_value_report(e, canon, cfg, sols=sols)
            with pytest.raises(TypeError):
                path_integrals(canon, sols.uninformed, cfg, e)

    @pytest.mark.parametrize("stream", [ConstantStream(1.0), E2],
                             ids=["constant", "exp_until_jump"])
    def test_solution_of_another_regime_raises_before_forking(
            self, canon, sols, monkeypatch, stream):
        # cfg.regime is uninformed by default, sol is the timing insider's:
        # the mismatch is reported here, not from inside the workers or as
        # the uninformed regime missing from the bound's solutions
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(pricing, "ProcessPoolExecutor", no_pool)
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=4096, seed=1)
        with pytest.raises(TypeError, match="^regime 'uninformed' needs its own "
                           "solution, got TimingInsiderSolution$") as info:
            price_mc(stream, sols.timing, canon, cfg, workers=2)
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal"])
    def test_psi_beyond_its_bound_raises(self, canon, sols, regime):
        e = PostFirstJumpSignalStream(psi=lambda x: np.full_like(x, 2.0),
                                      psi_bound=1.0, psi_name="two")
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=10, seed=1, regime=regime)
        sol = sols.for_regime(regime)
        with pytest.raises(SimulationError, match="^psi exceeded its declared bound$"):
            path_integrals(canon, sol, cfg, e)
        with pytest.raises(SimulationError, match="^psi exceeded its declared bound$"):
            price_mc(e, sol, canon, cfg, sols=sols)
        # the closed form evaluates psi at the signals it averages over
        with pytest.raises(SimulationError, match="^psi exceeded its declared bound$"):
            closed_form_price(e, regime, canon, sols)


class TestTruncationBounds:
    def test_constant(self, canon, sols):
        got = truncation_bound(ConstantStream(2.0), "uninformed", canon, sols, 100.0)
        assert got == pytest.approx(2.0 * math.exp(-0.05 * 100.0) / 0.05, rel=1e-12)

    def test_exp_until_jump_uninformed(self, canon, sols):
        rate = canon.lam - sols.uninformed.alpha
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
    def test_gated_signal_without_sols(self, canon, rule64):
        # sigma 0.15 gates the signal regime; as in `compare`, the report
        # leaves its rows out instead of raising
        p = with_fields(canon, sigma=0.15)
        cfg = SimConfig(horizon=10.0, dt=0.1, n_paths=100, seed=0,
                        regime="uninformed")
        report = info_value_report(E2, p, cfg, rule=rule64)
        solved = info_value_report(E2, p, cfg, sols=solve_all(p, rule64),
                                   rule=rule64)
        assert report.rows == solved.rows
        assert [r.regime for r in report.rows] == ["merton", "uninformed", "timing"]
        assert math.isnan(report.signal_information_value)
        assert report.signal_conditional_values == ()
        assert report.timing_information_value == \
            report.row("timing").closed_form - report.row("uninformed").closed_form

    def test_unpinned_rows_hold_an_empty_conditioning(self, canon, sols):
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=50, seed=0,
                        regime="uninformed")
        report = info_value_report(E2, canon, cfg, sols=sols, with_mc=True)
        pins = [(r.regime, r.conditioning) for r in report.rows]
        assert pins[:4] == [(regime, Conditioning()) for regime in
                            ("merton", "uninformed", "timing", "signal")]
        assert [c.eta0 for _, c in pins[4:]] == [
            eta for eta, _ in report.signal_conditional_values]
        assert report.row("uninformed").mc.conditioning == Conditioning()
        assert report.row("signal", pins[4][1].eta0).mc.conditioning == pins[4][1]

    def test_values_with_mc_read_the_closed_forms(self, canon, sols):
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=50, seed=0,
                        regime="uninformed")
        report = info_value_report(E3, canon, cfg, sols=sols, with_mc=True)
        # the merton row of a jump-keyed stream has neither price
        assert report.row("merton").closed_form is report.row("merton").mc is None
        assert all(row.mc is not None for row in report.rows[1:])
        base = report.row("uninformed").closed_form
        assert report.timing_information_value == \
            report.row("timing").closed_form - base
        assert report.signal_information_value == \
            report.row("signal").closed_form - base
        assert [v for _, v in report.signal_conditional_values] == [
            report.row("signal", eta).closed_form
            for eta, _ in report.signal_conditional_values]

    @pytest.mark.parametrize("stream, label", [
        (ConstantStream(1.0), "constant:1"), (ConstantStream(-2.5), "constant:-2.5"),
        (E2, "exp_until_jump"), (E3, "post_jump_signal:tanh")])
    def test_stream_label(self, canon, sols, stream, label):
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=10, seed=0)
        assert info_value_report(stream, canon, cfg, sols=sols).stream == label

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
        alpha = sols.uninformed.alpha
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


def _kappa(eta, q, p, rule):
    """E[(1 + q (e^X - 1))^(-R)] under the posterior given one signal."""
    m_post, v_post = posterior_of_jump(eta, p)
    jump_rel = np.expm1(m_post + math.sqrt(2.0 * v_post) * rule.nodes)
    return float(rule.weights @ (1.0 + q * jump_rel) ** (-p.R)) / math.sqrt(math.pi)


def pre_jump_tail_loop(sol, p, rule, horizon, eta0=None):
    """The signal insider's pre-jump tail one signal at a time."""
    def conditional(eta):
        rate = p.lam - beta_coef(eta, sol, p, rule)
        if rate <= 0.0:
            raise DomainError(
                f"lam - beta({eta:.4g}) = {rate:.6g} <= 0: value diverges")
        return math.exp(-rate * horizon) / rate
    if eta0 is not None:
        return conditional(eta0)
    return signal_law_average(conditional, p, rule)


def post_jump_loop(sol, p, rule, psi, eta0=None):
    """The signal insider's post-jump price one signal at a time, with the
    renewal factor M_1 from two signal-law averages."""
    def parts(eta):
        q = q_bar_signal(sol, p, eta, rule)
        rate = p.lam + 1.0 - beta_coef(eta, sol, p, rule)
        if rate <= 0.0:
            raise DomainError(
                f"lam + 1 - beta({eta:.4g}) = {rate:.6g} <= 0: value diverges")
        return float(sol.h_at(eta)), rate, _kappa(eta, q, p, rule)

    def h_over_rate(eta):
        h, rate, _ = parts(eta)
        return h / rate

    def kappa_over_rate(eta):
        _, rate, kappa = parts(eta)
        return kappa / rate

    if eta0 is not None:
        parts(eta0)             # a divergent eta0 is reported first
    m1 = signal_law_average(h_over_rate, p, rule) / (
        1.0 - p.lam * signal_law_average(kappa_over_rate, p, rule))

    def conditional(eta):
        h, rate, kappa = parts(eta)
        return float(psi(eta)) * (m1 / h) * p.lam / rate * kappa
    if eta0 is not None:
        return conditional(eta0)
    return signal_law_average(conditional, p, rule)


class TestSignalLawOracle:
    """The closed forms average over the signal law in one array pass; the
    loops above are the reference."""

    @pytest.mark.parametrize("name", SETS)
    def test_batched_matches_loop(self, canon, rule64, name):
        p = with_fields(canon, **SETS[name])
        sols = solve_all(p, rule64)
        sol = sols.signal
        sd = math.sqrt(p.v + p.v_eps)
        for eta0 in (None, p.m - 2.0 * sd, p.m, p.m + 2.0 * sd):
            cond = None if eta0 is None else Conditioning(eta0=eta0)
            got = closed_form_price(E2, "signal", p, sols, cond, rule64)
            want = pre_jump_tail_loop(sol, p, rule64, 0.0, eta0)
            assert abs(got - want) <= 1e-13 * abs(want)
            for horizon in (10.0, 25.0):
                got = truncation_bound(E2, "signal", p, sols, horizon, cond, rule64)
                want = pre_jump_tail_loop(sol, p, rule64, horizon, eta0)
                assert abs(got - want) <= 1e-13 * abs(want)
            got = closed_form_price(E3, "signal", p, sols, cond, rule64)
            want = post_jump_loop(sol, p, rule64, np.tanh, eta0)
            # the unconditional average cancels terms of either sign
            assert abs(got - want) <= 1e-13 * (abs(want) if eta0 is not None
                                               else p.lam)

    def test_divergence_message_names_first_node(self, canon, rule64, sols):
        # h shrunk above the prior mean drives beta above lam + 1 there
        sol = sols.signal
        shrink = np.where(sol.eta_grid > canon.m, 1e-6, 1.0)
        fake = dataclasses.replace(
            sol, _h_interp=_MonotoneCubic(sol.eta_grid, sol.h_values * shrink))
        bad = dataclasses.replace(sols, signal=fake)
        sd = math.sqrt(canon.v + canon.v_eps)
        for eta0 in (None, canon.m + sd):
            cond = None if eta0 is None else Conditioning(eta0=eta0)
            for stream, loop in ((E2, lambda: pre_jump_tail_loop(
                    fake, canon, rule64, 0.0, eta0)),
                                 (E3, lambda: post_jump_loop(
                    fake, canon, rule64, np.tanh, eta0))):
                with pytest.raises(DomainError) as want:
                    loop()
                with pytest.raises(DomainError) as got:
                    closed_form_price(stream, "signal", canon, bad, cond, rule64)
                assert str(got.value) == str(want.value)
