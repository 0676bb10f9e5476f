"""Scenario generation, exact stepping, and the path engine.

The heavyweight check here replays entire paths by hand: scenario and
normals are drawn from the documented per-path streams, wealth is composed
step by step from wealth_step_exact and apply_jump, and the result must
match the engine's records node for node.
"""

import dataclasses
import math

import numpy as np
import pytest

from infoprice.agents import (
    posterior_of_jump,
    signal_deflator,
    solve_signal_insider,
    solve_timing_insider,
    timing_deflator,
    uninformed_deflator,
)
from infoprice.model import ConstantStream
from infoprice.simulate import (
    SimConfig,
    _RngPool,
    deflator_at_times,
    draw_scenario,
    initial_wealth,
    path_integrals,
    path_rng,
    simulate_path,
)

from .oracles import apply_jump, wealth_step_exact

_BLOCK = 2048   # step-normal block width, part of the stream convention


def with_fields(p, **kw):
    return dataclasses.replace(p, **kw)


def philox_block(seed: int, pid: int, purpose: int, block: int) -> np.random.Generator:
    """A fresh generator on the documented stream: key (seed, 4 pid + purpose),
    counter word 2 = block."""
    key = np.array([seed, pid * 4 + purpose], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = block
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def step_normals(seed: int, pid: int, n_steps: int) -> np.ndarray:
    """Replay the engine's step-normal convention from raw Philox streams."""
    out = np.empty(n_steps)
    done = 0
    blk = 0
    while done < n_steps:
        width = min(_BLOCK, n_steps - done)
        gen = philox_block(seed, pid, 3, blk)
        out[done:done + width] = gen.standard_normal(width)
        done += width
        blk += 1
    return out


class TestDrawScenario:
    def test_no_jump_sentinel(self, canon):
        p0 = with_fields(canon, lam=0.0)
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=1, seed=1, regime="uninformed")
        t, s, g = draw_scenario(p0, cfg, 0)
        assert t.tolist() == [math.inf]
        assert s.size == 0 and g.size == 0

    def test_deterministic(self, canon):
        cfg = SimConfig(horizon=50.0, dt=0.1, n_paths=1, seed=9, regime="uninformed")
        a = draw_scenario(canon, cfg, 123)
        b = draw_scenario(canon, cfg, 123)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_structure(self, canon):
        cfg = SimConfig(horizon=50.0, dt=0.1, n_paths=1, seed=9, regime="uninformed")
        t, s, g = draw_scenario(canon, cfg, 7)
        assert np.all(np.diff(t) > 0)
        assert t[-1] > cfg.horizon >= (t[-2] if len(t) > 1 else 0.0)
        assert len(s) == len(t) == len(g)

    def test_law_of_large_numbers(self, canon):
        cfg = SimConfig(horizon=20.0, dt=0.1, n_paths=1, seed=77, regime="uninformed")
        gaps, sizes = [], []
        for pid in range(100_000):
            t, s, _ = draw_scenario(canon, cfg, pid)
            gaps.append(t[0])
            if len(s) > 1:
                sizes.append(s[0])
        gaps = np.array(gaps)
        sizes = np.array(sizes)
        se_gap = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(gaps.mean() - 1.0 / canon.lam) <= 3 * se_gap
        se_sz = sizes.std(ddof=1) / math.sqrt(len(sizes))
        assert abs(sizes.mean() - canon.m) <= 3 * se_sz

    def test_pin_t1_keeps_later_gaps(self, canon):
        cfg = SimConfig(horizon=30.0, dt=0.1, n_paths=1, seed=4, regime="uninformed")
        t, _, _ = draw_scenario(canon, cfg, 5)
        tp, _, _ = draw_scenario(canon, cfg, 5, pin_t1=2.5)
        assert tp[0] == 2.5
        n = min(len(t), len(tp)) - 1
        assert np.allclose(tp[1:n] - tp[0], t[1:n] - t[0], rtol=0, atol=1e-12)

    def test_pin_eta0_posterior_redraw(self, canon):
        cfg = SimConfig(horizon=30.0, dt=0.1, n_paths=1, seed=4, regime="signal")
        t, s, g = draw_scenario(canon, cfg, 11)
        eta0 = 0.21
        tp, sp, gp = draw_scenario(canon, cfg, 11, pin_eta0=eta0)
        assert gp[0] == eta0
        assert np.array_equal(tp, t)
        # the first size reuses the same underlying normal through the posterior
        z = (s[0] - canon.m) / math.sqrt(canon.v)
        m_post, v_post = posterior_of_jump(eta0, canon)
        assert sp[0] == pytest.approx(m_post + math.sqrt(v_post) * z, rel=1e-12)
        assert np.array_equal(sp[1:], s[1:])

    def test_pinned_sizes_follow_posterior(self, canon):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=1, seed=31, regime="signal")
        eta0 = -0.3
        m_post, v_post = posterior_of_jump(eta0, canon)
        first = np.array([draw_scenario(canon, cfg, pid, pin_eta0=eta0)[1][0]
                          for pid in range(20_000)])
        se = first.std(ddof=1) / math.sqrt(len(first))
        assert abs(first.mean() - m_post) <= 3 * se
        assert abs(first.var(ddof=1) - v_post) <= 4 * v_post / math.sqrt(len(first))


class TestRngPool:
    """The pool re-keys one generator per purpose; every draw must equal a
    fresh Philox generator's on the same key and counter."""

    def test_block_zero_and_later_blocks(self):
        pool = _RngPool()
        for block in (0, 1, 5):
            got = pool.get_block(11, 7, 3, block).standard_normal(9)
            assert np.array_equal(got, philox_block(11, 7, 3, block).standard_normal(9))
        # block 0 is the stream path_rng starts, which draw_scenario uses
        got = pool.get_block(11, 7, 0, 0).exponential(2.0, 16)
        assert np.array_equal(got, path_rng(11, 7, 0).exponential(2.0, 16))

    def test_interleaved_purposes(self):
        pool = _RngPool()
        gens = {k: pool.get_block(2, 9, k, 0) for k in range(4)}
        refs = {k: philox_block(2, 9, k, 0) for k in range(4)}
        for size in (1, 3, 16, 2):
            for k in (2, 0, 3, 1):
                assert np.array_equal(gens[k].standard_normal(size),
                                      refs[k].standard_normal(size))

    def test_rekey_after_partial_draw(self):
        pool = _RngPool()
        gen = pool.get_block(4, 0, 1, 2)
        gen.standard_normal(3)                   # leaves words in the buffer
        gen.integers(0, 10, dtype=np.uint32)     # leaves a half-used word
        for pid, block in ((1, 2), (0, 0), (1, 0)):
            got = pool.get_block(4, pid, 1, block)
            want = philox_block(4, pid, 1, block)
            assert np.array_equal(got.integers(0, 2**31, 5, dtype=np.uint32),
                                  want.integers(0, 2**31, 5, dtype=np.uint32))
            assert np.array_equal(got.standard_normal(5), want.standard_normal(5))


class TestStepPrimitives:
    def test_bank_account(self, canon):
        got = wealth_step_exact(2.0, 0.0, 0.0, 0.3, 1.234, canon)
        assert got == pytest.approx(2.0 * math.exp(canon.r * 0.3), rel=1e-14)

    def test_tiny_step_is_identity(self, canon):
        got = wealth_step_exact(1.5, 0.4, 0.0, 1e-12, 0.0, canon)
        assert abs(got - 1.5) < 1e-9

    def test_euler_oracle_distribution(self, canon, sol_uninformed):
        # one exact step vs Euler-Maruyama sub-stepping, in distribution
        rng = np.random.default_rng(5)
        n = 1_000_000
        dt = 1e-3
        pi = sol_uninformed.q_bar1
        cons = sol_uninformed.A1 ** (-1.0 / canon.R)
        z = rng.standard_normal(n)
        dw = math.sqrt(dt) * z
        drift = canon.r + pi * (canon.mu - canon.r) - 0.5 * pi**2 * canon.sigma**2
        exact_log = (drift - cons) * dt + pi * canon.sigma * dw
        euler = 1.0 + (canon.r + pi * (canon.mu - canon.r) - cons) * dt \
            + pi * canon.sigma * dw
        euler_log = np.log(euler)
        se_mean = euler_log.std(ddof=1) / math.sqrt(n)
        assert abs(euler_log.mean() - exact_log.mean()) <= 3 * se_mean + 5e-7
        assert abs(euler_log.var(ddof=1) - exact_log.var(ddof=1)) \
            <= 4 * exact_log.var(ddof=1) / math.sqrt(n) + 1e-7

    def test_apply_jump(self):
        assert apply_jump(3.0, 0.0, -0.5) == 3.0
        assert apply_jump(3.0, 0.7, 0.0) == 3.0
        assert apply_jump(2.0, 1.0, -0.05) == pytest.approx(
            2.0 * math.exp(-0.05), rel=1e-14)
        with pytest.raises(ValueError):
            apply_jump(-1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            apply_jump(1.0, 1.5, 0.1)


def replay_path(p, sol, cfg, pid, regime):
    """Recompose one path from raw streams and the scalar step operations."""
    from infoprice.agents import merton_deflator

    times, sizes, signals = draw_scenario(p, cfg, pid)
    n_within = int(np.searchsorted(times, cfg.horizon, side="right"))
    zj = path_rng(cfg.seed, pid, 2).standard_normal(n_within) if n_within \
        else np.empty(0)
    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    nodes = np.linspace(0.0, cfg.horizon, n_steps + 1)
    zs = step_normals(cfg.seed, pid, n_steps)

    t1 = times[0]
    eta = signals[0] if signals.size else p.m
    eta0 = eta
    w = initial_wealth(regime, sol, p, t1=t1, eta0=eta0)
    out_t, out_w, out_y = [0.0], [w], [1.0]

    def deflator(t, w, nxt, eta):
        if regime == "uninformed":
            return uninformed_deflator(sol, p, t, w)
        if regime == "timing":
            return timing_deflator(sol, p, t, w, nxt)
        if regime == "merton":
            return merton_deflator(sol, p, t, w)
        return signal_deflator(sol, p, t, w, eta)

    def controls(eta):
        if regime == "uninformed":
            return sol.q_bar1, sol.A1 ** (-1.0 / p.R), sol.q_bar1
        if regime == "timing":
            return p.merton_fraction, None, sol.a_star
        if regime == "merton":
            return sol.merton_fraction, sol.gamma_M_merton, 0.0
        q = float(sol.q_bar_at(eta))
        return q, float(sol.h_at(eta)) ** (-1.0 / p.R), q

    j = 0
    for k in range(n_steps):
        cur = nodes[k]
        t_hi = nodes[k + 1]
        while regime != "merton" and j < n_within and times[j] <= t_hi:
            tau = times[j]
            pi, cons, pj = controls(eta)
            d = tau - cur
            cint = (float(sol.consumption_integral(tau, cur, tau))
                    if regime == "timing" else cons * d)
            w = wealth_step_exact(w, pi, cint, d, math.sqrt(d) * zj[j], p)
            w = apply_jump(w, pj, sizes[j])
            j += 1
            eta = signals[j] if j < len(signals) else p.m
            nxt = times[j]
            out_t.append(tau)
            out_w.append(w)
            out_y.append(deflator(tau, w, nxt, eta))
            cur = tau
        pi, cons, _ = controls(eta)
        d = t_hi - cur
        if regime == "merton":
            nxt = math.inf
        else:
            nxt = times[j] if j < len(times) else math.inf
        cint = (float(sol.consumption_integral(nxt, cur, t_hi))
                if regime == "timing" else cons * d)
        w = wealth_step_exact(w, pi, cint, d, math.sqrt(d) * zs[k], p)
        out_t.append(t_hi)
        out_w.append(w)
        out_y.append(deflator(t_hi, w, nxt, eta))
    # collapse duplicate times keeping the post-jump value, as the engine does
    t = np.array(out_t)
    keep = np.ones(len(t), dtype=bool)
    keep[:-1] = t[:-1] != t[1:]
    return t[keep], np.array(out_w)[keep], np.array(out_y)[keep]


class TestEngineAgainstScalarOps:
    @pytest.mark.parametrize("regime,pid", [
        ("uninformed", 3), ("uninformed", 8), ("timing", 3), ("timing", 8),
        ("signal", 3), ("signal", 8), ("merton", 3),
    ])
    def test_replay_matches_engine(self, canon, sols, regime, pid):
        cfg = SimConfig(horizon=12.0, dt=0.25, n_paths=1, seed=99, regime=regime)
        sol = sols.for_regime(regime)
        rec = simulate_path(canon, sol, cfg, pid)
        t, w, y = replay_path(canon, sol, cfg, pid, regime)
        assert np.allclose(rec.grid, t, rtol=0, atol=0)
        assert np.allclose(rec.wealth, w, rtol=1e-10, atol=0)
        assert np.allclose(rec.deflator, y, rtol=1e-9, atol=1e-12)

    def test_timing_interior_exposure_replay(self, canon, rule64):
        # exercise the jump-exposure path of the timing insider (a* > 0)
        from infoprice.agents import solve_timing_insider
        p = with_fields(canon, m=0.02, v=0.04)
        sol = solve_timing_insider(p, rule64)
        assert sol.a_star > 1e-3
        cfg = SimConfig(horizon=12.0, dt=0.25, n_paths=1, seed=99, regime="timing")
        rec = simulate_path(p, sol, cfg, 5)
        t, w, y = replay_path(p, sol, cfg, 5, "timing")
        assert np.allclose(rec.wealth, w, rtol=1e-10, atol=0)
        assert np.allclose(rec.deflator, y, rtol=1e-9, atol=1e-12)


class TestSimulatePath:
    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal", "merton"])
    def test_deflator_starts_at_one(self, canon, sols, regime):
        cfg = SimConfig(horizon=3.0, dt=0.05, n_paths=1, seed=42, regime=regime)
        rec = simulate_path(canon, sols.for_regime(regime), cfg, 0)
        assert rec.deflator[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(rec.wealth > 0)
        assert rec.grid[0] == 0.0 and rec.grid[-1] == cfg.horizon
        assert np.all(np.diff(rec.grid) > 0)

    def test_reproducible(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=4.0, dt=0.05, n_paths=1, seed=7, regime="uninformed")
        a = simulate_path(canon, sol_uninformed, cfg, 17)
        b = simulate_path(canon, sol_uninformed, cfg, 17)
        assert np.array_equal(a.wealth, b.wealth)
        assert np.array_equal(a.deflator, b.deflator)
        assert np.array_equal(a.grid, b.grid)

    def test_grid_contains_jump_times(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=20.0, dt=0.25, n_paths=1, seed=3, regime="uninformed")
        rec = simulate_path(canon, sol_uninformed, cfg, 2)
        within = rec.jump_times[rec.jump_times <= cfg.horizon]
        assert len(within) > 0
        for t in within:
            assert np.any(np.isclose(rec.grid, t, rtol=0, atol=0))

    def test_wealth_scale_leaves_deflator_untouched(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=3.0, dt=0.05, n_paths=1, seed=5, regime="uninformed")
        a = simulate_path(canon, sol_uninformed, cfg, 0, wealth_scale=1.0)
        b = simulate_path(canon, sol_uninformed, cfg, 0, wealth_scale=10.0)
        assert np.array_equal(a.deflator, b.deflator)
        assert np.allclose(b.wealth, 10.0 * a.wealth, rtol=1e-15)

    def test_jump_nodes_match_scenario(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=30.0, dt=0.5, n_paths=1, seed=12, regime="uninformed")
        rec = simulate_path(canon, sol_uninformed, cfg, 4)
        within = rec.jump_times[rec.jump_times <= cfg.horizon]
        flagged = rec.grid[rec.is_jump]
        assert np.array_equal(np.sort(flagged), np.sort(within))
        for xi in rec.jump_sizes[:len(within)]:
            assert 1.0 + sol_uninformed.q_bar1 * math.expm1(xi) > 0

    def test_deflator_consistent_with_formula(self, canon, sols):
        # uninformed record must satisfy Y = A1 e^{-rho t} w^{-R} pointwise
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=1, seed=21,
                        regime="uninformed")
        rec = simulate_path(canon, sols.uninformed, cfg, 9)
        for t, w, y in zip(rec.grid, rec.wealth, rec.deflator):
            assert y == pytest.approx(
                uninformed_deflator(sols.uninformed, canon, t, w), rel=1e-10)

    def test_timing_deflator_renews(self, canon, sols):
        cfg = SimConfig(horizon=20.0, dt=0.25, n_paths=1, seed=6, regime="timing")
        rec = simulate_path(canon, sols.timing, cfg, 1)
        within = rec.jump_times[rec.jump_times <= cfg.horizon]
        assert len(within) > 0
        for t, w, y, is_j in zip(rec.grid, rec.wealth, rec.deflator, rec.is_jump):
            nxt = rec.jump_times[np.searchsorted(rec.jump_times, t, side="right")] \
                if t < rec.jump_times[-1] else math.inf
            assert y == pytest.approx(
                timing_deflator(sols.timing, canon, t, w, nxt), rel=1e-9)


class TestBulkEngine:
    def test_chunk_invariance(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=5.0, dt=0.05, n_paths=64, seed=33,
                        regime="uninformed")
        a = path_integrals(canon, sol_uninformed, cfg, ConstantStream(1.0),
                           chunk_paths=64)
        b = path_integrals(canon, sol_uninformed, cfg, ConstantStream(1.0),
                           chunk_paths=7)
        assert np.array_equal(a, b)

    def test_martingale_spot_check(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=5.0, dt=5.0, n_paths=40_000, seed=8,
                        regime="uninformed")
        y = deflator_at_times(canon, sol_uninformed, cfg, [1.0, 5.0])
        for j, t in enumerate((1.0, 5.0)):
            vals = y[:, j] * math.exp(canon.r * t)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - 1.0) <= 3 * se

    def test_no_jump_exact_in_coarse_dt(self, canon, rule64):
        # with lam = 0 the exact step has no discretization bias: coarse and
        # fine grids give statistically identical deflator samples
        from infoprice.agents import solve_uninformed
        p0 = with_fields(canon, lam=0.0)
        sol = solve_uninformed(p0, rule64)
        out = {}
        for dt in (5.0, 0.05):
            cfg = SimConfig(horizon=5.0, dt=dt, n_paths=30_000, seed=10,
                            regime="uninformed")
            y = deflator_at_times(p0, sol, cfg, [5.0])
            out[dt] = y[:, 0] * math.exp(p0.r * 5.0)
        m1, m2 = out[5.0].mean(), out[0.05].mean()
        se = math.sqrt(out[5.0].var(ddof=1) / 30_000 + out[0.05].var(ddof=1) / 30_000)
        assert abs(m1 - m2) <= 3 * se


PARAM_SETS = {
    "canon": {},
    "interior": {"m": 0.02, "v": 0.04},     # interior timing exposure a*
    "dense": {"lam": 2.0, "m": 0.0, "v": 0.01},
}
# The signal insider's exposure sits at the q* = 1 corner at 41-48% of the
# signal-law nodes; there e^(rt) Y is a strict supermartingale with drift
# -q* F(q*) / h(eta). Measured E[e^(10 r) Y_10]: 0.874 +- 0.006 at interior,
# 0.800 +- 0.006 at dense. ROADMAP, "The value of the bank account under the
# signal insider", has the closed form that is to replace this deflator.
SIGNAL_CORNER_DEFECT = pytest.mark.xfail(
    strict=True, reason="signal deflator is a strict supermartingale where "
                        "q* = 1 (measured 0.874 at interior, 0.800 at dense)")


class TestInsiderMartingale:
    """E[e^(rt) Y_t] = 1 at t = 10 for the two insiders' deflators, the
    property the truncation bounds and the constant-stream closed form use."""

    @pytest.mark.parametrize("regime,name", [
        ("timing", "canon"), ("timing", "interior"), ("timing", "dense"),
        ("signal", "canon"),
        pytest.param("signal", "interior", marks=SIGNAL_CORNER_DEFECT),
        pytest.param("signal", "dense", marks=SIGNAL_CORNER_DEFECT),
    ])
    def test_bank_account_is_priced(self, canon, rule64, regime, name):
        p = with_fields(canon, **PARAM_SETS[name])
        sol = (solve_timing_insider(p, rule64) if regime == "timing"
               else solve_signal_insider(p, rule64))
        cfg = SimConfig(horizon=10.0, dt=0.5, n_paths=40_000, seed=3,
                        regime=regime)
        vals = deflator_at_times(p, sol, cfg, [10.0])[:, 0] * math.exp(p.r * 10.0)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - 1.0) <= 3 * se, f"mean {mean:.4f} se {se:.4f}"
