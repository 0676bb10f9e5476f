"""Scenario generation, exact stepping, and the path engine.

The heavyweight check here replays entire paths by hand: scenario and
normals are drawn from the documented per-path streams, wealth is composed
step by step from wealth_step_exact and apply_jump, and the result must
match the engine's records node for node.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from infoprice import simulate
from infoprice.agents import (
    REGIMES,
    deflator,
    posterior_of_jump,
    solve_all,
    solve_signal_insider,
    solve_timing_insider,
)
from infoprice.errors import SimulationError
from infoprice.model import (
    ConstantStream,
    ExpUntilFirstJumpStream,
    PostFirstJumpSignalStream,
)
from infoprice.simulate import (
    SimConfig,
    _RngPool,
    _Tile,
    _grid_nodes,
    deflator_at_times,
    draw_scenario,
    path_integrals,
    path_rng,
    simulate_path,
)

from .oracles import apply_jump, scenario_reference, wealth_step_exact

_BLOCK = 2048   # step-normal block width, part of the stream convention

STREAMS = {
    "constant:1": ConstantStream(1.0),
    "exp_until_jump": ExpUntilFirstJumpStream(),
    "post_jump_signal:tanh": PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0,
                                                       psi_name="tanh"),
}


def with_fields(p, **kw):
    return dataclasses.replace(p, **kw)


@pytest.fixture(scope="module")
def dense(canon):
    """Dense jumps: lambda 2, so a 1-year grid cell often holds several."""
    return with_fields(canon, lam=2.0, m=0.0, v=0.01)


@pytest.fixture(scope="module")
def dense_sols(dense, rule64):
    return solve_all(dense, rule64)


def philox_block(seed: int, pid: int, purpose: int, block: int) -> np.random.Generator:
    """A fresh generator on the documented stream: key (seed, (4 pid +
    purpose) mod 2^64), counter word 2 = block."""
    key = np.array([seed, (pid * 4 + purpose) % 2**64], dtype=np.uint64)
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

    def test_extreme_keys(self):
        pool = _RngPool()
        for pid, purpose, block in ((7, 1, 0), (3, 3, 4)):
            got = pool.get_block(2**64 - 1, pid, purpose, block).standard_normal(9)
            want = philox_block(2**64 - 1, pid, purpose, block).standard_normal(9)
            assert np.array_equal(got, want)
        # 4 i + purpose wraps mod 2^64: path 2^62 + 5 has path 5's keys
        for purpose in range(4):
            got = pool.get_block(9, 2**62 + 5, purpose, 2).standard_normal(9)
            assert np.array_equal(got, philox_block(9, 2**62 + 5, purpose, 2)
                                  .standard_normal(9))
            assert np.array_equal(got, philox_block(9, 5, purpose, 2).standard_normal(9))


PINS = {"none": (None, None), "t1": (2.5, None), "t1_beyond": (30.0, None),
        "eta0": (None, 0.21)}


class TestTileDraw:
    """A tile draws its paths' scenarios in array passes; every row must
    equal the one-path-at-a-time reference draw bit for bit."""

    @staticmethod
    def assert_rows_match(scen, p, cfg, ids, pins):
        for row, pid in enumerate(ids):
            n = int(scen.counts[row])
            want = scenario_reference(p, cfg.horizon, cfg.seed, pid, *pins)
            got = (scen.times[row, :n], scen.sizes[row, :n],
                   scen.signals[row, :n], scen.jnorms[row, :n - 1])
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), pid
            assert np.all(scen.times[row, n:] == math.inf)
            assert np.all(scen.sizes[row, n:] == 0.0)
            assert np.all(scen.signals[row, n:] == p.m)
            assert np.all(scen.jnorms[row, n - 1:] == 0.0)

    @pytest.mark.parametrize("pin", list(PINS))
    @pytest.mark.parametrize("name", ["canon", "dense"])
    def test_tile_tables_match_reference(self, canon, sols, name, pin):
        p = with_fields(canon, **PARAM_SETS[name])
        cfg = SimConfig(horizon=25.0, dt=0.5, n_paths=1, seed=17, regime="merton")
        ids = np.arange(40, 340)
        tile = _Tile(p, sols.merton, cfg, _grid_nodes(cfg), ids, *PINS[pin])
        self.assert_rows_match(tile.scen, p, cfg, ids.tolist(), PINS[pin])

    @pytest.mark.parametrize("pin", list(PINS))
    @pytest.mark.parametrize("name", ["canon", "dense"])
    def test_draw_scenario_matches_reference(self, canon, name, pin):
        p = with_fields(canon, **PARAM_SETS[name])
        cfg = SimConfig(horizon=25.0, dt=0.5, n_paths=1, seed=17, regime="signal")
        for pid in range(0, 300, 13):
            got = draw_scenario(p, cfg, pid, *PINS[pin])
            want = scenario_reference(p, cfg.horizon, cfg.seed, pid, *PINS[pin])
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), pid

    def test_no_jumps(self, canon, sols):
        p0 = with_fields(canon, lam=0.0)
        cfg = SimConfig(horizon=5.0, dt=0.5, n_paths=1, seed=17, regime="merton")
        scen = _Tile(p0, sols.merton, cfg, _grid_nodes(cfg), np.arange(9),
                     None, 0.3).scen
        assert np.all(scen.counts == 1) and scen.times.shape == (9, 1)
        assert np.all(scen.times == math.inf) and np.all(scen.sizes == 0.0)
        assert np.all(scen.signals == p0.m) and np.all(scen.jnorms == 0.0)

    def test_gap_extension_matches_reference(self, canon, sols, monkeypatch):
        # lam H = 50: with one 16-gap block in the first call every path
        # extends its gaps; the gap stream is sequential, so the values are
        # those of the reference's six-block first call
        p = with_fields(canon, **PARAM_SETS["dense"])
        cfg = SimConfig(horizon=25.0, dt=0.5, n_paths=1, seed=17, regime="merton")
        monkeypatch.setattr(simulate, "_gap_blocks", lambda mean: 1)
        ids = np.arange(100)
        for pins in ((None, None), (2.5, None)):
            scen = _Tile(p, sols.merton, cfg, _grid_nodes(cfg), ids, *pins).scen
            assert np.all(scen.counts > 16)
            self.assert_rows_match(scen, p, cfg, ids.tolist(), pins)
        got = draw_scenario(p, cfg, 3)
        want = scenario_reference(p, cfg.horizon, cfg.seed, 3)
        assert len(got[0]) > 16
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


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


def replay_points(p, sol, cfg, pid, regime):
    """Recompose one path from raw streams and the scalar step operations.

    Returns the raw composite-grid points in time order, a jump and the node
    it may coincide with both kept: times, wealth and deflator (right limits),
    the deflator's left limit (equal to the right limit at regular nodes),
    and the jump count before and after each point.
    """
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
    w = deflator(sol, p, 0.0, 1.0, next_jump=t1, signal=eta0) ** (1.0 / p.R)
    out_t, out_w, out_y, out_yl = [0.0], [w], [1.0], [1.0]
    out_jl, out_jr = [0], [0]

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
            if regime == "timing":   # the next jump is now: f(0)
                out_yl.append(float(np.exp(sol.log_f(0.0)))
                              * math.exp(-p.rho * tau) * w ** (-p.R))
            else:
                out_yl.append(deflator(sol, p, tau, w, signal=eta))
            w = apply_jump(w, pj, sizes[j])
            j += 1
            eta = signals[j] if j < len(signals) else p.m
            nxt = times[j]
            out_t.append(tau)
            out_w.append(w)
            out_y.append(deflator(sol, p, tau, w, nxt, eta))
            out_jl.append(j - 1)
            out_jr.append(j)
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
        out_y.append(deflator(sol, p, t_hi, w, nxt, eta))
        out_yl.append(out_y[-1])
        out_jl.append(j)
        out_jr.append(j)
    return (np.array(out_t), np.array(out_w), np.array(out_y),
            np.array(out_yl), np.array(out_jl), np.array(out_jr))


def replay_path(p, sol, cfg, pid, regime):
    """The hand replay on the engine's record grid: times, wealth, deflator."""
    t, w, y, _, _, _ = replay_points(p, sol, cfg, pid, regime)
    # collapse duplicate times keeping the post-jump value, as the engine does
    keep = np.ones(len(t), dtype=bool)
    keep[:-1] = t[:-1] != t[1:]
    return t[keep], w[keep], y[keep]


def replay_integral(p, sol, cfg, pid, regime, stream):
    """Composite-grid trapezoid of deflator times stream on the hand replay:
    each sub-interval runs from a point's right limit to the next point's
    left limit."""
    t, _, y, y_left, jc_left, jc_right = replay_points(p, sol, cfg, pid, regime)
    eta0 = draw_scenario(p, cfg, pid)[2][0] if p.lam > 0.0 else p.m

    def value(u, jc):
        if isinstance(stream, ConstantStream):
            return stream.level
        if isinstance(stream, ExpUntilFirstJumpStream):
            return math.exp(p.r * u) if jc == 0 else 0.0
        return (float(stream.psi(eta0)) * math.exp((p.r - 1.0) * u)
                if jc >= 1 else 0.0)

    right = [yi * value(u, jc) for u, yi, jc in zip(t, y, jc_right)]
    left = [yi * value(u, jc) for u, yi, jc in zip(t, y_left, jc_left)]
    return math.fsum(0.5 * (right[i] + left[i + 1]) * (t[i + 1] - t[i])
                     for i in range(len(t) - 1))


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

    # lambda 2 with dt 1: up to 6 jumps share one grid cell on these paths
    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal", "merton"])
    @pytest.mark.parametrize("pid", [3, 8, 11])
    def test_replay_several_jumps_per_cell(self, dense, dense_sols, regime, pid):
        cfg = SimConfig(horizon=12.0, dt=1.0, n_paths=1, seed=99, regime=regime)
        sol = dense_sols.for_regime(regime)
        rec = simulate_path(dense, sol, cfg, pid)
        t, w, y = replay_path(dense, sol, cfg, pid, regime)
        assert np.allclose(rec.grid, t, rtol=0, atol=0)
        assert np.allclose(rec.wealth, w, rtol=1e-10, atol=0)
        assert np.allclose(rec.deflator, y, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("spec", list(STREAMS))
    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal", "merton"])
    @pytest.mark.parametrize("pid", [3, 8, 11])
    def test_path_integral_matches_replay(self, dense, dense_sols, spec, regime, pid):
        stream = STREAMS[spec]
        cfg = SimConfig(horizon=12.0, dt=1.0, n_paths=1, seed=99, regime=regime)
        sol = dense_sols.for_regime(regime)
        got = path_integrals(dense, sol, cfg, stream, path_offset=pid, n_paths=1)[0]
        want = replay_integral(dense, sol, cfg, pid, regime, stream)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)


class TestMultiBlock:
    """A grid of three step blocks (2048 + 2048 + 404 steps): the engine's
    work arrays are reused from block to block and tile to tile, and every
    value must still be the hand replay's."""

    CFG = dict(horizon=45.0, dt=0.01, seed=99)
    STREAM = {"merton": "constant:1", "uninformed": "exp_until_jump",
              "timing": "post_jump_signal:tanh", "signal": "constant:1"}

    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal", "merton"])
    def test_simulate_path(self, canon, sols, regime):
        cfg = SimConfig(n_paths=1, regime=regime, **self.CFG)
        sol = sols.for_regime(regime)
        rec = simulate_path(canon, sol, cfg, 3)
        t, w, y = replay_path(canon, sol, cfg, 3, regime)
        assert len(t) > 2 * _BLOCK + 1
        assert np.allclose(rec.grid, t, rtol=0, atol=0)
        assert np.allclose(rec.wealth, w, rtol=1e-10, atol=0)
        assert np.allclose(rec.deflator, y, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal", "merton"])
    def test_path_integrals(self, canon, sols, regime):
        # 300 paths: a full tile, then a short one that reuses its arrays
        stream = STREAMS[self.STREAM[regime]]
        cfg = SimConfig(n_paths=300, regime=regime, **self.CFG)
        sol = sols.for_regime(regime)
        got = path_integrals(canon, sol, cfg, stream)
        for pid in (3, 260):
            want = replay_integral(canon, sol, cfg, pid, regime, stream)
            assert abs(got[pid] - want) <= 1e-10 * max(1.0, abs(want)), (pid, got[pid], want)

    @pytest.mark.parametrize("regime", ["uninformed", "timing", "signal", "merton"])
    def test_deflator_at_times(self, canon, sols, regime):
        # checkpoints at every grid node: the same three blocks
        cfg = SimConfig(n_paths=300, regime=regime, **self.CFG)
        sol = sols.for_regime(regime)
        nodes = _grid_nodes(cfg)
        got = deflator_at_times(canon, sol, cfg, nodes)
        for pid in (3, 260):
            t, _, y, _, jl, jr = replay_points(canon, sol, cfg, pid, regime)
            regular = jl == jr      # the grid nodes, not the jumps
            assert np.array_equal(t[regular], nodes)
            assert np.allclose(got[pid], y[regular], rtol=1e-9, atol=1e-12)


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
                deflator(sols.uninformed, canon, t, w), rel=1e-10)

    def test_timing_deflator_renews(self, canon, sols):
        cfg = SimConfig(horizon=20.0, dt=0.25, n_paths=1, seed=6, regime="timing")
        rec = simulate_path(canon, sols.timing, cfg, 1)
        within = rec.jump_times[rec.jump_times <= cfg.horizon]
        assert len(within) > 0
        for t, w, y, is_j in zip(rec.grid, rec.wealth, rec.deflator, rec.is_jump):
            nxt = rec.jump_times[np.searchsorted(rec.jump_times, t, side="right")] \
                if t < rec.jump_times[-1] else math.inf
            assert y == pytest.approx(
                deflator(sols.timing, canon, t, w, nxt), rel=1e-9)


class TestCheckRegime:
    def test_wrong_solution_raises_type_error(self, canon, sols):
        for regime in REGIMES:
            simulate._check_regime(regime, sols.for_regime(regime))
            for other in set(REGIMES) - {regime}:
                with pytest.raises(TypeError, match=f"regime '{regime}' needs"):
                    simulate._check_regime(regime, sols.for_regime(other))
        with pytest.raises(TypeError):
            simulate._check_regime("uninformed", object())

    def test_engine_checks_the_solution(self, canon, sols):
        cfg = SimConfig(horizon=1.0, dt=0.5, n_paths=2, seed=1, regime="timing")
        with pytest.raises(TypeError, match="got UninformedSolution"):
            path_integrals(canon, sols.uninformed, cfg, ConstantStream(1.0))


class TestSimConfig:
    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_horizon_that_is_not_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            SimConfig(horizon=horizon, dt=0.1, n_paths=1, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            SimConfig(horizon=1.0, dt=0.1, n_paths=1, seed=seed)

    def test_accepts_the_64_bit_extremes(self, canon, sol_uninformed):
        for seed in (0, 2**64 - 1):
            cfg = SimConfig(horizon=1.0, dt=0.5, n_paths=2, seed=seed)
            assert np.all(np.isfinite(path_integrals(canon, sol_uninformed, cfg,
                                                     ConstantStream(1.0))))


BAD_PINS = [dict(pin_t1=math.nan), dict(pin_t1=math.inf), dict(pin_t1=0.0),
            dict(pin_eta0=math.nan), dict(pin_eta0=math.inf),
            dict(pin_eta0=-math.inf), dict(pin_t1=1.0, pin_eta0=0.1)]


class TestEnginePins:
    """Every engine entry point checks its pin through Conditioning."""

    @pytest.mark.parametrize("pin", BAD_PINS)
    @pytest.mark.parametrize("entry", ["path_integrals", "deflator_at_times",
                                       "simulate_path", "draw_scenario"])
    def test_bad_pin_raises_value_error(self, canon, sols, entry, pin):
        regime = "timing" if "pin_t1" in pin else "signal"
        sol = sols.for_regime(regime)
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=3, seed=1, regime=regime)
        call = {"path_integrals": lambda: path_integrals(
                    canon, sol, cfg, ConstantStream(1.0), **pin),
                "deflator_at_times": lambda: deflator_at_times(
                    canon, sol, cfg, [1.0], **pin),
                "simulate_path": lambda: simulate_path(canon, sol, cfg, 0, **pin),
                "draw_scenario": lambda: draw_scenario(canon, cfg, 0, **pin)}[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("pin", BAD_PINS)
    def test_bad_pin_raises_without_jumps(self, canon, pin):
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=1, seed=1)
        with pytest.raises(ValueError):
            draw_scenario(with_fields(canon, lam=0.0), cfg, 0, **pin)

    def test_good_pin_without_jumps_keeps_the_sentinel(self, canon):
        cfg = SimConfig(horizon=2.0, dt=0.5, n_paths=1, seed=1)
        t, s, g = draw_scenario(with_fields(canon, lam=0.0), cfg, 0, pin_t1=1.0)
        assert t.tolist() == [math.inf]
        assert s.size == 0 and g.size == 0


class TestBulkEngine:
    def test_chunk_invariance(self, canon, sol_uninformed):
        # a run cut into unequal slices of paths gives the same per-path values
        cfg = SimConfig(horizon=5.0, dt=0.05, n_paths=64, seed=33,
                        regime="uninformed")
        whole = path_integrals(canon, sol_uninformed, cfg, ConstantStream(1.0))
        parts = [path_integrals(canon, sol_uninformed, cfg, ConstantStream(1.0),
                                path_offset=lo, n_paths=hi - lo)
                 for lo, hi in ((0, 7), (7, 64))]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_threads_match_serial_runs(self, dense, dense_sols):
        # each thread re-keys its own generators of the shared module pool
        stream = STREAMS["post_jump_signal:tanh"]
        cfgs = [SimConfig(horizon=10.0, dt=0.05, n_paths=300, seed=seed,
                          regime="signal") for seed in (1, 2, 3, 4)]
        serial = [path_integrals(dense, dense_sols.signal, cfg, stream)
                  for cfg in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # switch threads often
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(path_integrals, dense, dense_sols.signal,
                                    cfg, stream) for cfg in cfgs]
                for run, want in zip(runs, serial):
                    assert np.array_equal(run.result(timeout=300), want)
        finally:
            sys.setswitchinterval(interval)

    def test_non_finite_state_raises(self, canon, sol_uninformed):
        cfg = SimConfig(horizon=1.0, dt=0.1, n_paths=3, seed=1,
                        regime="uninformed")
        broken = dataclasses.replace(sol_uninformed, q_bar1=math.nan)
        with pytest.raises(SimulationError, match="non-finite"):
            path_integrals(canon, broken, cfg, ConstantStream(1.0))

    @pytest.mark.parametrize("n_paths,n_steps", [(2048, 5000), (8192, 2048)])
    def test_memory_is_bounded(self, canon, sol_uninformed, n_paths, n_steps):
        # paths advance in fixed tiles, so peak memory does not grow with
        # the path count
        cfg = SimConfig(horizon=0.01 * n_steps, dt=0.01, n_paths=n_paths,
                        seed=1, regime="uninformed")
        tracemalloc.start()
        try:
            path_integrals(canon, sol_uninformed, cfg, ConstantStream(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100e6, f"peak {peak / 1e6:.1f} MB"

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


ENGINE_FAULT_PROBE = """
import json, os, sys
sys.modules["scipy"] = None
import numpy as np
from infoprice.agents import solve_all
from infoprice.model import ExpUntilFirstJumpStream, ModelParams, PostFirstJumpSignalStream
from infoprice.quadrature import gauss_hermite
from infoprice.simulate import SimConfig, path_integrals
p = ModelParams(**{fields!r})
sols = solve_all(p, gauss_hermite(64))
streams = [PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0, psi_name="tanh"),
           ExpUntilFirstJumpStream()]

def run(regime, stream, n_paths):
    cfg = SimConfig(horizon=25.0, dt=0.05, n_paths=n_paths, seed=3, regime=regime)
    path_integrals(p, sols.for_regime(regime), cfg, stream)

def child_faults(*job):
    pid = os.fork()
    if pid == 0:
        run(*job)
        os._exit(0)
    _, status, usage = os.wait4(pid, 0)
    assert status == 0, status
    return usage.ru_minflt

faults = {{}}
for regime in ("uninformed", "timing", "signal"):
    for stream in streams:
        run(regime, stream, 1024)
        faults[regime + " " + stream.label] = [child_faults(regime, stream, n)
                                               for n in (1024, 4096)]
print(json.dumps(faults))
"""


class TestEngineFaults:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults after fork")
    def test_faults_do_not_grow_with_the_paths(self, dense):
        """A fresh interpreter at dense warms each (regime, stream) pair,
        then runs a 1024-path and a 4096-path path_integrals call each in a
        forked child, as price_mc's workers do. The 4096-path child makes at
        most 1.3x the minor page faults of the 1024-path one: the work
        arrays are faulted in once per call, not once per 256-path tile
        (2.8-3.3x when every tile allocated them). A call in the warm
        process itself is not counted: it faults in its arrays again, or
        none of them where the allocator kept the last call's pages."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             ENGINE_FAULT_PROBE.format(fields=dataclasses.asdict(dense))],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        for job, (small, large) in json.loads(proc.stdout).items():
            assert large <= 1.3 * small, (job, small, large)


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
