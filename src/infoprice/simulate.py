"""Scenario generation and exact path simulation for all four regimes.

Between jumps the optimal wealth of every agent follows a geometric SDE with
a constant (or, for the timing insider, deterministically time-varying)
proportional consumption rate, so each step is advanced by the exact strong
solution; the only discretization in the whole engine is the trapezoid used
by the pricing integral. Jump times are explicit integration nodes, so
integrands that jump are captured with left/right limits.

Randomness is counter-based and keyed per path: path `i` of a run with seed
`s` draws from four independent Philox streams keyed by (s, 4 i + purpose),

    purpose 0  exponential inter-jump gaps, drawn in blocks of 16
    purpose 1  jump sizes and signal noises, interleaved per jump
    purpose 2  one normal per in-horizon jump (the pre-jump sub-step)
    purpose 3  one normal per grid interval (the remainder of the step)

so per-path output is reproducible regardless of chunking, worker count, or
which other paths run. Pinning the first jump time or the first signal
consumes the same draws and replaces the value, which keeps the rest of the
scenario common between conditional and unconditional runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .agents import (
    MertonSolution,
    SignalInsiderSolution,
    TimingInsiderSolution,
    UninformedSolution,
    posterior_of_jump,
)
from .errors import SimulationError
from .model import (
    IncomeStream,
    ModelParams,
    PathContext,
    PostFirstJumpSignalStream,
)

__all__ = [
    "SimConfig",
    "PathRecord",
    "path_rng",
    "draw_scenario",
    "wealth_step_exact",
    "apply_jump",
    "simulate_path",
    "path_integrals",
    "deflator_at_times",
    "write_path_dump",
    "initial_wealth",
]

_GAP_BLOCK = 16
_PURPOSE_GAPS = 0
_PURPOSE_MARKS = 1
_PURPOSE_JUMPNORM = 2
_PURPOSE_STEPNORM = 3

DEFAULT_CHUNK_PATHS = 25_000
_BLOCK_STEPS = 2048


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: horizon and grid step in years, path count,
    64-bit seed, and the regime whose optimal controls drive the paths."""

    horizon: float
    dt: float
    n_paths: int
    seed: int
    regime: str = "uninformed"

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if not 0.0 < self.dt <= self.horizon:
            raise ValueError("need 0 < dt <= horizon")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.regime not in ("uninformed", "timing", "signal", "merton"):
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class PathRecord:
    """One simulated scenario on its composite grid.

    grid holds the regular nodes plus every in-horizon jump time; wealth and
    deflator hold the right-limit (post-jump) values at jump nodes.
    jump_times includes the first jump beyond the horizon, which the timing
    insider's deflator needs near the end of the window.
    """

    grid: np.ndarray
    wealth: np.ndarray
    deflator: np.ndarray
    is_jump: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    signals: np.ndarray


def _philox_key(seed: int, path_index: int, purpose: int) -> np.ndarray:
    return np.array([np.uint64(seed), np.uint64(path_index) * np.uint64(4)
                     + np.uint64(purpose)], dtype=np.uint64)


def path_rng(seed: int, path_index: int, purpose: int) -> np.random.Generator:
    """Counter-based generator for one (path, purpose) pair."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, path_index, purpose)))


class _RngPool:
    """Reusable Philox generators, one per purpose, re-keyed per path.

    Produces draw-for-draw the same streams as fresh path_rng generators but
    without per-path construction cost (each construction pulls OS entropy).
    Purposes get separate instances so interleaved use cannot cross streams.
    """

    def __init__(self):
        self._bgs = {}
        self._gens = {}
        template_bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        template = template_bg.state
        self._counter = np.zeros_like(template["state"]["counter"])
        self._buffer = np.zeros_like(template["buffer"])
        self._buffer_pos = int(template["buffer_pos"])

    def _slot(self, purpose: int):
        if purpose not in self._bgs:
            bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
            self._bgs[purpose] = bg
            self._gens[purpose] = np.random.Generator(bg)
        return self._bgs[purpose], self._gens[purpose]

    def _set(self, purpose: int, key: np.ndarray, counter: np.ndarray):
        bg, gen = self._slot(purpose)
        bg.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": self._buffer.copy(),
            "buffer_pos": self._buffer_pos,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def get(self, seed: int, path_index: int, purpose: int) -> np.random.Generator:
        return self._set(purpose, _philox_key(seed, path_index, purpose),
                         self._counter.copy())

    def get_block(self, seed: int, path_index: int, purpose: int,
                  block: int) -> np.random.Generator:
        """Stream segment at counter word 2 = block: disjoint 2^128-draw
        segments of the same keyed stream, one per step block."""
        counter = self._counter.copy()
        counter[2] = np.uint64(block)
        return self._set(purpose, _philox_key(seed, path_index, purpose), counter)


def _draw_scenario_impl(p: ModelParams, horizon: float, gaps_gen, marks_gen,
                        pin_t1, pin_eta0):
    gaps: list[np.ndarray] = []
    total = 0.0
    while True:
        block = gaps_gen.exponential(1.0 / p.lam, _GAP_BLOCK)
        if pin_t1 is not None and not gaps:
            block = block.copy()
            block[0] = pin_t1
        gaps.append(block)
        total += float(block.sum())
        if total > horizon:
            break
    times = np.cumsum(np.concatenate(gaps))
    n = int(np.searchsorted(times, horizon, side="right")) + 1
    times = times[:n]

    z = marks_gen.standard_normal(2 * n)
    sizes = p.m + math.sqrt(p.v) * z[0::2]
    signals = sizes + math.sqrt(p.v_eps) * z[1::2]
    if pin_eta0 is not None:
        m_post, v_post = posterior_of_jump(pin_eta0, p)
        sizes[0] = m_post + math.sqrt(v_post) * z[0]
        signals[0] = pin_eta0
    return times, sizes, signals


def draw_scenario(p: ModelParams, cfg: SimConfig, path_index: int,
                  pin_t1: float | None = None,
                  pin_eta0: float | None = None):
    """Jump times, jump sizes and signals for one path.

    Returns (jump_times, jump_sizes, signals): times are the partial sums of
    Exp(lam) gaps up to and including the first one beyond the horizon; sizes
    and signals align with the times. With lam = 0 the times are a single
    +inf sentinel and the other arrays are empty. Pinned values replace the
    corresponding draw; a pinned first signal redraws the first jump size
    from its Gaussian posterior using the same underlying normal.
    """
    if pin_t1 is not None and not pin_t1 > 0.0:
        raise ValueError("pinned first jump time must be > 0")
    if p.lam == 0.0:
        return np.array([math.inf]), np.array([]), np.array([])
    return _draw_scenario_impl(
        p, cfg.horizon,
        path_rng(cfg.seed, path_index, _PURPOSE_GAPS),
        path_rng(cfg.seed, path_index, _PURPOSE_MARKS),
        pin_t1, pin_eta0)


def wealth_step_exact(w: float, pi: float, consumption_rate_integral: float,
                      dt_step: float, dW: float, p: ModelParams) -> float:
    """Exact between-jump wealth update under constant fraction pi.

    The proportional-consumption SDE is log-linear between jumps, so the
    strong solution over the step is

        w * exp((r + pi (mu - r) - pi^2 sigma^2 / 2) dt - int(gamma) + pi sigma dW)

    with int(gamma) the integrated proportional consumption rate.
    """
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    drift = p.r + pi * (p.mu - p.r) - 0.5 * pi * pi * p.sigma**2
    return w * math.exp(drift * dt_step - consumption_rate_integral
                        + pi * p.sigma * dW)


def apply_jump(w: float, pi_at_jump: float, xi: float) -> float:
    """Wealth across a jump of size xi with fraction pi invested; stays
    positive for pi in [0, 1] because 1 + pi (e^xi - 1) > 0."""
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    if not 0.0 <= pi_at_jump <= 1.0:
        raise ValueError(f"jump exposure must be in [0, 1], got {pi_at_jump}")
    return w * (1.0 + pi_at_jump * math.expm1(xi))


_EXPECTED_SOLUTION = {
    "uninformed": UninformedSolution,
    "timing": TimingInsiderSolution,
    "signal": SignalInsiderSolution,
    "merton": MertonSolution,
}


def _check_regime(regime: str, sol) -> None:
    expected = _EXPECTED_SOLUTION[regime]
    if not isinstance(sol, expected):
        raise TypeError(f"regime {regime!r} needs a {expected.__name__}, "
                        f"got {type(sol).__name__}")


def initial_wealth(regime: str, sol, p: ModelParams, t1: float = math.inf,
                   eta0: float | None = None) -> float:
    """Per-regime normalizing initial wealth making the deflator start at 1."""
    _check_regime(regime, sol)
    if regime == "uninformed":
        return sol.A1 ** (1.0 / p.R)
    if regime == "merton":
        return sol.A_M ** (1.0 / p.R)
    if regime == "timing":
        return float(np.exp(sol.log_f(t1) / p.R))
    if eta0 is None:
        raise ValueError("signal regime needs the initial signal eta0")
    return float(sol.h_at(eta0)) ** (1.0 / p.R)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _prepare_chunk(p: ModelParams, cfg: SimConfig, path_ids: np.ndarray,
                   pin_t1, pin_eta0):
    """Scenario arrays for a chunk, flattened with per-path offsets."""
    pool = _RngPool()
    times_l, sizes_l, sig_l, jn_l = [], [], [], []
    for pid in path_ids:
        pid = int(pid)
        if p.lam == 0.0:
            t = np.array([math.inf])
            s = np.empty(0)
            g = np.empty(0)
        else:
            t, s, g = _draw_scenario_impl(
                p, cfg.horizon,
                pool.get(cfg.seed, pid, _PURPOSE_GAPS),
                pool.get(cfg.seed, pid, _PURPOSE_MARKS),
                pin_t1, pin_eta0)
        times_l.append(t)
        sizes_l.append(s if s.size else np.zeros_like(t))
        sig_l.append(g if g.size else np.full_like(t, p.m))
        n_within = int(np.searchsorted(t, cfg.horizon, side="right"))
        jn_l.append(
            pool.get(cfg.seed, pid, _PURPOSE_JUMPNORM).standard_normal(n_within)
            if n_within else np.empty(0))
    counts = np.array([len(t) for t in times_l], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    return (np.concatenate(times_l), np.concatenate(sizes_l),
            np.concatenate(sig_l), offsets, jn_l)


def _jump_events(jt_flat, offsets, jn_list, nodes, horizon):
    """Flatten in-horizon jumps into per-step event lists.

    Events are sorted by (step, time); each event carries the chunk-local
    path row, the flat index of the jump, and its pre-drawn split normal.
    Returns a CSR-style (ptr, path_row, flat_idx, time, z) tuple.
    """
    rows, flats, times, zs = [], [], [], []
    for row, jn in enumerate(jn_list):
        k = len(jn)
        if k:
            lo = offsets[row]
            rows.append(np.full(k, row, dtype=np.int64))
            flats.append(np.arange(lo, lo + k, dtype=np.int64))
            times.append(jt_flat[lo:lo + k])
            zs.append(jn)
    if not rows:
        n_steps = len(nodes) - 1
        ptr = np.zeros(n_steps + 1, dtype=np.int64)
        return ptr, (np.empty(0, np.int64), np.empty(0, np.int64),
                     np.empty(0), np.empty(0))
    path_row = np.concatenate(rows)
    flat_idx = np.concatenate(flats)
    t_ev = np.concatenate(times)
    z_ev = np.concatenate(zs)
    # step k covers (nodes[k], nodes[k+1]]
    step = np.searchsorted(nodes, t_ev, side="left") - 1
    step = np.clip(step, 0, len(nodes) - 2)
    order = np.lexsort((t_ev, step))
    path_row, flat_idx, t_ev, z_ev, step = (
        path_row[order], flat_idx[order], t_ev[order], z_ev[order], step[order])
    n_steps = len(nodes) - 1
    ptr = np.searchsorted(step, np.arange(n_steps + 1))
    return ptr, (path_row, flat_idx, t_ev, z_ev)


class _StreamEval:
    """Integrand stream values; vectorizes the canonical kinds."""

    def __init__(self, stream, p: ModelParams, eta0: np.ndarray, scen):
        self.stream = stream
        self.p = p
        self.scen = scen
        self.kind = None if stream is None else stream.kind
        if isinstance(stream, PostFirstJumpSignalStream):
            psi0 = np.asarray(stream.psi(eta0), dtype=float)
            if psi0.shape != eta0.shape:
                psi0 = np.array([float(stream.psi(e)) for e in eta0])
            if np.any(np.abs(psi0) > stream.psi_bound * (1.0 + 1e-12)):
                raise SimulationError("psi exceeded its declared bound")
            self.psi0 = psi0
        else:
            self.psi0 = None

    def values(self, t, jcount, idx, eta_cur):
        """e_t for subset idx (None = all paths); t scalar or per-path vector."""
        kind = self.kind
        if kind is None:
            return None
        if kind == "constant":
            return self.stream.level
        jc = jcount if idx is None else jcount[idx]
        if kind == "exp_until_jump":
            return np.where(jc == 0, np.exp(self.p.r * np.asarray(t, dtype=float)), 0.0)
        if kind == "post_jump_signal":
            psi = self.psi0 if idx is None else self.psi0[idx]
            return np.where(jc >= 1,
                            psi * np.exp((self.p.r - 1.0) * np.asarray(t, dtype=float)),
                            0.0)
        # custom: per-path python evaluation
        jt_flat, js_flat, _, offsets = self.scen
        which = np.arange(len(jcount)) if idx is None else np.atleast_1d(idx)
        t_vec = np.broadcast_to(np.asarray(t, dtype=float), (len(which),))
        out = np.empty(len(which))
        for row, i in enumerate(which):
            n = int(jcount[i])
            lo = offsets[i]
            ctx = PathContext(t=float(t_vec[row]),
                              jump_times=tuple(jt_flat[lo:lo + n]),
                              jump_sizes=tuple(js_flat[lo:lo + n]),
                              signal=float(eta_cur[i]))
            out[row] = self.stream.payoff(float(t_vec[row]), ctx)
        return out


def _run_chunk(p: ModelParams, sol, cfg: SimConfig, nodes: np.ndarray,
               path_ids: np.ndarray, stream: IncomeStream | None,
               pin_t1, pin_eta0, checkpoint_cols: dict[int, int] | None,
               record: bool):
    """Advance one chunk of paths over the grid `nodes`.

    Returns (per-path integrals, checkpoint deflators or None,
    record rows or None, scenario arrays, terminal state dict).
    """
    regime = cfg.regime
    _check_regime(regime, sol)
    if record and len(path_ids) != 1:
        raise ValueError("record mode is single-path only")
    P = len(path_ids)
    R = p.R
    rho = p.rho
    sigma = p.sigma
    timing = regime == "timing"
    signal = regime == "signal"
    merton = regime == "merton"

    jt_flat, js_flat, sg_flat, offsets, jn_list = _prepare_chunk(
        p, cfg, path_ids, pin_t1, pin_eta0)
    if merton:
        ev_ptr = np.zeros(len(nodes), dtype=np.int64)
        ev = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))
    else:
        ev_ptr, ev = _jump_events(jt_flat, offsets, jn_list, nodes, cfg.horizon)
    ev_row, ev_flat, ev_time, ev_z = ev
    scen = (jt_flat, js_flat, sg_flat, offsets)

    x = np.zeros(P)
    acc = np.zeros(P)
    jcount = np.zeros(P, dtype=np.int64)
    t1_arr = jt_flat[offsets].copy()
    has_marks = p.lam > 0.0
    eta0 = sg_flat[offsets].copy() if has_marks else np.full(P, p.m)
    eta_cur = eta0.copy()
    t_next = jt_flat[offsets].copy() if not merton else np.full(P, math.inf)

    def fraction_drift(pi):
        return p.r + pi * (p.mu - p.r) - 0.5 * pi * pi * sigma**2

    log_norm0 = np.zeros(P)
    log_h_cur = None
    if regime == "uninformed":
        pi0 = float(sol.q_bar1)
        drift = np.full(P, fraction_drift(pi0))
        volc = np.full(P, pi0 * sigma)
        cons = np.full(P, sol.A1 ** (-1.0 / R))
        pij = np.full(P, pi0)
    elif merton:
        pi0 = float(sol.merton_fraction)
        drift = np.full(P, fraction_drift(pi0))
        volc = np.full(P, pi0 * sigma)
        cons = np.full(P, sol.gamma_M_merton)
        pij = np.zeros(P)
    elif timing:
        pi0 = float(p.merton_fraction)
        drift = np.full(P, fraction_drift(pi0))
        volc = np.full(P, pi0 * sigma)
        cons = None
        pij = np.full(P, sol.a_star)
        log_norm0 = np.asarray(sol.log_f(t1_arr), dtype=float)
        gamma = sol.gamma_M
        btilde = sol.btilde
        log_gamma = math.log(gamma)
    else:
        q0 = np.asarray(sol.q_bar_at(eta_cur), dtype=float)
        drift = fraction_drift(q0)
        volc = q0 * sigma
        log_h_cur = np.log(np.asarray(sol.h_at(eta_cur), dtype=float))
        cons = np.exp(-log_h_cur / R)
        pij = q0
        log_norm0 = log_h_cur.copy()

    streams = _StreamEval(stream, p, eta0, scen)
    kind = streams.kind
    level = streams.stream.level if kind == "constant" else 0.0

    def deflator_subset(t, idx, s_to_jump=None):
        logy = -rho * np.asarray(t, dtype=float) - R * x[idx]
        if timing:
            s = (t_next[idx] - t) if s_to_jump is None else s_to_jump
            logy = logy + sol.log_f(s) - log_norm0[idx]
        elif signal:
            logy = logy + log_h_cur[idx] - log_norm0[idx]
        return np.exp(logy)

    checkpoints_out = (np.empty((P, len(checkpoint_cols))) if checkpoint_cols
                       else None)
    records_out = [] if record else None

    y0 = deflator_subset(0.0, slice(None))
    zero_vec = np.zeros(P)
    if kind is None:
        i_prev = zero_vec
    else:
        i_prev = np.asarray(y0 * streams.values(0.0, jcount, None, eta_cur),
                            dtype=float) * np.ones(P)
    if record:
        records_out.append((0.0, False, float(x[0]), float(y0[0])))
    if checkpoint_cols and 0 in checkpoint_cols:
        checkpoints_out[:, checkpoint_cols[0]] = y0

    n_steps = len(nodes) - 1
    steps_dt = np.diff(nodes)
    pool = _RngPool()

    # timing: u = exp(-gamma (t_next - t)) maintained multiplicatively;
    # L = log1p(-btilde u) feeds both the consumption integral and the deflator
    if timing:
        u_vec = np.exp(-gamma * np.maximum(t_next, 0.0))
        L_cur = np.log1p(-btilde * u_vec)
        L_new = np.empty(P)
    buf_t = np.empty(P)
    buf_ly = np.empty(P)
    buf_y = np.empty(P)
    buf_i_a = np.empty(P)
    buf_i_b = np.empty(P)
    buf_s = np.empty(P)

    z_rows = None
    for k in range(n_steps):
        blk, off = divmod(k, _BLOCK_STEPS)
        if off == 0:
            width = min(_BLOCK_STEPS, n_steps - k)
            if z_rows is None:
                z_rows = np.empty((P, _BLOCK_STEPS))
            for i, pid in enumerate(path_ids):
                gen = pool.get_block(cfg.seed, int(pid), _PURPOSE_STEPNORM, blk)
                z_rows[i, :width] = gen.standard_normal(width)
            # transpose once so each step reads a contiguous row
            z_block = np.ascontiguousarray(z_rows[:, :width].T)
        t_lo = float(nodes[k])
        t_hi = float(nodes[k + 1])
        dt_k = float(steps_dt[k])
        sqdt_k = math.sqrt(dt_k)

        # --- jumps inside this step, processed in waves by time order ------
        lo_ev, hi_ev = int(ev_ptr[k]), int(ev_ptr[k + 1])
        touched = None
        if hi_ev > lo_ev:
            rows_all = ev_row[lo_ev:hi_ev]
            touched = np.unique(rows_all)
            cur_t = np.full(len(touched), t_lo)
            pending = np.arange(lo_ev, hi_ev)
            while pending.size:
                # events are time-sorted within the step, so the first
                # occurrence per path is that path's earliest pending jump
                _, first_pos = np.unique(ev_row[pending], return_index=True)
                sel = pending[first_pos]
                if len(sel) == pending.size:
                    pending = pending[:0]
                else:
                    mask = np.ones(pending.size, dtype=bool)
                    mask[first_pos] = False
                    pending = pending[mask]
                idx = ev_row[sel]
                pos = np.searchsorted(touched, idx)
                tau = ev_time[sel]
                flat = ev_flat[sel]
                z = ev_z[sel]
                d = tau - cur_t[pos]
                if timing:
                    cint = sol.consumption_integral(tau, cur_t[pos], tau)
                else:
                    cint = cons[idx] * d
                x[idx] += drift[idx] * d - cint + volc[idx] * np.sqrt(d) * z
                y_left = (deflator_subset(tau, idx, s_to_jump=0.0) if timing
                          else deflator_subset(tau, idx))
                if kind is not None:
                    e_left = streams.values(tau, jcount, idx, eta_cur)
                    acc[idx] += 0.5 * (i_prev[idx] + y_left * e_left) * d
                # the jump itself, with exposure keyed to this jump's signal
                xi = js_flat[flat]
                x[idx] += np.log1p(pij[idx] * np.expm1(xi))
                jcount[idx] += 1
                t_next[idx] = jt_flat[flat + 1]
                if signal:
                    eta_new = sg_flat[flat + 1]
                    eta_cur[idx] = eta_new
                    lh = np.log(np.asarray(sol.h_at(eta_new), dtype=float))
                    log_h_cur[idx] = lh
                    cons[idx] = np.exp(-lh / R)
                    q_new = np.asarray(sol.q_bar_at(eta_new), dtype=float)
                    drift[idx] = fraction_drift(q_new)
                    volc[idx] = q_new * sigma
                    pij[idx] = q_new
                y_right = deflator_subset(tau, idx)
                if kind is not None:
                    e_right = streams.values(tau, jcount, idx, eta_cur)
                    i_prev[idx] = y_right * e_right
                cur_t[pos] = tau
                if record:
                    records_out.append((float(tau[0]), True, float(x[0]),
                                        float(y_right[0])))

        # --- remainder of the step: uniform update, then fix touched rows --
        zcol = z_block[off]
        if touched is not None:
            saved_x = x[touched].copy()
            saved_ip = i_prev[touched].copy()
        if timing:
            np.multiply(u_vec, math.exp(gamma * dt_k), out=u_vec)
            if touched is not None:
                u_vec[touched] = np.exp(-gamma * (t_next[touched] - t_hi))
            np.multiply(u_vec, -btilde, out=buf_t)
            np.log1p(buf_t, out=L_new)
            # consumption integral over the step is gamma dt + L_cur - L_new,
            # so x += (drift - gamma) dt + (L_new - L_cur) + volc sqdt z
            np.multiply(zcol, volc[0] * sqdt_k, out=buf_t)
            buf_t += (drift[0] - gamma) * dt_k
            buf_t += L_new
            buf_t -= L_cur
            x += buf_t
            L_cur, L_new = L_new, L_cur
        elif signal:
            np.multiply(zcol, volc, out=buf_t)
            buf_t *= sqdt_k
            x += buf_t
            x += (drift - cons) * dt_k
        else:
            np.multiply(zcol, volc[0] * sqdt_k, out=buf_t)
            buf_t += (drift[0] - cons[0]) * dt_k
            x += buf_t
        if touched is not None:
            rows = touched
            d_fix = t_hi - cur_t
            if timing:
                cint_fix = sol.consumption_integral(t_next[rows], cur_t, t_hi)
            else:
                cint_fix = cons[rows] * d_fix
            x[rows] = (saved_x + drift[rows] * d_fix - cint_fix
                       + volc[rows] * np.sqrt(d_fix) * zcol[rows])

        # deflator and trapezoid at the node
        np.multiply(x, -R, out=buf_ly)
        buf_ly -= rho * t_hi
        if timing:
            np.multiply(L_cur, R, out=buf_t)
            buf_ly += buf_t
            buf_ly -= R * log_gamma
            buf_ly -= log_norm0
        elif signal:
            buf_ly += log_h_cur
            buf_ly -= log_norm0
        np.exp(buf_ly, out=buf_y)
        y = buf_y
        if kind is None:
            i_new = zero_vec
        elif kind == "constant":
            # alternate output buffers so i_prev survives into the next step
            i_buf = buf_i_a if (k & 1) == 0 else buf_i_b
            np.multiply(y, level, out=i_buf)
            i_new = i_buf
        else:
            i_new = y * streams.values(t_hi, jcount, None, eta_cur)
        np.add(i_prev, i_new, out=buf_s)
        buf_s *= 0.5 * dt_k
        acc += buf_s
        if touched is not None:
            # touched rows integrate only from their last jump to the node
            d_fix = t_hi - cur_t
            acc[touched] += 0.5 * (saved_ip + i_new[touched]) * (d_fix - dt_k)
        i_prev = i_new
        if checkpoint_cols and (k + 1) in checkpoint_cols:
            checkpoints_out[:, checkpoint_cols[k + 1]] = y
        if record:
            records_out.append((t_hi, False, float(x[0]), float(y[0])))
        if (k + 1) % 512 == 0 and not np.all(np.isfinite(x)):
            raise SimulationError("non-finite wealth during simulation")

    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(acc))):
        raise SimulationError("non-finite state at the end of simulation")
    state = {"x": x, "t1": t1_arr, "eta0": eta0, "eta_cur": eta_cur,
             "jcount": jcount, "t_next": t_next}
    return acc, checkpoints_out, records_out, scen, state


def _grid_nodes(cfg: SimConfig) -> np.ndarray:
    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    return np.linspace(0.0, cfg.horizon, n_steps + 1)


def path_integrals(p: ModelParams, sol, cfg: SimConfig, stream: IncomeStream,
                   pin_t1: float | None = None, pin_eta0: float | None = None,
                   chunk_paths: int = DEFAULT_CHUNK_PATHS,
                   path_offset: int = 0,
                   n_paths: int | None = None) -> np.ndarray:
    """Per-path values of the pricing integral of deflator times stream.

    The trapezoid runs on the composite grid (regular nodes plus jump times,
    with left/right limits at jumps). The result is indexed by path and is
    independent of chunking.
    """
    total = cfg.n_paths if n_paths is None else n_paths
    nodes = _grid_nodes(cfg)
    out = np.empty(total)
    done = 0
    while done < total:
        count = min(chunk_paths, total - done)
        ids = np.arange(path_offset + done, path_offset + done + count)
        acc, _, _, _, _ = _run_chunk(p, sol, cfg, nodes, ids, stream,
                                     pin_t1, pin_eta0, None, False)
        out[done:done + count] = acc
        done += count
    return out


def deflator_at_times(p: ModelParams, sol, cfg: SimConfig,
                      times: Sequence[float],
                      pin_t1: float | None = None,
                      pin_eta0: float | None = None,
                      chunk_paths: int = DEFAULT_CHUNK_PATHS) -> np.ndarray:
    """Exact-in-distribution deflator samples at the requested times.

    Steps jump-to-jump between checkpoints (the exact scheme has no
    discretization bias), returning an (n_paths, len(times)) array.
    """
    times = np.asarray(sorted({float(t) for t in times}))
    if times[0] < 0 or times[-1] > cfg.horizon:
        raise ValueError("checkpoint times must lie in [0, horizon]")
    nodes = np.unique(np.concatenate(([0.0, cfg.horizon], times)))
    cols = {int(np.searchsorted(nodes, t)): j for j, t in enumerate(times)}
    out = np.empty((cfg.n_paths, len(times)))
    done = 0
    while done < cfg.n_paths:
        count = min(chunk_paths, cfg.n_paths - done)
        ids = np.arange(done, done + count)
        _, chk, _, _, _ = _run_chunk(p, sol, cfg, nodes, ids, None,
                                     pin_t1, pin_eta0, cols, False)
        out[done:done + count] = chk
        done += count
    return out


def simulate_path(p: ModelParams, sol, cfg: SimConfig, path_index: int,
                  pin_t1: float | None = None,
                  pin_eta0: float | None = None,
                  wealth_scale: float = 1.0) -> PathRecord:
    """Full record of a single path on its composite grid."""
    nodes = _grid_nodes(cfg)
    ids = np.array([path_index])
    _, _, records, scen, state = _run_chunk(p, sol, cfg, nodes, ids, None,
                                            pin_t1, pin_eta0, None, True)
    jt_flat, js_flat, sg_flat, _ = scen
    w0 = initial_wealth(cfg.regime, sol, p, t1=float(state["t1"][0]),
                        eta0=float(state["eta0"][0])) * wealth_scale
    grid = np.array([row[0] for row in records])
    is_jump = np.array([row[1] for row in records])
    x_path = np.array([row[2] for row in records])
    deflator = np.array([row[3] for row in records])
    # keep the post-jump value where a jump coincides with a grid node
    keep = np.ones(len(grid), dtype=bool)
    keep[:-1] = grid[:-1] != grid[1:]
    return PathRecord(
        grid=grid[keep],
        wealth=w0 * np.exp(x_path[keep]),
        deflator=deflator[keep],
        is_jump=is_jump[keep],
        jump_times=jt_flat,
        jump_sizes=js_flat,
        signals=sg_flat,
    )


def write_path_dump(path: str, p: ModelParams, sol, cfg: SimConfig,
                    max_paths: int | None = None) -> None:
    """Tab-delimited dump: one row per grid node per path."""
    n = cfg.n_paths if max_paths is None else min(max_paths, cfg.n_paths)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path_index\tt\twealth\tdeflator\tis_jump\n")
        for i in range(n):
            rec = simulate_path(p, sol, cfg, i)
            for t, w, y, j in zip(rec.grid, rec.wealth, rec.deflator, rec.is_jump):
                fh.write(f"{i}\t{t!r}\t{w!r}\t{y!r}\t{int(j)}\n")
