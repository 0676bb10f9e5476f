"""Scenario generation and exact path simulation for all four regimes.

Between jumps the optimal wealth of every agent follows a geometric SDE with
a constant (or, for the timing insider, deterministically time-varying)
proportional consumption rate, so each step is advanced by the exact strong
solution; the only discretization in the whole engine is the trapezoid used
by the pricing integral. Jump times are explicit integration nodes, so
integrands that jump are captured with left/right limits. The integrand is
the deflator times the `values` of one of the three streams of `model`.

Randomness is counter-based and keyed per path: path `i` of a run with seed
`s` draws from four independent Philox streams keyed by (s, 4 i + purpose),

    purpose 0  exponential inter-jump gaps, drawn in blocks of 16
    purpose 1  jump sizes and signal noises, interleaved per jump
    purpose 2  one normal per in-horizon jump (the pre-jump sub-step)
    purpose 3  one normal per grid interval (the remainder of the step)

so per-path output is reproducible regardless of chunking, worker count, or
which other paths run. The step normals come in blocks of 2048 steps, block
b drawn from the purpose-3 stream with counter word 2 set to b. Pinning the
first jump time or the first signal consumes the same draws and replaces the
value, which keeps the rest of the scenario common between conditional and
unconditional runs.

The engine advances tiles of at most 256 paths over 2048-step blocks with
array passes. A tile's set-up calls the generators per path (one reusable
Philox per purpose and thread, re-keyed from Python ints) and draws
straight into (paths, jumps) arrays; the times, counts, sizes, signals and
padding are then one pass over the tile, and draw_scenario is its one-path
case. A path's controls are constant between its jumps, so they are
(paths, segments) tables gathered at each node by the jump count before it.
Log-wealth at the nodes is one cumsum of exact increments and the deflator
one exp. The tile's in-horizon jumps (events) are handled at once: a grid
cell with jumps takes as its increment their sub-steps (on the jump
normals) and log1p(pi expm1(xi)) terms plus the remainder after its last
jump (on the cell's step normal). The trapezoid is a weighted row sum with
each jump cell's term replaced by its sub-intervals, from each right limit
to the next left limit.

Each call of path_integrals, deflator_at_times or simulate_path has one
workspace, and every (paths, nodes) array of its block passes is written
into it with out=: log-wealth, the deflator, the segment index, the
gathered controls, the jump counts and the stream's values and mask. A
short last tile or block takes a contiguous view of the same buffers, so a
call (a forked worker's job) faults its pages in once, not once per tile,
and the arrays of a _Block are valid only until the next block.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .agents import REGIMES, deflator, posterior_of_jump
from .errors import SimulationError
from .model import (
    Conditioning,
    IncomeStream,
    ModelParams,
    PostFirstJumpSignalStream,
    require_stream,
)

__all__ = [
    "SimConfig",
    "PathRecord",
    "path_rng",
    "draw_scenario",
    "simulate_path",
    "path_integrals",
    "deflator_at_times",
]

_GAP_BLOCK = 16
_PURPOSE_GAPS = 0
_PURPOSE_MARKS = 1
_PURPOSE_JUMPNORM = 2
_PURPOSE_STEPNORM = 3

_BLOCK_STEPS = 2048
_TILE_PATHS = 256


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
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if not 0.0 < self.dt <= self.horizon:
            raise ValueError("need 0 < dt <= horizon")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.regime not in REGIMES:
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
    return np.array([seed, (4 * path_index + purpose) % 2**64], dtype=np.uint64)


def path_rng(seed: int, path_index: int, purpose: int) -> np.random.Generator:
    """Counter-based generator for one (path, purpose) pair."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, path_index, purpose)))


class _RngPool(threading.local):
    """Reusable Philox generators, one per purpose, re-keyed per path.

    get_block writes the Philox state from Python ints: key (seed,
    (4 i + purpose) mod 2^64), counter (0, 0, block, 0) and an empty buffer,
    which is the state a fresh path_rng generator starts block 0 from. The
    draws are the same as a fresh generator's, without the construction
    cost (about 20 us; each path_rng construction also pulls OS entropy).
    Purposes get separate instances, made on first use, so interleaved use
    cannot cross streams. Every draw follows its re-key at once, so the
    engine shares one pool, _POOL, which is local to each thread.
    """

    def __init__(self):
        self._gens = [None] * 4

    def get_block(self, seed: int, path_index: int, purpose: int,
                  block: int) -> np.random.Generator:
        """Stream segment at counter word 2 = block: disjoint 2^128-draw
        segments of the same keyed stream, one per step block. Block 0 is
        the start of the stream, which path_rng draws from."""
        if self._gens[purpose] is None:     # the seed is overwritten below
            self._gens[purpose] = np.random.Generator(np.random.Philox(0))
        self._gens[purpose].bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, block, 0),
                      "key": (seed, (4 * path_index + purpose) % 2**64)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._gens[purpose]


_POOL = _RngPool()


def _gap_blocks(mean: float) -> int:
    """Gap blocks of a path's first draw: the mean count plus six sd."""
    return 1 + int((mean + 6.0 * math.sqrt(mean)) // _GAP_BLOCK)


# Scenario tables of a tile, (paths, J) for the most times J of any path:
# row i holds its path's first counts[i] jump times (the last one beyond the
# horizon), their sizes and signals and counts[i] - 1 jump normals, padded
# with inf, 0, m and 0.
_Scenarios = namedtuple("_Scenarios", "times sizes signals jnorms counts")


def _scenarios(p: ModelParams, horizon: float, seed: int, ids: np.ndarray,
               pin_t1, pin_eta0) -> _Scenarios:
    """Scenario tables of paths ids; only the generator calls are per path.
    With lam = 0 every path has the one time +inf, size 0 and signal m."""
    pin = Conditioning(t1=pin_t1, eta0=pin_eta0)
    P = len(ids)
    if p.lam == 0.0:
        return _Scenarios(np.full((P, 1), math.inf), np.zeros((P, 1)),
                          np.full((P, 1), p.m), np.zeros((P, 1)),
                          np.ones(P, dtype=np.int64))
    ids = ids.tolist()
    # gaps come in blocks of 16 until one lands beyond the horizon; the
    # first _gap_blocks are drawn in one call (scaling standard draws by
    # 1/lam is exactly what exponential(1/lam) does)
    gaps = np.empty((P, _GAP_BLOCK * _gap_blocks(p.lam * horizon)))
    for row, pid in zip(gaps, ids):
        _POOL.get_block(seed, pid, _PURPOSE_GAPS, 0).standard_exponential(out=row)
    gaps *= 1.0 / p.lam
    if pin.t1 is not None:
        gaps[:, 0] = pin.t1
    times = np.cumsum(gaps, axis=1)
    longer = {}
    for i in np.flatnonzero(~(times[:, -1] > horizon)).tolist():
        gen = _POOL.get_block(seed, ids[i], _PURPOSE_GAPS, 0)
        gen.standard_exponential(gaps.shape[1])      # the draws already made
        row, t = gaps[i], times[i]
        while not t[-1] > horizon:
            row = np.append(row, gen.standard_exponential(_GAP_BLOCK) * (1.0 / p.lam))
            t = np.cumsum(row)
        longer[i] = t
    if longer:
        width = max(len(t) for t in longer.values())
        times = np.pad(times, ((0, 0), (0, width - times.shape[1])),
                       constant_values=math.inf)
        for i, t in longer.items():
            times[i, :len(t)] = t
    counts = (times <= horizon).sum(axis=1) + 1
    J = int(counts.max())
    col = np.arange(J)
    within = col < counts[:, None]
    times = np.where(within, times[:, :J], math.inf)

    ends = np.cumsum(counts)
    z, zj = np.empty(2 * int(ends[-1])), np.empty(int(ends[-1]) - P)
    for i, (pid, a, b) in enumerate(zip(ids, (ends - counts).tolist(), ends.tolist())):
        _POOL.get_block(seed, pid, _PURPOSE_MARKS, 0).standard_normal(out=z[2 * a:2 * b])
        if b - a > 1:
            _POOL.get_block(seed, pid, _PURPOSE_JUMPNORM, 0).standard_normal(
                out=zj[a - i:b - i - 1])
    sizes = p.m + math.sqrt(p.v) * z[0::2]
    signals = sizes + math.sqrt(p.v_eps) * z[1::2]
    if pin.eta0 is not None:
        m_post, v_post = posterior_of_jump(pin.eta0, p)
        first = ends - counts
        sizes[first] = m_post + math.sqrt(v_post) * z[2 * first]
        signals[first] = pin.eta0
    tables = []
    for flat, fill, mask in ((sizes, 0.0, within), (signals, p.m, within),
                             (zj, 0.0, col < counts[:, None] - 1)):
        table = np.full((P, J), fill)
        table[mask] = flat
        tables.append(table)
    return _Scenarios(times, *tables, counts)


def draw_scenario(p: ModelParams, cfg: SimConfig, path_index: int,
                  pin_t1: float | None = None,
                  pin_eta0: float | None = None):
    """Jump times, jump sizes and signals for one path.

    Returns (jump_times, jump_sizes, signals): times are the partial sums of
    Exp(lam) gaps up to and including the first one beyond the horizon; sizes
    and signals align with the times. With lam = 0 the times are a single
    +inf sentinel and the other arrays are empty. Pinned values replace the
    corresponding draw; a pinned first signal redraws the first jump size
    from its Gaussian posterior using the same underlying normal. A pin that
    Conditioning rejects raises ValueError, at lam = 0 as well.
    """
    scen = _scenarios(p, cfg.horizon, cfg.seed, np.array([path_index]), pin_t1, pin_eta0)
    if p.lam == 0.0:
        return np.array([math.inf]), np.array([]), np.array([])
    return scen.times[0], scen.sizes[0], scen.signals[0]


def _check_regime(regime: str, sol) -> None:
    if getattr(sol, "regime", None) != regime:
        raise TypeError(f"regime {regime!r} needs its own solution, "
                        f"got {type(sol).__name__}")


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

# One tile over one step block: node times (column 0 repeats the last block's
# end), log-wealth and deflator there, the flat segment index at each node
# (None if not needed), the block's events (indices into the tile's event
# arrays), log-wealth at their cells' left nodes and the deflator at both
# limits of each jump. x, y and seg live in the call's workspace, which the
# next block overwrites.
_Block = namedtuple("_Block", "k0 t x y seg ev x_cell y_left y_right")


class _Workspace:
    """The (paths, nodes) arrays of one engine call, one flat buffer per
    name. A request is a contiguous view of a buffer's first elements, made
    on first use and grown when a request is larger, so the tiles and
    blocks of the call write into the same pages. Every engine call makes
    its own, so calls on other threads share nothing."""

    def __init__(self):
        self._bufs = {}

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _at(table, idx, out=None):
    """A per-segment table at flat segment indices (a scalar passes). The
    indices are in range, where mode "clip" takes the elements "raise"
    does; "raise" would write out through a fresh copy of it."""
    return table if np.ndim(table) == 0 else np.take(table, idx, out=out, mode="clip")


def _on_cells(table, seg, scale, out):
    """A per-segment table on each cell (its left node's segment) times
    scale, a view of out (paths, nodes)."""
    if np.ndim(table) == 0:
        return table * scale
    cells = _at(table, seg, out)[:, :-1]     # take() is slow with a view as index
    cells *= scale
    return cells


class _Tile:
    """One tile of paths: scenario, per-segment controls and jump events.

    Tables are (paths, J) for the tile's most segments J, so row * J + s is
    the flat index of segment s. Event arrays hold the in-horizon jumps.
    """

    def __init__(self, p: ModelParams, sol, cfg: SimConfig, nodes: np.ndarray,
                 ids: np.ndarray, pin_t1, pin_eta0):
        regime = cfg.regime
        _check_regime(regime, sol)
        self.p, self.seed, self.nodes, self.ids = p, cfg.seed, nodes, ids
        self.scen = _scenarios(p, cfg.horizon, cfg.seed, ids, pin_t1, pin_eta0)
        times, sizes, signals, jnorms, counts = self.scen
        P, J = times.shape
        self.eta0 = signals[:, 0].copy()
        self.row0 = np.arange(P) * J

        self.timing = regime == "timing"
        self.lh = 0.0   # signal: log h(eta_s) - log h(eta_0)
        if regime == "uninformed":
            pi0 = self.pij = sol.q_bar1
            self.cons = sol.A1 ** (-1.0 / p.R)
        elif regime == "merton":
            pi0, self.pij, self.cons = sol.merton_fraction, 0.0, sol.gamma_M_merton
        elif self.timing:
            pi0, self.pij = p.merton_fraction, sol.a_star
            self.tnext, self.gamma, self.btilde = times, sol.gamma_M, sol.btilde
            self.L0 = self.log_term(times[:, 0], 0.0)
        else:
            pi0 = self.pij = np.asarray(sol.q_bar_at(signals), dtype=float)
            log_h = np.log(np.asarray(sol.h_at(signals), dtype=float))
            self.cons = np.exp(-log_h / p.R)
            self.lh = log_h - log_h[:, :1]
        self.drift = p.r + pi0 * (p.mu - p.r) - 0.5 * pi0 * pi0 * p.sigma**2
        self.volc = pi0 * p.sigma
        # log-wealth drift net of consumption (for the timing insider, net of
        # gamma; the rest of its consumption integral is a difference of L)
        self.net = self.drift - (self.gamma if self.timing else self.cons)
        self.segmented = self.timing or np.ndim(self.net) > 0

        # events: all of a jump that does not need the step normals
        er, ej = np.nonzero((np.arange(J) < counts[:, None] - 1) & (regime != "merton"))
        fe = er * J + ej
        tau = times.ravel()[fe]
        cell = np.clip(np.searchsorted(nodes, tau) - 1, 0, len(nodes) - 2)
        first = np.ones(len(er), dtype=bool)
        first[1:] = (er[1:] != er[:-1]) | (cell[1:] != cell[:-1])
        last = np.ones_like(first)
        last[:-1] = first[1:]
        prev = nodes[cell]
        prev[~first] = tau[np.flatnonzero(~first) - 1]
        d = tau - prev
        cint = (sol.consumption_integral(tau, prev, tau) if self.timing
                else _at(self.cons, fe) * d)
        sub = (_at(self.drift, fe) * d - cint
               + _at(self.volc, fe) * np.sqrt(d) * jnorms.ravel()[fe])
        total = sub + np.log1p(_at(self.pij, fe) * np.expm1(sizes.ravel()[fe]))
        # log-wealth from the cell's left node to both limits of each jump:
        # a per-path cumsum, differenced at the cell's first jump
        csum = np.zeros((P, J + 1))
        csum[er, ej + 1] = total
        np.cumsum(csum, axis=1, out=csum)
        first_of_cell = np.maximum.accumulate(np.where(first, np.arange(len(er)), 0))
        base = csum[er, ej[first_of_cell]]
        self.pre = csum[er, ej] - base + sub
        self.post = csum[er, ej + 1] - base
        # the remainder of a cell after its last jump, less its step-normal term
        self.d_rem, self.rem, self.rem_vol = np.zeros((3, len(er)))
        li, nxt = np.flatnonzero(last), fe[last] + 1
        t_hi = nodes[cell[li] + 1]
        self.d_rem[li] = t_hi - tau[li]
        cint = (sol.consumption_integral(times.ravel()[nxt], tau[li], t_hi)
                if self.timing else _at(self.cons, nxt) * self.d_rem[li])
        self.rem[li] = _at(self.drift, nxt) * self.d_rem[li] - cint
        self.rem_vol[li] = _at(self.volc, nxt) * np.sqrt(self.d_rem[li])
        self.er, self.ej, self.tau, self.cell = er, ej, tau, cell
        self.first, self.last, self.d = first, last, d
        self.c_left = self.log_regime(fe, tau, er) - p.rho * tau
        self.c_right = self.log_regime(fe + 1, tau, er) - p.rho * tau

    def log_term(self, t_next, t, out=None):
        """Timing: L = log1p(-btilde e^(-gamma (t_next - t))), which enters
        both the consumption integral and log f(t_next - t)."""
        u = np.subtract(t_next, t, out=out)
        np.exp(np.multiply(u, -self.gamma, out=u), out=u)
        return np.log1p(np.multiply(u, -self.btilde, out=u), out=u)

    def log_regime(self, seg, t, rows, L=None):
        """The regime's factor of log Y less its value at time 0: R (L - L_0)
        for the timing insider, log h(eta) - log h(eta_0) for the signal one.
        A given L is spent: the timing insider's log_term at seg, or the
        signal insider's buffer for the gather."""
        if not self.timing:
            return _at(self.lh, seg, L)
        if L is None:
            L = self.log_term(np.take(self.tnext, seg), t)
        L -= self.L0[rows]      # in place: a given L is spent
        L *= self.p.R
        return L

    def blocks(self, ws: _Workspace, counts: bool = False):
        """The tile's _Block for each step block in time order, its
        (paths, nodes) arrays in ws and so valid until the next block;
        `counts` asks for the node segments where the controls do not need
        them."""
        p, nodes, P = self.p, self.nodes, len(self.ids)
        x0, seg0 = np.zeros(P), self.row0
        for blk, k0 in enumerate(range(0, len(nodes) - 1, _BLOCK_STEPS)):
            t = nodes[k0:k0 + _BLOCK_STEPS + 1]
            W, dt = len(t) - 1, np.diff(t)
            shape = (P, W + 1)
            ev = np.flatnonzero((self.cell >= k0) & (self.cell < k0 + W))
            er, ec, last = self.er[ev], self.cell[ev] - k0, self.last[ev]
            lr, lc = er[last], ec[last]
            seg = None
            if self.segmented or counts:
                seg = ws("seg", shape, np.int64)
                seg.fill(0)
                np.add.at(seg, (er, ec + 1), 1)
                seg[:, 0] += seg0
                np.cumsum(seg, axis=1, out=seg)
                seg0 = seg[:, -1].copy()

            x = ws("x", shape)
            x[:, 0] = x0
            inc = x[:, 1:]
            for i, pid in enumerate(self.ids.tolist()):
                _POOL.get_block(self.seed, pid, _PURPOSE_STEPNORM,
                                blk).standard_normal(out=inc[i])
            z_last = inc[lr, lc]
            # one buffer for the gathers, each spent before the next is made
            gather = ws("gather", shape)
            inc *= _on_cells(self.volc, seg, np.sqrt(dt), gather)
            inc += _on_cells(self.net, seg, dt, gather)
            L = gather if self.segmented else None
            if self.timing:
                self.log_term(_at(self.tnext, seg, L), t, out=L)
                inc += L[:, 1:]
                inc -= L[:, :-1]
            last = ev[last]
            inc[lr, lc] = self.post[last] + self.rem[last] + self.rem_vol[last] * z_last
            np.cumsum(x, axis=1, out=x)
            x0 = x[:, -1].copy()
            if not np.all(np.isfinite(x0)):
                raise SimulationError("non-finite wealth during simulation")
            y = np.multiply(x, -p.R, out=ws("y", shape))
            y -= p.rho * t
            if self.segmented:
                y += self.log_regime(seg, t, np.s_[:, None], L)
            np.exp(y, out=y)
            x_cell = x[er, ec]
            yield _Block(k0, t, x, y, seg, ev, x_cell,
                         np.exp(self.c_left[ev] - p.R * (x_cell + self.pre[ev])),
                         np.exp(self.c_right[ev] - p.R * (x_cell + self.post[ev])))

    def integrals(self, stream: IncomeStream, ws: _Workspace) -> np.ndarray:
        """Composite-grid trapezoid of deflator times stream, per path: node
        weights times the integrand, plus, in each jump cell, its sum over
        sub-intervals less its regular term."""
        r, keyed = self.p.r, stream.jump_keyed
        psi0 = np.zeros(len(self.ids))     # read by the post-jump stream alone
        if isinstance(stream, PostFirstJumpSignalStream):
            psi0 = stream.psi_at(self.eta0)
        acc = np.zeros(len(self.ids))
        for b in self.blocks(ws, counts=keyed):
            node_i, jc, out = b.y, None, None
            if keyed:
                # the block's seg and gathers are spent: they take the jump
                # counts and the values
                jc = b.seg
                jc -= self.row0[:, None]
                out = ws("gather", jc.shape), ws("mask", jc.shape, bool)
            node_i *= stream.values(r, b.t, jc, psi0[:, None], out)
            half = 0.5 * np.diff(b.t)
            if b.ev.size:
                ev = b.ev
                er, ec, tau = self.er[ev], self.cell[ev] - b.k0, self.tau[ev]
                first, last = self.first[ev], self.last[ev]
                psi_ev = psi0[er]
                i_left = b.y_left * stream.values(r, tau, self.ej[ev], psi_ev)
                i_right = b.y_right * stream.values(r, tau, self.ej[ev] + 1, psi_ev)
                start = np.where(first, node_i[er, ec], np.roll(i_right, 1))
                lr, lc = er[last], ec[last]
                lo, hi = node_i[lr, lc], node_i[lr, lc + 1]
                cell = (np.add.reduceat((start + i_left) * (0.5 * self.d[ev]),
                                        np.flatnonzero(first))
                        + (i_right[last] + hi) * (0.5 * self.d_rem[ev][last])
                        - (lo + hi) * half[lc])
                acc += np.bincount(lr, weights=cell, minlength=len(acc))
            weights = np.append(half, 0.0)
            weights[1:] += half
            node_i *= weights
            acc += node_i.sum(axis=1)
        if not np.all(np.isfinite(acc)):
            raise SimulationError("non-finite state at the end of simulation")
        return acc


def _tiles(p: ModelParams, sol, cfg: SimConfig, nodes: np.ndarray, start: int,
           count: int, pin_t1, pin_eta0):
    """(offset, _Tile) over paths start .. start + count, _TILE_PATHS a tile."""
    for lo in range(0, count, _TILE_PATHS):
        ids = np.arange(start + lo, start + min(lo + _TILE_PATHS, count))
        yield lo, _Tile(p, sol, cfg, nodes, ids, pin_t1, pin_eta0)


def _grid_nodes(cfg: SimConfig) -> np.ndarray:
    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    return np.linspace(0.0, cfg.horizon, n_steps + 1)


def path_integrals(p: ModelParams, sol, cfg: SimConfig, stream: IncomeStream,
                   pin_t1: float | None = None, pin_eta0: float | None = None,
                   path_offset: int = 0,
                   n_paths: int | None = None) -> np.ndarray:
    """Per-path values of the pricing integral of deflator times stream.

    The trapezoid runs on the composite grid (regular nodes plus jump times,
    with left/right limits at jumps). The result holds paths path_offset ..
    path_offset + n_paths (default: all of cfg.n_paths) in order, and each
    path's value does not depend on the slice it is computed in.
    """
    require_stream(stream)
    total = cfg.n_paths if n_paths is None else n_paths
    out, ws = np.empty(total), _Workspace()
    for lo, tile in _tiles(p, sol, cfg, _grid_nodes(cfg), path_offset, total,
                           pin_t1, pin_eta0):
        out[lo:lo + len(tile.ids)] = tile.integrals(stream, ws)
    return out


def deflator_at_times(p: ModelParams, sol, cfg: SimConfig,
                      times: Sequence[float],
                      pin_t1: float | None = None,
                      pin_eta0: float | None = None) -> np.ndarray:
    """Exact-in-distribution deflator samples at the requested times.

    Steps jump-to-jump between checkpoints (the exact scheme has no
    discretization bias), returning an (n_paths, len(times)) array.
    """
    times = np.asarray(sorted({float(t) for t in times}))
    if times[0] < 0 or times[-1] > cfg.horizon:
        raise ValueError("checkpoint times must lie in [0, horizon]")
    nodes = np.union1d([0.0, cfg.horizon], times)
    cols = np.searchsorted(nodes, times)
    out, ws = np.empty((cfg.n_paths, len(times))), _Workspace()
    for lo, tile in _tiles(p, sol, cfg, nodes, 0, cfg.n_paths, pin_t1, pin_eta0):
        for b in tile.blocks(ws):
            here = (cols >= b.k0) & (cols < b.k0 + len(b.t))
            out[lo:lo + len(tile.ids), here] = b.y[:, cols[here] - b.k0]
    return out


def simulate_path(p: ModelParams, sol, cfg: SimConfig, path_index: int,
                  pin_t1: float | None = None,
                  pin_eta0: float | None = None) -> PathRecord:
    """Full record of a single path on its composite grid."""
    tile = _Tile(p, sol, cfg, _grid_nodes(cfg), np.array([path_index]),
                 pin_t1, pin_eta0)
    parts = [(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1, dtype=bool))]
    for b in tile.blocks(_Workspace()):
        parts.append((tile.tau[b.ev], b.x_cell + tile.post[b.ev], b.y_right,
                      np.ones(len(b.ev), dtype=bool)))
        # the next block overwrites b.x and b.y
        parts.append((b.t[1:], b.x[0, 1:].copy(), b.y[0, 1:].copy(),
                      np.zeros(len(b.t) - 1, dtype=bool)))
    # jumps come before a node at the same time; keep the later of the two
    cols = [np.concatenate(a) for a in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    order = order[np.append(np.diff(cols[0][order]) != 0.0, True)]
    grid, x_path, y, is_jump = (a[order] for a in cols)
    times, sizes, signals = (a[0] for a in tile.scen[:3])
    # the wealth at which the density starts at 1
    w0 = deflator(sol, p, 0.0, 1.0, next_jump=float(times[0]),
                  signal=float(tile.eta0[0])) ** (1.0 / p.R)
    return PathRecord(grid=grid, wealth=w0 * np.exp(x_path), deflator=y,
                      is_jump=is_jump, jump_times=times, jump_sizes=sizes,
                      signals=signals)
