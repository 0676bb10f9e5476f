"""Per-regime solutions: solved constants, policies, and state-price densities.

Four agents are supported.

* ``uninformed`` -- sees neither jump times nor sizes. Value scale A1 and
  constant exposure q_bar1 come from maximizing the jump-adjusted drift g1
  over [0, 1]; the pricing density is A1 e^(-rho t) w^(-R) along the optimal
  wealth w.
* ``timing`` -- learns, immediately after each jump, the exact time of the
  next one. Between jumps it invests the diffusion-only fraction and consumes
  at rate f(T_next - t)^(-1/R); at a jump it holds fraction a_star. f(0) is
  the root, found by Newton from below, of a renewal equation whose Exp(lam)
  average of f is Euler's integral for a Gauss hypergeometric function
  (DLMF 15.6.1), summed on a 32-node Gauss-Jacobi rule; every solution has
  gamma_M > 0.
* ``signal`` -- observes eta = xi + eps, a noisy read of the next jump's
  size. Its value scale h(eta) and average A3 solve a coupled system on an
  eta grid; exposure q_bar(eta) maximizes the jump-adjusted objective
  pointwise in the signal. By the envelope theorem the h-equation's slope is
  phi1(q_bar) - h^(-1/R) (times 1 - 1/R), so all grid signals are solved
  together by one batched Newton iteration in h. h and q_bar between grid
  signals come from _MonotoneCubic, a PCHIP interpolant (Fritsch-Butland
  slopes) on the evenly spaced grid.
* ``merton`` -- the jump-free diffusion benchmark with closed-form constants.

Every exposure maximizes h phi1(q) + lam_a3 phi2(q; row) over [0, 1]: q_bar
with h(eta), lam A3 and the posterior given eta; q_bar1 with h = 1, lam and
the prior N(m, v) (g1 up to a constant); a_star with h = 0, 1 and the prior
(g(a)/(1 - R)). CRRA utility makes this objective concave in q for every
R > 0, so one kernel, _argmax_exposure, solves all three. Its corner tests
F(0) <= 0 and F(1) >= 0 on the slope F are closed forms: at q = 0 and at
q = 1 the jump term is a lognormal moment of the row's Gaussian jump law.
signal_terms gives the signal insider's per-signal (q*, h, beta, kappa)
that pricing uses.

The four state-price densities share one form, Y_t = s e^(-rho t) w^(-R)
along the agent's optimal wealth w, and differ only in the value scale s:
A1, A_M, f(T_next - t) or h(eta_t). log_scale gives log s for any
solution. Since the optimal consumption is c = s^(-1/R) w, Y_t is
also e^(-rho t) (c_t/c_0)^(-R) along a path started at w = s^(1/R).

Each solved object is immutable, and its class attribute `regime` names its
slot in RegimeSolutions; evaluation helpers are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    GateError,
    IllPosedError,
)
from .model import ModelParams, require_valid_params
from .quadrature import QuadratureRule, g_of_q, gauss_jacobi

__all__ = [
    "UninformedSolution",
    "TimingInsiderSolution",
    "SignalInsiderSolution",
    "MertonSolution",
    "RegimeSolutions",
    "g1_of_q",
    "solve_uninformed",
    "solve_merton",
    "solve_timing_insider",
    "posterior_of_jump",
    "solve_signal_insider",
    "q_bar_signal",
    "signal_terms",
    "log_scale",
    "solve_all",
    "REGIMES",
]

REGIMES = ("merton", "uninformed", "timing", "signal")

# Maximizers closer than this to {0, 1} count as boundary solutions.
INTERIOR_TOL = 1e-6


# ---------------------------------------------------------------------------
# Uninformed agent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UninformedSolution:
    """Constants of the no-information regime."""

    regime: ClassVar[str] = "uninformed"
    q_bar1: float          # optimal risky fraction, interior in (0, 1)
    A1: float              # value scale: u(x) = A1 U(x)
    alpha: float           # drift of e^{rt} * deflator conditional on no jump
    g1_at_opt: float       # g1(q_bar1)


def g1_of_q(q: float, p: ModelParams, rule: QuadratureRule) -> float:
    """Jump-adjusted drift objective the uninformed agent maximizes."""
    jump_term = p.lam * (g_of_q(q, p, rule) - 1.0) / (1.0 - p.R)
    return (
        p.r + q * (p.mu - p.r) - 0.5 * p.sigma**2 * p.R * q * q + jump_term
    )


def solve_uninformed(p: ModelParams, rule: QuadratureRule) -> UninformedSolution:
    """Solve the no-information regime.

    Raises BoundaryOptimumError if the maximizer of g1 is within 1e-6 of
    {0, 1} (the construction needs an interior first-order condition) and
    IllPosedError if rho + (R-1) g1(q_bar1) <= 0.
    """
    require_valid_params(p)
    q_bar = _prior_exposure(1.0, p.lam, p, rule)
    if q_bar < INTERIOR_TOL or q_bar > 1.0 - INTERIOR_TOL:
        raise BoundaryOptimumError(
            f"optimal exposure q_bar1={q_bar:.3g} is on the boundary of [0, 1]; "
            "the no-information construction requires an interior maximizer")
    g1_opt = g1_of_q(q_bar, p, rule)
    denom = p.rho + (p.R - 1.0) * g1_opt
    if denom <= 0.0:
        raise IllPosedError(
            f"rho + (R-1) g1(q_bar1) = {denom:.6g} <= 0: value function undefined")
    a1 = (p.R / denom) ** p.R
    return UninformedSolution(q_bar1=q_bar, A1=a1, alpha=_pre_jump_rate(q_bar, a1, p),
                              g1_at_opt=g1_opt)


def _pre_jump_rate(q: float, scale: float, p: ModelParams) -> float:
    """Drift of e^(rt) times the deflator between jumps at exposure q and
    value scale A1 (the uninformed alpha) or h(eta0) (the signal beta):
    r - rho + R(-r - q (mu-r) + scale^(-1/R) + (R+1) sigma^2 q^2 / 2)."""
    return p.r - p.rho + p.R * (
        -p.r - q * (p.mu - p.r) + scale ** (-1.0 / p.R)
        + 0.5 * (p.R + 1.0) * p.sigma**2 * q * q)


# ---------------------------------------------------------------------------
# Merton (jump-free) benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MertonSolution:
    regime: ClassVar[str] = "merton"
    A_M: float
    kappa: float                # market price of risk (mu - r)/sigma
    gamma_M_merton: float       # consumption rate gamma_M = A_M^(-1/R)
    merton_fraction: float      # (mu - r)/(sigma^2 R)


def _merton_rate(p: ModelParams) -> float:
    """gamma_M = (rho + (R-1)(r + (mu-r)^2/(2 sigma^2 R)))/R, the Merton
    consumption rate, which the timing insider consumes at between jumps."""
    return (p.rho + (p.R - 1.0) * (p.r + (p.mu - p.r) ** 2
                                   / (2.0 * p.R * p.sigma**2))) / p.R


def solve_merton(p: ModelParams) -> MertonSolution:
    """Closed-form diffusion-only benchmark constants."""
    require_valid_params(p)
    kappa = (p.mu - p.r) / p.sigma
    denom = p.rho + (p.R - 1.0) * (p.r + kappa**2 / (2.0 * p.R))
    if denom <= 0.0:
        raise IllPosedError(
            f"rho + (R-1)(r + kappa^2/(2R)) = {denom:.6g} <= 0: "
            "diffusion-only value function undefined")
    return MertonSolution(A_M=(p.R / denom) ** p.R, kappa=kappa,
                          gamma_M_merton=_merton_rate(p),
                          merton_fraction=p.merton_fraction)


# ---------------------------------------------------------------------------
# Timing insider (knows the time of the next jump)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingInsiderSolution:
    """Constants and the renewal function f of the jump-timing regime.

    f enters as f(time to next jump): consumption rate f(T_next - t)^(-1/R)
    and deflator factor f(T_next - t). Internally f(t)^(1/R) is affine in
    e^(-gamma_M t), which makes log f closed-form (log_scale):

        f(t)^(1/R) = (1 - btilde e^(-gamma_M t)) / gamma_M,
        btilde = 1 - gamma_M f0^(1/R).

    So between jumps the log of the optimal consumption f(T_next - t)^(-1/R)
    w moves at the drift of log-wealth less gamma_M. gamma_M > 0 for every
    solution solve_timing_insider returns, so f stays bounded and needs no
    other branch.
    """

    regime: ClassVar[str] = "timing"
    a_star: float          # exposure at the jump instant
    gamma_M: float
    f0: float              # f(0), root of the renewal equation
    A2: float              # value scale: E[f(T1)] under Exp(lam)
    g_at_a_star: float
    R: float = field(repr=False)

    @property
    def c0(self) -> float:
        """f0^(1/R), the consumption-rate reciprocal right before a jump."""
        return self.f0 ** (1.0 / self.R)

    @property
    def btilde(self) -> float:
        return 1.0 - self.gamma_M * self.c0


def _renewal_excess(gamma: float, c0: float, R: float, tail: np.ndarray,
                    probs: np.ndarray) -> tuple[float, float]:
    """E[f(T)]/f(0) - 1 for T ~ Exp(lam) and f(s)^(1/R) = (1 - btilde
    e^(-gamma s))/gamma, gamma > 0, f(0) = c0^R, and its derivative in
    log f(0).

    Substituting t = e^(-gamma s) turns E[f(T)] into Euler's integral (DLMF
    15.6.1), gamma^(-R) 2F1(-R, c; c + 1; btilde) with c = lam/gamma: the
    mean of gamma^(-R) (1 - btilde t)^R = f(0) (1 + (1 - t) btilde/(gamma
    c0))^R under the density c t^(c-1) on [0, 1], which the rule (nodes
    t_k, probs) = quadrature.gauss_jacobi(c) sums, given tail = 1 - t_k.
    Each node's term is taken minus 1 (expm1 of R log1p), so the excess
    keeps its relative accuracy where it is small, as it is at the renewal
    root when g(a*) is near 1.
    """
    y = gamma * c0
    log_base = np.log1p((1.0 - y) / y * tail)
    return (float(probs @ np.expm1(R * log_base)),
            -float(probs @ (np.exp((R - 1.0) * log_base) * tail)) / y)


def solve_timing_insider(p: ModelParams, rule: QuadratureRule) -> TimingInsiderSolution:
    """Solve the jump-timing regime.

    The exposure at jumps a_star maximizes g(a)/(1-R) on [0, 1]. A maximizer
    at 0 is accepted: there the jump leaves wealth unchanged and every
    renewal identity holds trivially (this happens whenever the jump
    distribution is unfavorable, e.g. m < 0 with R > 1). A maximizer at 1 is
    rejected because the first-order condition fails there and the deflator
    renewal would be inconsistent. For R < 1 the problem is ill-posed when
    lam g(a_star)/(lam + R gamma_M) >= 1.

    gamma_M > 0 on every return: R > 1 gives gamma_M > rho/R, and for R < 1
    the gate above fails whenever gamma_M <= 0 because g(a_star) >= g(0) = 1.
    f0 is the root of x = g(a_star) E[f(T)](x), T ~ Exp(lam), found by
    Newton's method in log x to a step of 1e-15. The residual is decreasing
    and convex in log x for every R > 0, so Newton climbs to the root
    monotonically from a start below it: x = gamma_M^(-R), the Merton
    scale, when g(a_star) >= 1, else the x at which Jensen's inequality
    makes the residual >= 0. An iterate that is not positive and finite,
    or 200 steps without convergence, raise ConvergenceError.
    """
    require_valid_params(p)
    a_star = _prior_exposure(0.0, 1.0, p, rule)
    if a_star < INTERIOR_TOL:
        a_star = 0.0
    # g(0) = 1 exactly, while a rule's sum can round off it (1 + 2.2e-16 at
    # order 32), an error the renewal root amplifies by about lam/gamma_M
    g_star = g_of_q(a_star, p, rule) if a_star > 0.0 else 1.0
    gamma_m = _merton_rate(p)
    if p.R < 1.0:
        gate_den = p.lam + p.R * gamma_m
        if gate_den <= 0.0 or p.lam * g_star / gate_den >= 1.0:
            raise IllPosedError(
                "ill-posed: lam g(a*)/(lam + R gamma_M) >= 1 "
                f"(= {p.lam * g_star / gate_den if gate_den > 0 else math.inf:.6g})")
    if a_star > 1.0 - INTERIOR_TOL:
        raise BoundaryOptimumError(
            f"jump exposure a*={a_star:.6g} is at the upper boundary; "
            "the renewal construction requires a* < 1")

    if p.lam == 0.0:
        f0 = gamma_m ** (-p.R)
        return TimingInsiderSolution(a_star=a_star, gamma_M=gamma_m, f0=f0,
                                     A2=f0, g_at_a_star=g_star, R=p.R)

    # c = lam/gamma_M and R stay fixed during the root search: one rule serves it
    nodes, probs = gauss_jacobi(p.lam / gamma_m)
    tail = 1.0 - nodes

    def residual(x: float) -> tuple[float, float]:
        """g(a*) E[f(T)](x)/x - 1 and its derivative in log x, with g(a*) - 1
        and the excess apart so that rounding does not blur the root where
        g(a*) is near 1."""
        excess, slope = _renewal_excess(gamma_m, x ** (1.0 / p.R), p.R, tail, probs)
        return (g_star - 1.0) + g_star * excess, g_star * slope

    # With u = 1/(gamma_M x^(1/R)) and B = t + (1 - t) u the residual is
    # g(a*) E[B^R] - 1, increasing and convex in log u (second derivative
    # R E[z B^(R-2) (t + R z)] > 0, z = (1 - t) u), so decreasing and convex
    # in log x = -R log u: Newton climbs monotonically to the root from any
    # x below it. u = 1 is below it when g(a*) >= 1; else R > 1, and by
    # Jensen (E[B^R] >= E[B]^R) the residual is >= 0 where E[B] = g(a*)^(-1/R)
    m1 = float(probs @ nodes)
    u0 = 1.0 if g_star >= 1.0 else (g_star ** (-1.0 / p.R) - m1) / (1.0 - m1)
    f0 = (gamma_m * u0) ** (-p.R)
    for _ in range(200):
        if not 0.0 < f0 < math.inf:
            raise ConvergenceError(f"renewal root search left (0, inf): x={f0:.6g}")
        r, slope = residual(f0)
        step = -r / slope                       # slope < 0
        if step <= 1e-15:                       # r <= 0 only by rounding at the root
            break
        f0 *= math.exp(step)
    else:
        raise ConvergenceError(f"renewal root not converged in 200 steps: x={f0:.6g}")
    a2 = f0 * (1.0 + _renewal_excess(gamma_m, f0 ** (1.0 / p.R), p.R, tail, probs)[0])
    return TimingInsiderSolution(a_star=a_star, gamma_M=gamma_m, f0=f0, A2=a2,
                                 g_at_a_star=g_star, R=p.R)


# ---------------------------------------------------------------------------
# Signal insider (noisy observation of the next jump size)
# ---------------------------------------------------------------------------

def posterior_of_jump(eta: float, p: ModelParams) -> tuple[float, float]:
    """Gaussian posterior of the jump size xi given the signal eta.

    Returns (mean, var) of N((v eta + v_eps m)/(v + v_eps), v v_eps/(v + v_eps)),
    which is (eta, 0) for a noiseless signal (v_eps = 0).
    """
    denom = p.v + p.v_eps
    return ((p.v * eta + p.v_eps * p.m) / denom, p.v * p.v_eps / denom)


class _MonotoneCubic:
    """Piecewise-cubic Hermite interpolant with PCHIP slopes: the
    Fritsch-Butland weighted harmonic mean of the neighbouring secants inside
    (0 at a local extremum or flat secant) and shape-preserving three-point
    ends, as in scipy.interpolate.PchipInterpolator. The knots x must be
    evenly spaced (a linspace), so a point's interval is one floor. Points
    are clipped to [x[0], x[-1]]: the extrapolation is flat."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if len(x) < 2:
            raise ValueError("the signal grid needs at least 2 points")
        hk = np.diff(x)
        mk = np.diff(y) / hk
        d = np.full(len(y), mk[0])              # two points: the secant line
        if len(y) > 2:
            flat = ((np.sign(mk[1:]) != np.sign(mk[:-1]))
                    | (mk[1:] == 0.0) | (mk[:-1] == 0.0))
            w1, w2 = 2.0 * hk[1:] + hk[:-1], hk[1:] + 2.0 * hk[:-1]
            ml, mr = np.where(flat, 1.0, mk[:-1]), np.where(flat, 1.0, mk[1:])
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / ml + w2 / mr) / (w1 + w2)))
            # three-point end slopes, set to 0 or 3 m0 where they break shape
            h0, h1, m0, m1 = hk[[0, -1]], hk[[1, -2]], mk[[0, -1]], mk[[1, -2]]
            e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            wild = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                                  np.where(wild, 3.0 * m0, e))
        t = (d[:-1] + d[1:] - 2.0 * mk) / hk
        self.knots = x[:-1]
        self.x0, self.x1 = x[0], x[-1]
        self.inv_step = (len(x) - 1) / (x[-1] - x[0])
        # column i: the cubic in s = x - x[i] on [x[i], x[i+1]], highest
        # power first, so one take gathers all four coefficients
        self.coef = np.stack([t / hk, (mk - d[:-1]) / hk - t, d[:-1], y[:-1]])

    def __call__(self, xp):
        xp = np.clip(xp, self.x0, self.x1)
        i = ((xp - self.x0) * self.inv_step).astype(np.intp)
        c = self.coef.take(i, axis=1, mode="clip")    # x[-1]: last interval
        s = xp - self.knots.take(i, mode="clip")
        return ((c[0] * s + c[1]) * s + c[2]) * s + c[3]


@dataclass(frozen=True)
class SignalInsiderSolution:
    """Grid solution (h, A3) of the signal regime plus exposure q_bar(eta).

    h and q_bar are monotone-cubic interpolants on eta_grid with flat
    extrapolation beyond it (signals essentially never land outside the
    +-6 sd grid, and flat extension cannot create spurious maxima).
    """

    regime: ClassVar[str] = "signal"
    eta_grid: np.ndarray
    h_values: np.ndarray
    q_bar_values: np.ndarray
    A3: float
    a1: float                       # uninformed A1 used as the upper anchor
    residuals: np.ndarray = field(repr=False)
    outer_trace: tuple = field(repr=False)
    _h_interp: _MonotoneCubic = field(repr=False)
    _q_interp: _MonotoneCubic = field(repr=False)

    def h_at(self, eta):
        """Interpolated h with flat extrapolation."""
        return self._h_interp(eta)

    def q_bar_at(self, eta):
        """Interpolated optimal exposure with flat extrapolation, in [0, 1]."""
        return np.clip(self._q_interp(eta), 0.0, 1.0)


# Step cap of the batched Newton solves of the signal system, the relative
# tolerance and step cap of its outer A3 iteration, and the half-width of
# its eta grid in sd of the signal law.
_NEWTON_STEPS = 100
_OUTER_TOL, _OUTER_STEPS = 1e-10, 200
_GRID_HALFWIDTH_SD = 6.0


def _exposure_slope(q, h, lam_a3, jump_rel, w, p, base, xu):
    """F(q) and F'(q), the first and second q-derivatives of
    h phi1(q) + lam_a3 phi2(q; row), one per row of jump_rel
    (x_k = e^(xi_k) - 1 at the posterior nodes). base and xu are work
    arrays of jump_rel's shape that receive 1 + q x_k and its terms."""
    np.multiply(q[:, None], jump_rel, out=base)
    base += 1.0
    np.power(base, -p.R, out=xu)
    xu *= jump_rel
    curv = p.sigma**2 * p.R
    f = h * ((p.mu - p.r) - curv * q) + lam_a3 * (xu @ w)
    xu *= jump_rel
    xu /= base
    fp = -h * curv - lam_a3 * p.R * (xu @ w)
    return f, fp


def _corner_slopes(h, lam_a3, p, mean, var):
    """F(0) and F(1) of _argmax_exposure in closed form for the rows' jump law
    N(mean, var): with X = e^xi - 1 the jump term is lam_a3 E[X] at q = 0 and,
    since 1 + X = e^xi, lam_a3 E[e^(-R xi) X] at q = 1, a product that does
    not cancel."""
    return (h * (p.mu - p.r) + lam_a3 * np.expm1(mean + 0.5 * var),
            h * ((p.mu - p.r) - p.sigma**2 * p.R) + lam_a3
            * np.exp(p.R * (0.5 * p.R * var - mean)) * np.expm1(mean + (0.5 - p.R) * var))


def _argmax_exposure(h, lam_a3, jump_rel, w, p, q_start, mean, var):
    """Maximizer over q in [0, 1] of h phi1(q) + lam_a3 phi2(q; row), per row.

    F, the objective's q-derivative, decreases (see the module docstring):
    q = 0 where F(0) <= 0, q = 1 where F(1) >= 0 (_corner_slopes, in the rows'
    jump law N(mean, var), whose nodes give jump_rel), and elsewhere Newton
    on F(q) = 0 from q_start, where each step shrinks a bracket of the root
    and a step that leaves the bracket is replaced by its midpoint. Stops
    each row at a step below 1e-14; raises ConvergenceError if some row needs
    more than _NEWTON_STEPS steps. The (rows x nodes) terms of every Newton
    step go to two work arrays allocated once per call, whose leading rows
    serve the shrinking set of rows still iterating.
    """
    f0, f1 = _corner_slopes(h, lam_a3, p, mean, var)
    q = np.where(f0 <= 0.0, 0.0,
                 np.where(f1 >= 0.0, 1.0, np.clip(q_start, 0.0, 1.0)))
    rows = np.flatnonzero((f0 > 0.0) & (f1 < 0.0))
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    base, xu = np.empty_like(jump_rel), np.empty_like(jump_rel)
    for _ in range(_NEWTON_STEPS):
        qa = q[rows]
        f, fp = _exposure_slope(qa, h[rows], lam_a3, jump_rel[rows], w, p,
                                base[:rows.size], xu[:rows.size])
        lo = np.where(f > 0.0, qa, lo)          # F decreases: root above qa
        hi = np.where(f > 0.0, hi, qa)
        q_new = qa - f / fp                     # fp < 0 by concavity
        q[rows] = np.where((q_new >= lo) & (q_new <= hi), q_new, 0.5 * (lo + hi))
        keep = np.abs(q[rows] - qa) > 1e-14
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        if not rows.size:
            return q
    raise ConvergenceError(f"exposure Newton not converged in {_NEWTON_STEPS}"
                           f" steps at {rows.size} grid signals")


def _prior_exposure(h: float, lam_a3: float, p: ModelParams,
                    rule: QuadratureRule) -> float:
    """_argmax_exposure on the one row of the prior N(m, v)."""
    jump_rel = np.expm1(rule.points([p.m], p.v))
    return float(_argmax_exposure(np.array([h]), lam_a3, jump_rel,
                                  rule.probs, p, np.full(1, 0.5), p.m, p.v)[0])


class _SignalSystem:
    """Workspace for the (h, A3) system on a fixed eta grid.

    At grid signal i, h_i > 0 solves h^(1-1/R)/(1-1/R) = V_i(h) with
    V_i(h) = max over q in [0, 1] of h phi1(q) + lam A3 phi2(q; posterior_i),
    attained at the exposure q* of _argmax_exposure. By the envelope theorem
    V_i'(h) = phi1(q*), so r(h) = (1-1/R) V_i(h) - h^(1-1/R) has slope
    (1-1/R)(phi1(q*) - h^(-1/R)). r is convex, negative near 0 and positive
    for large h, so one batched Newton solve over the grid, started from the
    previous outer iterate, finds every h_i once each h is right of the
    minimum of its r (where the slope is positive). The caller drives the outer
    unknown A3 to its fixed point.
    """

    def __init__(self, p: ModelParams, rule: QuadratureRule, eta_grid: np.ndarray):
        self.p = p
        self.rule = rule
        self.eta_grid = eta_grid
        # the posterior N(mean_i, var) of the jump given grid signal i, and
        # jump_rel[i, k] = e^{x_k} - 1 at its nodes
        self.mean, self.var = posterior_of_jump(eta_grid, p)
        self.jump_rel = np.expm1(rule.points(self.mean, self.var))

    def _phi1(self, q):
        p = self.p
        return (p.r + q * (p.mu - p.r) - 0.5 * p.sigma**2 * q * q * p.R
                - (p.rho + p.lam) / (1.0 - p.R))

    def sup_values(self, h: np.ndarray, a3: float, q_start: np.ndarray,
                   rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """V(h) and its maximizer q* at the grid signals `rows`."""
        one_r = 1.0 - self.p.R
        lam_a3 = self.p.lam * a3
        jump_rel = self.jump_rel[rows]
        probs = self.rule.probs
        q = _argmax_exposure(h, lam_a3, jump_rel, probs, self.p, q_start,
                             self.mean[rows], self.var)
        # phi2 enters V itself, so it is taken over this call's rows: a
        # product over another row set rounds some rows differently
        phi2 = ((1.0 + q[:, None] * jump_rel) ** one_r) @ probs / one_r
        return h * self._phi1(q) + lam_a3 * phi2, q

    def solve_grid(self, a3: float, h_start: np.ndarray, q_start: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """h at every grid signal by batched Newton from h_start, each signal
        stopping at a relative step below 1e-13; a signal left of the minimum
        of r doubles its h until it is right of it. Returns (h, q*) with q*
        the exposures of the last Newton step."""
        one_m = 1.0 - 1.0 / self.p.R          # in (0, 1) for R > 1
        h, q = np.array(h_start, dtype=float), np.array(q_start, dtype=float)
        rows = np.arange(len(h))
        for _ in range(_NEWTON_STEPS):
            hr = h[rows]
            val, q[rows] = self.sup_values(hr, a3, q[rows], rows)
            slope = one_m * (self._phi1(q[rows]) - hr ** (-1.0 / self.p.R))
            # a slope <= 0 puts h left of the minimum of the convex r, whose
            # root is then above h: such rows double h instead of stepping
            left = slope <= 0.0
            h[rows] = np.where(left, 2.0 * hr, hr - (one_m * val - hr ** one_m)
                               / np.where(left, 1.0, slope))
            if not np.all(np.isfinite(h[rows]) & (h[rows] > 0.0)):
                raise ConvergenceError("h Newton iterate left (0, inf)")
            rows = rows[np.abs(h[rows] - hr) > 1e-13 * hr]
            if not rows.size:
                return h, q
        raise ConvergenceError(f"h Newton not converged in {_NEWTON_STEPS} "
                               f"steps at {rows.size} grid signals")

    def average_h(self, h_values: np.ndarray) -> float:
        """A3 candidate: E[h(eta)] under eta ~ N(m, v + v_eps)."""
        p = self.p
        interp = _MonotoneCubic(self.eta_grid, h_values)
        return float(self.rule.probs @ interp(self.rule.points(p.m, p.v + p.v_eps)))


def solve_signal_insider(p: ModelParams, rule: QuadratureRule,
                         grid_size: int = 201,
                         uninformed: UninformedSolution | None = None,
                         ) -> SignalInsiderSolution:
    """Solve the signal regime on an eta grid of m +- 6 sd of the signal law.

    Starts the average-value unknown A3 at the uninformed A1 (the upper
    envelope) and iterates downward to the largest fixed point below it, as
    the maximal-solution selection requires; a secant step accelerates the
    contraction once the downward direction is confirmed, until A3 and h move
    by at most 1e-10 max(1, A3) (ConvergenceError after 200 steps). Raises
    GateError with the message of validate_params's signal_regime_gate check
    where it fails (R > 1, a diffusion fraction in (0, 1) and v_eps > 0).
    """
    for flag in require_valid_params(p).failures():
        if flag.name == "signal_regime_gate":
            raise GateError(flag.message)
    if uninformed is None:
        uninformed = solve_uninformed(p, rule)
    a1 = uninformed.A1

    sd = math.sqrt(p.v + p.v_eps)
    eta_grid = np.linspace(p.m - _GRID_HALFWIDTH_SD * sd,
                           p.m + _GRID_HALFWIDTH_SD * sd, grid_size)
    system = _SignalSystem(p, rule, eta_grid)

    h = np.full(grid_size, a1)
    q = np.full(grid_size, uninformed.q_bar1)
    a3 = a1
    trace: list[float] = [a3]

    a3_prev = g_prev = None
    for outer in range(_OUTER_STEPS):
        h_new, q = system.solve_grid(a3, h, q)
        a3_new = system.average_h(h_new)
        gap = a3_new - a3
        h_change = float(np.max(np.abs(h_new - h)))
        h = h_new
        trace.append(a3_new)
        tol = _OUTER_TOL * max(1.0, a3)
        if abs(gap) <= tol and h_change <= tol:
            a3 = a3_new
            break
        if outer == 0 and a3_new > a1 * (1.0 + 1e-8):
            raise ConvergenceError(
                f"maximal-solution selection failed: first iterate {a3_new:.6g} "
                f"exceeds the uninformed anchor A1={a1:.6g}")
        # the secant step on G(a3) = step(a3) - a3 where two distinct gaps
        # exist and it stays in (0, A1], else the plain step
        step = a3_new
        if g_prev is not None and gap != g_prev:
            secant = a3 - gap * (a3 - a3_prev) / (gap - g_prev)
            if 0.0 < secant <= a1 * (1.0 + 1e-12):
                step = secant
        a3_prev, g_prev, a3 = a3, gap, step
    else:
        raise ConvergenceError(
            f"signal system not converged in {_OUTER_STEPS} outer iterations "
            f"(last A3 gap {gap:.3g})")

    # Final pass at the converged A3, then store the recomputed average.
    h, q = system.solve_grid(a3, h, q)
    a3_final = system.average_h(h)
    if a3_final > a1 * (1.0 + 1e-8):
        raise ConvergenceError(
            f"A3={a3_final:.6g} exceeds A1={a1:.6g} beyond tolerance; "
            "maximal-solution selection failed")

    one_m = 1.0 - 1.0 / p.R
    val, q_bar_values = system.sup_values(h, a3_final, q)
    residuals = np.abs(h ** one_m / one_m - val)

    return SignalInsiderSolution(
        eta_grid=eta_grid,
        h_values=h,
        q_bar_values=q_bar_values,
        A3=a3_final,
        a1=a1,
        residuals=residuals,
        outer_trace=tuple(trace),
        _h_interp=_MonotoneCubic(eta_grid, h),
        _q_interp=_MonotoneCubic(eta_grid, q_bar_values),
    )


def signal_terms(sol: SignalInsiderSolution, p: ModelParams, eta: np.ndarray,
                 rule: QuadratureRule) -> tuple[np.ndarray, ...]:
    """(q*, h, beta, kappa) at an array of signals, from one matrix of
    jump-size posterior nodes: the exposure q* from one _argmax_exposure
    call started from the grid interpolant sol.q_bar_at, h(eta), the
    pre-jump rate beta of e^(rt) times the deflator, and the posterior mean
    kappa of (1 + q* (e^X - 1))^(-R)."""
    mean, var = posterior_of_jump(eta, p)
    jump_rel = np.expm1(rule.points(mean, var))
    h = sol.h_at(eta)
    q = _argmax_exposure(h, p.lam * sol.A3, jump_rel, rule.probs, p, sol.q_bar_at(eta),
                         mean, var)
    kappa = (1.0 + q[:, None] * jump_rel) ** (-p.R) @ rule.weights / math.sqrt(math.pi)
    return q, h, _pre_jump_rate(q, h, p), kappa


def q_bar_signal(sol: SignalInsiderSolution, p: ModelParams, eta: float,
                 rule: QuadratureRule) -> float:
    """Exposure maximizing h(eta) phi1(q) + lam A3 phi2(q; posterior(eta)).

    Solves the maximization afresh with the interpolated h(eta), by the
    same corner rule and guarded Newton root as the grid solve, started from
    the grid interpolant sol.q_bar_at (the fast path used in simulation).
    """
    return float(signal_terms(sol, p, np.array([float(eta)]), rule)[0][0])


# ---------------------------------------------------------------------------
# State-price density
# ---------------------------------------------------------------------------

def log_scale(sol, gap, signal):
    """log s, the value scale of sol's regime in its state-price density:
    log A1, log A_M, log f(gap) with gap = T_next - t the time to the next
    jump (timing; stable for large gaps) or log h(signal), the signal held
    (signal). Vectorized over gap and signal, which the other regimes do
    not read."""
    if sol.regime == "timing":
        return sol.R * (np.log1p(-sol.btilde * np.exp(-sol.gamma_M * gap))
                        - math.log(sol.gamma_M))
    if sol.regime == "signal":
        return np.log(sol.h_at(signal))
    return math.log(sol.A1 if sol.regime == "uninformed" else sol.A_M)


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeSolutions:
    uninformed: UninformedSolution | None
    timing: TimingInsiderSolution | None
    signal: SignalInsiderSolution | None
    merton: MertonSolution | None
    signal_gate: str | None = None      # the gate's message where it failed

    def for_regime(self, regime: str):
        """The regime's solution, else GateError (the gate's message if gated)."""
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
        sol = getattr(self, regime)
        if sol is None:
            raise GateError(self.signal_gate if regime == "signal" and self.signal_gate
                            else f"regime {regime!r} was not solved: not listed")
        return sol


def solve_all(p: ModelParams, rule: QuadratureRule, grid_size: int = 201,
              regimes=REGIMES) -> RegimeSolutions:
    """Solve the listed regimes (of REGIMES) in the order uninformed (also
    for signal, whose solve starts from it), timing, merton, signal, and
    leave the others None. A signal regime its gate rules out is None as
    well, with the gate's message kept for for_regime to raise; other
    failures raise."""
    uninformed = (solve_uninformed(p, rule)
                  if {"uninformed", "signal"} & set(regimes) else None)
    timing = solve_timing_insider(p, rule) if "timing" in regimes else None
    merton = solve_merton(p) if "merton" in regimes else None
    signal = gate = None
    if "signal" in regimes:
        try:
            signal = solve_signal_insider(p, rule, grid_size, uninformed=uninformed)
        except GateError as exc:
            gate = str(exc)
    return RegimeSolutions(uninformed=uninformed, timing=timing,
                           signal=signal, merton=merton, signal_gate=gate)
