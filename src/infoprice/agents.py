"""Per-regime solutions: solved constants, policies, and state-price densities.

Four agents are supported.

* ``uninformed`` -- sees neither jump times nor sizes. Value scale A1 and
  constant exposure q_bar1 come from maximizing the jump-adjusted drift g1
  over [0, 1]; the pricing density is A1 e^(-rho t) w^(-R) along the optimal
  wealth w.
* ``timing`` -- learns, immediately after each jump, the exact time of the
  next one. Between jumps it invests the diffusion-only fraction and consumes
  at rate f(T_next - t)^(-1/R); at a jump it holds fraction a_star. f(0) is
  the root of a renewal equation whose Exp(lam) average of f is a Gauss
  hypergeometric function (DLMF 15.6.1), and every solution has gamma_M > 0.
* ``signal`` -- observes eta = xi + eps, a noisy read of the next jump's
  size. Its value scale h(eta) and average A3 solve a coupled system on an
  eta grid; exposure q_bar(eta) maximizes the jump-adjusted objective
  pointwise in the signal. That objective is strictly concave in q (R > 1),
  so q_bar sits at 0 or 1 where its q-derivative has one sign on [0, 1] and
  is the derivative's Newton root otherwise. By the envelope theorem the
  h-equation's slope is phi1(q_bar) - h^(-1/R) (times 1 - 1/R), so all grid
  signals are solved together by one batched Newton iteration in h.
* ``merton`` -- the jump-free diffusion benchmark with closed-form constants.

Each solved object is immutable; evaluation helpers are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import hyp2f1

from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    GateError,
    IllPosedError,
)
from .model import ModelParams, require_valid_params
from .optimize import maximize_bounded
from .quadrature import QuadratureRule, g_of_q

__all__ = [
    "UninformedSolution",
    "TimingInsiderSolution",
    "SignalInsiderSolution",
    "MertonSolution",
    "RegimeSolutions",
    "g1_of_q",
    "solve_uninformed",
    "uninformed_deflator",
    "solve_merton",
    "merton_deflator",
    "solve_timing_insider",
    "timing_deflator",
    "posterior_of_jump",
    "solve_signal_insider",
    "q_bar_signal",
    "signal_deflator",
    "solve_all",
]

# Maximizers closer than this to {0, 1} count as boundary solutions.
INTERIOR_TOL = 1e-6

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Uninformed agent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UninformedSolution:
    """Constants of the no-information regime."""

    q_bar1: float          # optimal risky fraction, interior in (0, 1)
    A1: float              # value scale: u(x) = A1 U(x)
    alpha: float           # drift of e^{rt} * deflator conditional on no jump
    g1_at_opt: float       # g1(q_bar1)


def g1_of_q(q: float, p: ModelParams, rule: QuadratureRule) -> float:
    """Jump-adjusted drift objective the uninformed agent maximizes."""
    jump_term = 0.0
    if p.lam > 0.0:
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
    res = maximize_bounded(lambda q: g1_of_q(q, p, rule), 0.0, 1.0, tol=1e-12)
    q_bar = res.argument
    if q_bar < INTERIOR_TOL or q_bar > 1.0 - INTERIOR_TOL:
        raise BoundaryOptimumError(
            f"optimal exposure q_bar1={q_bar:.3g} is on the boundary of [0, 1]; "
            "the no-information construction requires an interior maximizer")
    g1_opt = res.value
    denom = p.rho + (p.R - 1.0) * g1_opt
    if denom <= 0.0:
        raise IllPosedError(
            f"rho + (R-1) g1(q_bar1) = {denom:.6g} <= 0: value function undefined")
    a1 = (p.R / denom) ** p.R
    alpha = p.r - p.rho + p.R * (
        -p.r - q_bar * (p.mu - p.r) + a1 ** (-1.0 / p.R)
        + 0.5 * (p.R + 1.0) * p.sigma**2 * q_bar**2
    )
    return UninformedSolution(q_bar1=q_bar, A1=a1, alpha=alpha, g1_at_opt=g1_opt)


def uninformed_deflator(sol: UninformedSolution, p: ModelParams,
                        t: float, w: float) -> float:
    """State-price density A1 e^(-rho t) w^(-R) at time t and wealth w."""
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    return sol.A1 * math.exp(-p.rho * t) * w ** (-p.R)


# ---------------------------------------------------------------------------
# Merton (jump-free) benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MertonSolution:
    A_M: float
    kappa: float                # market price of risk (mu - r)/sigma
    gamma_M_merton: float       # consumption rate A_M^(-1/R)
    merton_fraction: float      # (mu - r)/(sigma^2 R)


def solve_merton(p: ModelParams) -> MertonSolution:
    """Closed-form diffusion-only benchmark constants."""
    require_valid_params(p)
    kappa = (p.mu - p.r) / p.sigma
    denom = p.rho + (p.R - 1.0) * (p.r + kappa**2 / (2.0 * p.R))
    if denom <= 0.0:
        raise IllPosedError(
            f"rho + (R-1)(r + kappa^2/(2R)) = {denom:.6g} <= 0: "
            "diffusion-only value function undefined")
    a_m = (p.R / denom) ** p.R
    return MertonSolution(
        A_M=a_m,
        kappa=kappa,
        gamma_M_merton=a_m ** (-1.0 / p.R),
        merton_fraction=p.merton_fraction,
    )


def merton_deflator(sol: MertonSolution, p: ModelParams, t: float, w: float) -> float:
    """A_M e^(-rho t) w^(-R); equals 1 at t=0 for w = A_M^(1/R)."""
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    return sol.A_M * math.exp(-p.rho * t) * w ** (-p.R)


# ---------------------------------------------------------------------------
# Timing insider (knows the time of the next jump)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingInsiderSolution:
    """Constants and the renewal function f of the jump-timing regime.

    f enters as f(time to next jump): consumption rate f(T_next - t)^(-1/R)
    and deflator factor f(T_next - t). Internally f(t)^(1/R) is affine in
    e^(-gamma_M t), which makes f and its consumption integrals closed-form:

        f(t)^(1/R) = (1 - btilde e^(-gamma_M t)) / gamma_M,
        btilde = 1 - gamma_M f0^(1/R).

    gamma_M > 0 for every solution solve_timing_insider returns, so f stays
    bounded and the formulas below need no other branch.
    """

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

    def f_root(self, t):
        """f(t)^(1/R), vectorized; stable for arbitrarily large t."""
        t = np.asarray(t, dtype=float)
        return (1.0 - self.btilde * np.exp(-self.gamma_M * t)) / self.gamma_M

    def f(self, t):
        """Renewal value function f(t) = f_root(t)^R."""
        return self.f_root(t) ** self.R

    def log_f(self, t):
        """log f(t), stable for large t."""
        t = np.asarray(t, dtype=float)
        return self.R * (np.log1p(-self.btilde * np.exp(-self.gamma_M * t))
                         - math.log(self.gamma_M))

    def consumption_integral(self, t_next, a, b):
        """Integral of f(t_next - u)^(-1/R) du over u in [a, b], closed form.

        Vectorized over paths; requires a <= b <= t_next elementwise.
        """
        t_next = np.asarray(t_next, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        g = self.gamma_M
        s_hi = t_next - a
        s_lo = t_next - b
        # log((e^{g s_hi} - btilde)/(e^{g s_lo} - btilde)) without overflow
        return (g * (b - a)
                + np.log1p(-self.btilde * np.exp(-g * s_hi))
                - np.log1p(-self.btilde * np.exp(-g * s_lo)))


def _exp_average_of_f(gamma: float, c0: float, R: float, lam: float) -> float:
    """integral_0^inf lam e^(-lam s) f(s) ds with f(s)^(1/R) = (1 - btilde
    e^(-gamma s))/gamma and gamma > 0.

    Substituting u = e^(-gamma s) turns it into Euler's integral (DLMF
    15.6.1): gamma^(-R) 2F1(-R, c; c + 1; btilde) with c = lam/gamma.
    """
    c = lam / gamma
    return gamma ** (-R) * float(hyp2f1(-R, c, c + 1.0, 1.0 - gamma * c0))


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
    f0 is the root of x = g(a_star) E[f(T)](x), T ~ Exp(lam), found by brentq
    on a bracket grown from the Merton A_M; a bracket that cannot be found
    raises ConvergenceError.
    """
    require_valid_params(p)
    sign = 1.0 - p.R
    res = maximize_bounded(lambda a: g_of_q(a, p, rule) / sign, 0.0, 1.0, tol=1e-12)
    a_star = res.argument
    if a_star < INTERIOR_TOL:
        a_star = 0.0
    g_star = g_of_q(a_star, p, rule)
    gamma_m = (p.rho + (p.R - 1.0) * (p.r + (p.mu - p.r) ** 2
                                      / (2.0 * p.R * p.sigma**2))) / p.R
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

    def residual(x: float) -> float:
        return g_star * _exp_average_of_f(gamma_m, x ** (1.0 / p.R), p.R, p.lam) - x

    # residual > 0 near x = 0 and < 0 for large x, with one sign change:
    # E[f(T)] grows like lam/(lam + R gamma_M) x < x/g(a*)
    lo = hi = solve_merton(p).A_M
    for _ in range(200):
        if residual(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise ConvergenceError(f"renewal root not bracketed below x={lo:.3g}")
    for _ in range(200):
        if residual(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"renewal root not bracketed above x={hi:.3g}")
    f0 = float(brentq(residual, lo, hi, xtol=1e-13, rtol=1e-15, maxiter=200))
    a2 = _exp_average_of_f(gamma_m, f0 ** (1.0 / p.R), p.R, p.lam)
    return TimingInsiderSolution(a_star=a_star, gamma_M=gamma_m, f0=f0, A2=a2,
                                 g_at_a_star=g_star, R=p.R)


def timing_deflator(sol: TimingInsiderSolution, p: ModelParams, t: float,
                    w: float, time_of_next_jump: float) -> float:
    """f(T_next - t) e^(-rho t) w^(-R); equals 1 at t=0 for w = f(T1)^(1/R)."""
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    if not time_of_next_jump > t:
        raise ValueError("time_of_next_jump must exceed t")
    return float(np.exp(sol.log_f(time_of_next_jump - t))
                 * math.exp(-p.rho * t) * w ** (-p.R))


# ---------------------------------------------------------------------------
# Signal insider (noisy observation of the next jump size)
# ---------------------------------------------------------------------------

def posterior_of_jump(eta: float, p: ModelParams) -> tuple[float, float]:
    """Gaussian posterior of the jump size xi given the signal eta.

    Returns (mean, var) of N((v eta + v_eps m)/(v + v_eps), v v_eps/(v + v_eps)).
    """
    if not p.v_eps > 0.0:
        raise ValueError("v_eps must be > 0: a noiseless signal has a degenerate posterior")
    denom = p.v + p.v_eps
    return ((p.v * eta + p.v_eps * p.m) / denom, p.v * p.v_eps / denom)


@dataclass(frozen=True)
class SignalInsiderSolution:
    """Grid solution (h, A3) of the signal regime plus exposure q_bar(eta).

    h and q_bar are monotone-cubic interpolants on eta_grid with flat
    extrapolation beyond it (signals essentially never land outside the
    +-6 sd grid, and flat extension cannot create spurious maxima).
    """

    eta_grid: np.ndarray
    h_values: np.ndarray
    q_bar_values: np.ndarray
    A3: float
    a1: float                       # uninformed A1 used as the upper anchor
    residuals: np.ndarray = field(repr=False)
    outer_trace: tuple = field(repr=False)
    _h_interp: PchipInterpolator = field(repr=False)
    _q_interp: PchipInterpolator = field(repr=False)

    def h_at(self, eta):
        """Interpolated h with flat extrapolation."""
        eta = np.clip(eta, self.eta_grid[0], self.eta_grid[-1])
        return self._h_interp(eta)

    def q_bar_at(self, eta):
        """Interpolated optimal exposure with flat extrapolation, in [0, 1]."""
        eta = np.clip(eta, self.eta_grid[0], self.eta_grid[-1])
        return np.clip(self._q_interp(eta), 0.0, 1.0)


# Step cap of the batched Newton solves of the signal system.
_NEWTON_STEPS = 100


def _exposure_slope(q, h, lam_a3, jump_rel, w, p):
    """F(q) and F'(q), the first and second q-derivatives of
    h phi1(q) + lam_a3 phi2(q; row), one per row of jump_rel
    (x_k = e^(xi_k) - 1 at the posterior nodes)."""
    base = 1.0 + q[:, None] * jump_rel
    xu = jump_rel * base ** -p.R
    curv = p.sigma**2 * p.R
    f = h * ((p.mu - p.r) - curv * q) + lam_a3 * (xu @ w)
    fp = -h * curv - lam_a3 * p.R * ((xu * jump_rel / base) @ w)
    return f, fp


def _argmax_exposure(h, lam_a3, jump_rel, w, p, q_start):
    """Maximizer over q in [0, 1] of h phi1(q) + lam_a3 phi2(q; row), per row.

    Corners by the sign of F at 0 and 1 (see _SignalSystem); elsewhere
    Newton on F(q) = 0 from q_start, where each step shrinks a bracket of
    the root and a step that leaves the bracket is replaced by its midpoint.
    Stops each row at a step below 1e-14; raises ConvergenceError if some
    row needs more than _NEWTON_STEPS steps.
    """
    n = len(h)
    f0 = _exposure_slope(np.zeros(n), h, lam_a3, jump_rel, w, p)[0]
    f1 = _exposure_slope(np.ones(n), h, lam_a3, jump_rel, w, p)[0]
    q = np.where(f0 <= 0.0, 0.0,
                 np.where(f1 >= 0.0, 1.0, np.clip(q_start, 0.0, 1.0)))
    rows = np.flatnonzero((f0 > 0.0) & (f1 < 0.0))
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    for _ in range(_NEWTON_STEPS):
        qa = q[rows]
        f, fp = _exposure_slope(qa, h[rows], lam_a3, jump_rel[rows], w, p)
        lo = np.where(f > 0.0, qa, lo)          # F decreases: root above qa
        hi = np.where(f > 0.0, hi, qa)
        q_new = qa - f / fp                     # fp <= -h sigma^2 R < 0
        q[rows] = np.where((q_new >= lo) & (q_new <= hi), q_new, 0.5 * (lo + hi))
        keep = np.abs(q[rows] - qa) > 1e-14
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        if not rows.size:
            return q
    raise ConvergenceError(f"exposure Newton not converged in {_NEWTON_STEPS}"
                           f" steps at {rows.size} grid signals")


class _SignalSystem:
    """Workspace for the (h, A3) system on a fixed eta grid.

    At grid signal i, h_i > 0 solves h^(1-1/R)/(1-1/R) = V_i(h) with
    V_i(h) = max over q in [0, 1] of h phi1(q) + lam A3 phi2(q; posterior_i).
    For R > 1 the objective is strictly concave in q, so its q-derivative F
    is strictly decreasing: the exposure q* is 0 where F(0) <= 0, 1 where
    F(1) >= 0, and the root of F otherwise. By the envelope theorem
    V_i'(h) = phi1(q*), so r(h) = (1-1/R) V_i(h) - h^(1-1/R) has slope
    (1-1/R)(phi1(q*) - h^(-1/R)). r is convex, negative near 0 and positive
    for large h, so one batched Newton solve over the grid, started from the
    previous outer iterate, finds every h_i. The caller drives the outer
    unknown A3 to its fixed point.
    """

    def __init__(self, p: ModelParams, rule: QuadratureRule, eta_grid: np.ndarray):
        self.p = p
        self.rule = rule
        self.eta_grid = eta_grid
        means, var = posterior_of_jump(eta_grid, p)
        # jump_rel[i, k] = e^{x_k} - 1 at posterior nodes for grid signal i
        self.jump_rel = np.expm1(
            means[:, None] + math.sqrt(2.0 * var) * rule.nodes[None, :])
        self.w_norm = rule.weights / _SQRT_PI

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
        q = _argmax_exposure(h, lam_a3, jump_rel, self.w_norm, self.p, q_start)
        phi2 = ((1.0 + q[:, None] * jump_rel) ** one_r) @ self.w_norm / one_r
        return h * self._phi1(q) + lam_a3 * phi2, q

    def solve_grid(self, a3: float, h_start: np.ndarray, q_start: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """h at every grid signal by batched Newton from h_start, each signal
        stopping at a relative step below 1e-13; returns (h, q*) with q* the
        exposures of the last Newton step."""
        one_m = 1.0 - 1.0 / self.p.R          # in (0, 1) for R > 1
        h, q = np.array(h_start, dtype=float), np.array(q_start, dtype=float)
        rows = np.arange(len(h))
        for _ in range(_NEWTON_STEPS):
            hr = h[rows]
            val, q[rows] = self.sup_values(hr, a3, q[rows], rows)
            slope = one_m * (self._phi1(q[rows]) - hr ** (-1.0 / self.p.R))
            if not np.all(slope > 0.0):
                raise ConvergenceError("h Newton slope is not positive")
            h[rows] = hr - (one_m * val - hr ** one_m) / slope
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
        interp = PchipInterpolator(self.eta_grid, h_values, extrapolate=False)
        pts = p.m + math.sqrt(2.0 * (p.v + p.v_eps)) * self.rule.nodes
        pts = np.clip(pts, self.eta_grid[0], self.eta_grid[-1])
        return float(self.w_norm @ interp(pts))


def solve_signal_insider(p: ModelParams, rule: QuadratureRule,
                         grid_size: int = 201, grid_halfwidth_sd: float = 6.0,
                         tol: float = 1e-10, max_outer: int = 200,
                         uninformed: UninformedSolution | None = None,
                         ) -> SignalInsiderSolution:
    """Solve the signal regime on an eta grid of m +- halfwidth sd.

    Starts the average-value unknown A3 at the uninformed A1 (the upper
    envelope) and iterates downward to the largest fixed point below it, as
    the maximal-solution selection requires; a secant step accelerates the
    contraction once the downward direction is confirmed. Raises GateError
    unless R > 1 and the diffusion fraction lies in (0, 1).
    """
    require_valid_params(p)
    if not (p.R > 1.0 and 0.0 < p.merton_fraction < 1.0):
        raise GateError(
            "signal regime needs R > 1 and (mu - r)/(sigma^2 R) in (0, 1); "
            f"got R={p.R:g}, fraction={p.merton_fraction:.6g}")
    if not p.v_eps > 0.0:
        raise GateError("signal regime needs v_eps > 0")
    if uninformed is None:
        uninformed = solve_uninformed(p, rule)
    a1 = uninformed.A1

    sd = math.sqrt(p.v + p.v_eps)
    eta_grid = np.linspace(p.m - grid_halfwidth_sd * sd,
                           p.m + grid_halfwidth_sd * sd, grid_size)
    system = _SignalSystem(p, rule, eta_grid)

    h = np.full(grid_size, a1)
    q = np.full(grid_size, uninformed.q_bar1)
    a3 = a1
    trace: list[float] = [a3]

    a3_prev, g_prev = None, None
    converged = False
    for outer in range(max_outer):
        h_new, q = system.solve_grid(a3, h, q)
        a3_new = system.average_h(h_new)
        gap = a3_new - a3
        h_change = float(np.max(np.abs(h_new - h)))
        h = h_new
        trace.append(a3_new)
        if abs(gap) <= tol * max(1.0, a3) and h_change <= tol * max(1.0, a3):
            a3 = a3_new
            converged = True
            break
        if outer == 0 and a3_new > a1 * (1.0 + 1e-8):
            raise ConvergenceError(
                f"maximal-solution selection failed: first iterate {a3_new:.6g} "
                f"exceeds the uninformed anchor A1={a1:.6g}")
        # secant step on G(a3) = step(a3) - a3 once two iterates exist
        if a3_prev is not None and abs((a3_new - a3) - g_prev) > 0.0:
            g_cur = a3_new - a3
            denom = g_cur - g_prev
            candidate = a3 - g_cur * (a3 - a3_prev) / denom if denom != 0.0 else a3_new
            if 0.0 < candidate <= a1 * (1.0 + 1e-12):
                a3_prev, g_prev = a3, g_cur
                a3 = candidate
                continue
        a3_prev, g_prev = a3, a3_new - a3
        a3 = a3_new
    if not converged:
        raise ConvergenceError(
            f"signal system not converged in {max_outer} outer iterations "
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
        _h_interp=PchipInterpolator(eta_grid, h, extrapolate=False),
        _q_interp=PchipInterpolator(eta_grid, q_bar_values, extrapolate=False),
    )


def q_bar_signal(sol: SignalInsiderSolution, p: ModelParams, eta: float,
                 rule: QuadratureRule) -> float:
    """Exposure maximizing h(eta) phi1(q) + lam A3 phi2(q; posterior(eta)).

    Solves the maximization afresh with the interpolated h(eta), by the
    same corner rule and guarded Newton root as the grid solve, started from
    the grid interpolant sol.q_bar_at (the fast path used in simulation).
    """
    m_post, v_post = posterior_of_jump(eta, p)
    jump_rel = np.expm1(m_post + math.sqrt(2.0 * v_post) * rule.nodes)
    q = _argmax_exposure(np.array([float(sol.h_at(eta))]), p.lam * sol.A3,
                         jump_rel[None, :], rule.weights / _SQRT_PI, p,
                         sol.q_bar_at(eta))
    return float(q[0])


def signal_deflator(sol: SignalInsiderSolution, p: ModelParams, t: float,
                    w: float, eta_t: float) -> float:
    """e^(-rho t) h(eta_t) w^(-R); equals 1 at t=0 for w = h(eta_0)^(1/R)."""
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    return float(math.exp(-p.rho * t) * sol.h_at(eta_t) * w ** (-p.R))


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeSolutions:
    uninformed: UninformedSolution
    timing: TimingInsiderSolution
    signal: SignalInsiderSolution | None
    merton: MertonSolution

    def for_regime(self, regime: str):
        if regime not in ("uninformed", "timing", "signal", "merton"):
            raise ValueError(f"unknown regime {regime!r}")
        sol = getattr(self, regime)
        if sol is None:
            raise GateError(f"regime {regime!r} was not solvable for these parameters")
        return sol


def solve_all(p: ModelParams, rule: QuadratureRule,
              grid_size: int = 201, grid_halfwidth_sd: float = 6.0,
              signal_required: bool = True) -> RegimeSolutions:
    """Solve every regime; the signal regime may be skipped if gated off."""
    uninformed = solve_uninformed(p, rule)
    timing = solve_timing_insider(p, rule)
    merton = solve_merton(p)
    signal = None
    try:
        signal = solve_signal_insider(p, rule, grid_size=grid_size,
                                      grid_halfwidth_sd=grid_halfwidth_sd,
                                      uninformed=uninformed)
    except GateError:
        if signal_required:
            raise
    return RegimeSolutions(uninformed=uninformed, timing=timing,
                           signal=signal, merton=merton)
