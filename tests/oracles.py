"""Independent numerical oracles used to pin expected values in the tests.

Everything here is deliberately implemented without touching the package's
own quadrature/optimizer code paths, so a test comparing the two is a real
cross-check: adaptive Simpson for one-dimensional integrals, a tensor
Simpson grid for the bivariate payoff integral, Newton's method on the
Hermite three-term recurrence for quadrature nodes, a discretized Bayes rule
for the signal posterior, brute-force grids for argmax checks, the
scalar wealth step and jump update that the hand replay of a path composes,
the one-signal-at-a-time loop that the batched signal-law averages of
the closed forms are checked against, the allocating exposure kernel that
the in-place one is checked against, the exposure maximizer that evaluates
its corner tests by the slope in every call (which the closed-form corner
tests are checked against), and the one-path-at-a-time scenario
draw that the engine's batched tile draw is checked against, on fresh
keyed Philox generators (path_rng). The timing insider's renewal function
f and its closed-form consumption integral live here too: the engine steps
log consumption, which moves at a constant rate between jumps, so only the
hand replay integrates the consumption rate, and only the hand replay and
the normalization tests evaluate the state-price density at a given wealth
(deflator). beta_coef is not an oracle but a test helper: it reads the
package's own batched value.
"""

from __future__ import annotations

import math

import numpy as np

from infoprice import agents
from infoprice.agents import log_scale, signal_terms
from infoprice.errors import ConvergenceError


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12,
                     max_depth: int = 60) -> float:
    """Recursive adaptive Simpson with Richardson extrapolation."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth - 1)
                + rec(m, fm, rm, frm, b, fb, right, 0.5 * tol, depth - 1))

    return rec(a, fa, m, fm, b, fb, whole, tol, max_depth)


def gaussian_expect_simpson(f, mean: float, var: float, tol: float = 1e-12,
                            n_sd: float = 10.0) -> float:
    """E[f(Z)], Z ~ N(mean, var), by adaptive Simpson on [mean +- n_sd sd]."""
    sd = math.sqrt(var)
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def integrand(x):
        return f(x) * norm * math.exp(-0.5 * ((x - mean) / sd) ** 2)

    return adaptive_simpson(integrand, mean - n_sd * sd, mean + n_sd * sd, tol)


def tensor_simpson_2d(f, mean1: float, var1: float, mean2: float, var2: float,
                      n_panels: int = 400, n_sd: float = 10.0) -> float:
    """E[f(X1, X2)] for independent Gaussians by a composite Simpson grid."""
    if n_panels % 2:
        n_panels += 1
    sd1, sd2 = math.sqrt(var1), math.sqrt(var2)
    x1 = np.linspace(mean1 - n_sd * sd1, mean1 + n_sd * sd1, n_panels + 1)
    x2 = np.linspace(mean2 - n_sd * sd2, mean2 + n_sd * sd2, n_panels + 1)
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w1 = w * (x1[1] - x1[0]) / 3.0
    w2 = w * (x2[1] - x2[0]) / 3.0
    pdf1 = np.exp(-0.5 * ((x1 - mean1) / sd1) ** 2) / (sd1 * math.sqrt(2 * math.pi))
    pdf2 = np.exp(-0.5 * ((x2 - mean2) / sd2) ** 2) / (sd2 * math.sqrt(2 * math.pi))
    vals = f(x1[:, None], x2[None, :])
    return float((w1 * pdf1) @ vals @ (w2 * pdf2))


def hermite_nodes_newton(order: int) -> np.ndarray:
    """Roots of the physicists' Hermite polynomial found independently:
    sign changes of the orthonormal-scaled three-term recurrence on a dense
    grid, refined by bisection (the scaling avoids overflow at high order)."""

    def h_scaled(x):
        x = np.asarray(x, dtype=float)
        h_prev = np.full_like(x, math.pi ** -0.25)      # orthonormal H_0
        if order == 0:
            return h_prev
        h = math.sqrt(2.0) * x * h_prev                 # orthonormal H_1
        for n in range(1, order):
            h_next = (x * math.sqrt(2.0 / (n + 1)) * h
                      - math.sqrt(n / (n + 1)) * h_prev)
            h_prev, h = h, h_next
        return h

    lim = math.sqrt(2.0 * order + 1.0) + 1.0
    xs = np.linspace(-lim, lim, 40 * order + 1)
    vals = h_scaled(xs)
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(bisection_root(lambda x: float(h_scaled(x)),
                                        float(xs[i]), float(xs[i + 1]),
                                        tol=1e-14))
    assert len(roots) == order, f"found {len(roots)} roots for order {order}"
    return np.sort(np.array(roots))


def discretized_bayes_posterior(eta: float, m: float, v: float, v_eps: float,
                                n: int = 4001, n_sd: float = 8.0):
    """Posterior mean/variance of xi given xi + eps = eta on a dense grid."""
    sd = math.sqrt(v)
    xs = np.linspace(m - n_sd * sd, m + n_sd * sd, n)
    prior = np.exp(-0.5 * ((xs - m) / sd) ** 2)
    like = np.exp(-0.5 * (eta - xs) ** 2 / v_eps)
    post = prior * like
    post /= np.trapezoid(post, xs)
    mean = float(np.trapezoid(xs * post, xs))
    var = float(np.trapezoid((xs - mean) ** 2 * post, xs))
    return mean, var


def grid_argmax(f, lo: float, hi: float, n: int = 1_000_001,
                chunk: int = 250_000) -> float:
    """Brute-force argmax of a vectorized function on a dense uniform grid."""
    best_x, best_v = lo, -math.inf
    edges = np.linspace(lo, hi, n)
    for start in range(0, n, chunk):
        xs = edges[start:start + chunk]
        vals = np.asarray(f(xs), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v = float(vals[i])
            best_x = float(xs[i])
    return best_x


def gauss_laguerre_exp_average(f, lam: float, order: int = 150) -> float:
    """integral_0^inf lam e^(-lam s) f(s) ds via Gauss-Laguerre nodes."""
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    s = nodes / lam
    return float(weights @ np.array([f(si) for si in s]))


def bisection_root(f, lo: float, hi: float, tol: float = 1e-12,
                   max_iter: int = 300) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def wealth_step_exact(w: float, pi: float, consumption_rate_integral: float,
                      dt_step: float, dW: float, p) -> float:
    """Exact between-jump wealth update under constant fraction pi.

    The proportional-consumption SDE is log-linear between jumps, so the
    strong solution over the step is

        w * exp((r + pi (mu - r) - pi^2 sigma^2 / 2) dt - int(gamma) + pi sigma dW)

    with int(gamma) the integrated proportional consumption rate. The hand
    replay composes whole paths from this and apply_jump.
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


def deflator(sol, p, t: float, w: float, next_jump: float = math.inf,
             signal: float | None = None) -> float:
    """State-price density s e^(-rho t) w^(-R) at time t and wealth w, with
    the value scale s of sol's regime (agents.log_scale): A1, A_M,
    f(next_jump - t) or h(signal), the signal held at t; 1 at t = 0 for
    w = s^(1/R). ValueError for w <= 0, next_jump <= t (timing) or no
    signal (signal)."""
    if not w > 0.0:
        raise ValueError(f"wealth must be > 0, got {w}")
    if sol.regime == "timing" and not next_jump > t:
        raise ValueError("next_jump must exceed t")
    if sol.regime == "signal" and signal is None:
        raise ValueError("the signal insider's density needs its signal")
    return math.exp(float(log_scale(sol, next_jump - t, signal)) - p.rho * t) * w ** (-p.R)


def exposure_slope_allocating(q, h, lam_a3, jump_rel, w, p, base=None, xu=None):
    """The exposure kernel's F(q) and F'(q) written with fresh temporaries,
    as before the kernel took work arrays (which this ignores): the
    reference that the in-place kernel must match bit for bit."""
    base = 1.0 + q[:, None] * jump_rel
    xu = jump_rel * base ** -p.R
    curv = p.sigma**2 * p.R
    f = h * ((p.mu - p.r) - curv * q) + lam_a3 * (xu @ w)
    fp = -h * curv - lam_a3 * p.R * ((xu * jump_rel / base) @ w)
    return f, fp


def argmax_exposure_slope_corners(h, lam_a3, jump_rel, w, p, q_start, mean, var):
    """agents._argmax_exposure with F(0) and F(1) from _exposure_slope at
    q = 0 and 1 on the rows of this call instead of their closed forms in
    the rows' jump law N(mean, var), which this ignores: the reference whose
    bits the closed-form corner tests must keep."""
    n = len(h)
    base, xu = np.empty_like(jump_rel), np.empty_like(jump_rel)
    f0 = agents._exposure_slope(np.zeros(n), h, lam_a3, jump_rel, w, p, base, xu)[0]
    f1 = agents._exposure_slope(np.ones(n), h, lam_a3, jump_rel, w, p, base, xu)[0]
    q = np.where(f0 <= 0.0, 0.0,
                 np.where(f1 >= 0.0, 1.0, np.clip(q_start, 0.0, 1.0)))
    rows = np.flatnonzero((f0 > 0.0) & (f1 < 0.0))
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    for _ in range(agents._NEWTON_STEPS):
        qa = q[rows]
        f, fp = agents._exposure_slope(qa, h[rows], lam_a3, jump_rel[rows], w, p,
                                       base[:rows.size], xu[:rows.size])
        lo = np.where(f > 0.0, qa, lo)
        hi = np.where(f > 0.0, hi, qa)
        q_new = qa - f / fp
        q[rows] = np.where((q_new >= lo) & (q_new <= hi), q_new, 0.5 * (lo + hi))
        keep = np.abs(q[rows] - qa) > 1e-14
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        if not rows.size:
            return q
    raise ConvergenceError("exposure Newton not converged")


def beta_coef(eta0: float, sol, p, rule) -> float:
    """The signal insider's pre-jump rate beta(eta0), the signal-conditional
    analogue of alpha, as agents.signal_terms gives it at the one signal."""
    return float(signal_terms(sol, p, np.array([float(eta0)]), rule)[2][0])


def signal_law_average(f, p, rule) -> float:
    """Average of the scalar function f(eta) under the signal law
    N(m, v + v_eps): one call of f per node of the Gauss-Hermite rule."""
    pts = p.m + math.sqrt(2.0 * (p.v + p.v_eps)) * rule.nodes
    vals = np.array([f(float(e)) for e in pts])
    return float(rule.weights @ vals) / math.sqrt(math.pi)


def _philox_key(seed: int, path_index: int, purpose: int) -> np.ndarray:
    return np.array([seed, (4 * path_index + purpose) % 2**64], dtype=np.uint64)


def path_rng(seed: int, path_index: int, purpose: int) -> np.random.Generator:
    """Counter-based generator for one (path, purpose) pair: the start of
    the documented per-path stream, built fresh."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, path_index, purpose)))


def timing_f_root(sol, t):
    """The timing insider's f(t)^(1/R) = (1 - btilde e^(-gamma_M t))/gamma_M,
    vectorized; stable for arbitrarily large t."""
    t = np.asarray(t, dtype=float)
    return (1.0 - sol.btilde * np.exp(-sol.gamma_M * t)) / sol.gamma_M


def timing_f(sol, t):
    """The timing insider's renewal value function f(t) = f_root(t)^R."""
    return timing_f_root(sol, t) ** sol.R


def consumption_integral(sol, t_next, a, b):
    """Integral of the timing insider's consumption rate f(t_next - u)^(-1/R)
    du over u in [a, b], closed form; vectorized over paths, and requires
    a <= b <= t_next elementwise."""
    t_next, a, b = (np.asarray(x, dtype=float) for x in (t_next, a, b))
    g = sol.gamma_M
    s_hi = t_next - a
    s_lo = t_next - b
    # log((e^{g s_hi} - btilde)/(e^{g s_lo} - btilde)) without overflow
    return (g * (b - a)
            + np.log1p(-sol.btilde * np.exp(-g * s_hi))
            - np.log1p(-sol.btilde * np.exp(-g * s_lo)))


def scenario_reference(p, horizon: float, seed: int, path_index: int,
                       pin_t1=None, pin_eta0=None):
    """One path's scenario drawn the documented way, on fresh generators:
    Exp(lam) gaps in blocks of 16 (the first call covers the mean count plus
    six sd) until a time lies beyond the horizon, then per time a jump-size
    normal and a signal-noise normal interleaved, then one pre-jump normal
    per in-horizon jump. Returns (times, sizes, signals, jump normals)."""
    from infoprice.agents import posterior_of_jump

    gaps_gen = path_rng(seed, path_index, 0)
    mean = p.lam * horizon
    n_blocks = 1 + int((mean + 6.0 * math.sqrt(mean)) // 16)
    gaps = gaps_gen.exponential(1.0 / p.lam, 16 * n_blocks)
    if pin_t1 is not None:
        gaps[0] = pin_t1
    times = np.cumsum(gaps)
    while not times[-1] > horizon:
        gaps = np.append(gaps, gaps_gen.exponential(1.0 / p.lam, 16))
        times = np.cumsum(gaps)
    n = int(times.searchsorted(horizon, side="right")) + 1
    times = times[:n]

    z = path_rng(seed, path_index, 1).standard_normal(2 * n)
    sizes = p.m + math.sqrt(p.v) * z[0::2]
    signals = sizes + math.sqrt(p.v_eps) * z[1::2]
    if pin_eta0 is not None:
        m_post, v_post = posterior_of_jump(pin_eta0, p)
        sizes[0] = m_post + math.sqrt(v_post) * z[0]
        signals[0] = pin_eta0
    jnorms = path_rng(seed, path_index, 2).standard_normal(n - 1)
    return times, sizes, signals, jnorms
