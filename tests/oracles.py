"""Independent numerical oracles used to pin expected values in the tests.

Everything here is deliberately implemented without touching the package's
own quadrature/optimizer code paths, so a test comparing the two is a real
cross-check: adaptive Simpson for one-dimensional integrals, a tensor
Simpson grid for the bivariate payoff integral, Newton's method on the
Hermite three-term recurrence for quadrature nodes, a discretized Bayes rule
for the signal posterior, brute-force grids for argmax checks, and the
scalar wealth step and jump update that the hand replay of a path composes.
"""

from __future__ import annotations

import math

import numpy as np


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
