"""Quadrature rules for the expectations of the model.

Under a jump-size law N(mean, var) every integrand is smooth: the
jump-utility moment g(q), the posterior utility moment phi2(q; m', v') and
the posterior moments of pricing. A fixed-order Gauss-Hermite rule
(physicists' convention, weight exp(-x^2)) is accurate far beyond the
tolerances needed here for these. For X ~ N(mean, var) every module takes
the points mean + sqrt(2 var) x_i and probabilities w_i / sqrt(pi) from
QuadratureRule.points and QuadratureRule.probs:

    E[f(X)] ~= sum_i w_i f(mean + sqrt(2 var) x_i) / sqrt(pi)

Under the signal law N(m, v + v_eps) a psi may step or kink, and the signal
insider's h and q_bar are piecewise cubics on its eta grid. signal_law is
the one rule for every average over it: 2-point Gauss-Legendre on the cells
of a signal grid whose edges include every point where the integrand is not
smooth, with the normal density times the weights as probabilities.
g_of_q serves the uninformed and timing solves, and phi2 and phi2_many have
no caller in the package. gauss_jacobi gives the rule for averages under
the density c t^(c-1) on [0, 1] that the timing insider's renewal needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import ModelParams, _values_at

__all__ = [
    "QuadratureRule",
    "gauss_hermite",
    "gauss_jacobi",
    "DEFAULT_ORDER",
    "default_rule",
    "expect_gaussian",
    "g_of_q",
    "g_of_q_many",
    "phi2",
    "phi2_many",
    "psi_double_integral",
    "posterior_of_jump",
    "signal_grid",
    "signal_law",
]

DEFAULT_ORDER = 64
JACOBI_ORDER = 32
# signal_grid's half-width and signal_law's tail cells a side, in sd
_GRID_HALFWIDTH_SD, _TAIL_CELLS, _TAIL_SD = 6.0, 12, 9.0

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule for weight exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray

    def points(self, mean, var: float) -> np.ndarray:
        """N(mean, var) nodes mean + sqrt(2 var) x_i, a row per entry of mean."""
        return np.expand_dims(mean, -1) + math.sqrt(2.0 * var) * self.nodes

    @property
    def probs(self) -> np.ndarray:
        """N(mean, var) node probabilities weights / sqrt(pi)."""
        return self.weights / _SQRT_PI


def gauss_hermite(order: int) -> QuadratureRule:
    """Return the `order`-point Gauss-Hermite rule, 1 <= order <= 200."""
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= 200:
        raise ValueError(f"order must be in [1, 200], got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    return QuadratureRule(nodes=nodes, weights=weights)


def gauss_jacobi(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_k and probabilities w_k (summing to 1) of the JACOBI_ORDER-point
    Gauss rule for the density c t^(c-1) on [0, 1], c > 0: the Jacobi rule
    with exponents (0, c - 1) moved to [0, 1]. Its nodes are the eigenvalues
    of the recurrence matrix (Golub and Welsch 1969) with diagonal a_0 =
    c/(c+1), then 1/2 + b^2/(2 s (s+2)), and off-diagonal b_n = n (n+b) /
    (s sqrt((s-1)(s+1))), b = c - 1, s = 2n + b; its weights 1/sum_j p_j^2
    over the orthonormal p_(n+1) = ((t - a_n) p_n - b_n p_(n-1))/b_(n+1)."""
    b = c - 1.0
    n = np.arange(1.0, JACOBI_ORDER)
    s = 2.0 * n + b
    diag = np.concatenate(([c / (c + 1.0)], 0.5 + 0.5 * b * b / (s * (s + 2.0))))
    off = n * (n + b) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p, total = 0.0, np.ones(JACOBI_ORDER), np.ones(JACOBI_ORDER)
    for k in range(JACOBI_ORDER - 1):
        p_prev, p = p, ((nodes - diag[k]) * p - off[k - 1] * p_prev) / off[k]
        total += p * p
    probs = 1.0 / total
    return nodes, probs / probs.sum()


def default_rule() -> QuadratureRule:
    return gauss_hermite(DEFAULT_ORDER)


def expect_gaussian(f: Callable, mean: float, var: float, rule: QuadratureRule) -> float:
    """Gauss-Hermite approximation of E[f(Z)] with Z ~ N(mean, var)."""
    if not var > 0.0:
        raise ValueError(f"variance must be > 0, got {var}")
    values = _values_at(f, rule.points(mean, var))
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand is non-finite at a quadrature node")
    return float(rule.weights @ values) / _SQRT_PI


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"exposure q must be in [0, 1], got {q}")
    return q


def g_of_q(q: float, p: ModelParams, rule: QuadratureRule) -> float:
    """Jump-utility moment g(q) = E[(1 + q (e^X - 1))^(1-R)], X ~ N(m, v).

    The restriction q in [0, 1] keeps 1 + q(e^x - 1) > 0 for every x.
    """
    return float(g_of_q_many(_check_q(q), p, rule))


def g_of_q_many(q: np.ndarray, p: ModelParams, rule: QuadratureRule) -> np.ndarray:
    """Vectorized g over an array of exposures (all in [0, 1])."""
    q = np.asarray(q, dtype=float)
    if q.size and (q.min() < 0.0 or q.max() > 1.0):
        raise ValueError("exposures must lie in [0, 1]")
    jump_rel = np.expm1(rule.points(p.m, p.v))
    values = (1.0 + q[..., None] * jump_rel) ** (1.0 - p.R)
    return (values @ rule.weights) / _SQRT_PI


def phi2(q: float, m_prime: float, v_prime: float, p: ModelParams,
         rule: QuadratureRule) -> float:
    """Posterior utility moment E[U(1 + q (e^X - 1))], X ~ N(m', v').

    Equals g(q)/(1 - R) when (m', v') are the unconditional jump parameters.
    """
    q = _check_q(q)
    if not v_prime > 0.0:
        raise ValueError(f"v_prime must be > 0, got {v_prime}")
    return float(phi2_many(q, m_prime, v_prime, p, rule))


def phi2_many(q: np.ndarray, m_prime: float, v_prime: float, p: ModelParams,
              rule: QuadratureRule) -> np.ndarray:
    """Vectorized phi2 over exposures in [0, 1]: g under N(m', v'), / (1 - R)."""
    return g_of_q_many(q, replace(p, m=m_prime, v=v_prime), rule) / (1.0 - p.R)


def posterior_of_jump(eta, p: ModelParams):
    """(mean, var) of the jump size's posterior N(eta + v_eps (m - eta)/(v + v_eps),
    v v_eps/(v + v_eps)) given the signal eta: exactly (eta, 0) at v_eps = 0."""
    denom = p.v + p.v_eps
    return eta + p.v_eps * (p.m - eta) / denom, p.v * p.v_eps / denom


def signal_grid(p: ModelParams, size: int = 201) -> np.ndarray:
    """`size` evenly spaced signals over m +- 6 sd of the signal law."""
    half = _GRID_HALFWIDTH_SD * math.sqrt(p.v + p.v_eps)
    return np.linspace(p.m - half, p.m + half, size)


def signal_law(p: ModelParams, edges: np.ndarray, breaks=()):
    """Increasing signals and probabilities (summing to 1) of the signal law
    N(m, v + v_eps): 2-point Gauss-Legendre nodes on each cell of the grid
    `edges` and of twelve more cells a side out to m +- 9 sd, every cell cut at
    the `breaks` inside, with the normal density times the weights."""
    sd = math.sqrt(p.v + p.v_eps)
    cuts = np.concatenate((
        np.linspace(p.m - _TAIL_SD * sd, edges[0], _TAIL_CELLS + 1)[:-1], edges,
        np.linspace(edges[-1], p.m + _TAIL_SD * sd, _TAIL_CELLS + 1)[1:]))
    breaks = np.asarray(breaks, dtype=float)
    # np.sort, not np.union1d: np.unique's first call imports numpy.ma (~10 ms)
    cuts = np.sort(np.concatenate((cuts, breaks[(breaks > cuts[0]) & (breaks < cuts[-1])])))
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * np.diff(cuts)
    eta = (mid[:, None] + half[:, None] * np.array([-1.0, 1.0]) / math.sqrt(3.0)).ravel()
    probs = np.repeat(half, 2) * np.exp(-0.5 * ((eta - p.m) / sd) ** 2)
    return eta, probs / probs.sum()


def psi_double_integral(psi: Callable, a_coef: float, p: ModelParams,
                        rule: QuadratureRule, breaks=()) -> float:
    """E[psi(X1 + X2) k(X1)], k(x) = (1 + a (e^x - 1))^(-R), X1 ~ N(m, v),
    X2 ~ N(0, v_eps): E[psi(eta) E[k(X1) | eta]] over the signal eta = X1 +
    X2 on signal_law (signal_grid cut at psi's `breaks`), with the posterior
    moment on `rule` (the point eta at v_eps = 0)."""
    a_coef = float(a_coef)
    if not 0.0 <= a_coef <= 1.0:
        raise ValueError(f"a_coef must be in [0, 1], got {a_coef}")
    eta, probs = signal_law(p, signal_grid(p), breaks)
    psi_values = _values_at(psi, eta)
    if not np.all(np.isfinite(psi_values)):
        raise ValueError("psi is non-finite at a quadrature node")
    mean, var = posterior_of_jump(eta, p)
    k = (1.0 + a_coef * np.expm1(rule.points(mean, var))) ** (-p.R) @ rule.probs
    return float(probs @ (psi_values * k))
