"""Gauss-Hermite kernels for the Gaussian expectations of the model.

All integrals in the model are expectations of smooth functions under a
normal law: the jump-utility moment g(q), the posterior utility moment
phi2(q; m', v'), and the bivariate payoff integral for streams keyed to the
first jump and its signal. A fixed-order Gauss-Hermite rule (physicists'
convention, weight exp(-x^2)) is accurate far beyond the tolerances needed
here because the integrands are analytic with Gaussian decay.

g_of_q serves the uninformed and timing solves; the signal insider takes
phi2 and kappa in agents over its posterior nodes, so phi2 and phi2_many
have no caller in the package.

For X ~ N(mean, var) and nodes/weights (x_i, w_i), every module takes the
points mean + sqrt(2 var) x_i and probabilities w_i / sqrt(pi) from
QuadratureRule.points and QuadratureRule.probs:

    E[f(X)] ~= sum_i w_i f(mean + sqrt(2 var) x_i) / sqrt(pi)

gauss_jacobi gives the one non-Gaussian rule, for averages under the
density c t^(c-1) on [0, 1] that the timing insider's renewal equation
needs.
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
]

DEFAULT_ORDER = 64
JACOBI_ORDER = 32

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule for weight exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

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
    with exponents (0, c - 1) moved to [0, 1], from the eigenvectors of its
    three-term recurrence matrix (Golub and Welsch 1969). With b = c - 1 the
    matrix has diagonal c/(c+1), then 1/2 + b^2/(2 s (s+2)) with s = 2n + b,
    and off-diagonal n (n+b) / (s sqrt((s-1)(s+1))) for n = 1, 2, ...
    """
    b = c - 1.0
    n = np.arange(1.0, JACOBI_ORDER)
    s = 2.0 * n + b
    diag = np.concatenate(([c / (c + 1.0)], 0.5 + 0.5 * b * b / (s * (s + 2.0))))
    off = n * (n + b) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    probs = vectors[0] ** 2
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


def psi_double_integral(psi: Callable, a_coef: float, p: ModelParams,
                        rule: QuadratureRule) -> float:
    """E[psi(X1 + X2) (1 + a (e^X1 - 1))^(-R)], X1 ~ N(m, v), X2 ~ N(0, v_eps).

    Nested Gauss-Hermite: outer over the jump size X1, inner over the signal
    noise X2. With noiseless signals (v_eps = 0) every noise node is 0, so
    this is the one-dimensional integral over X1.
    """
    a_coef = float(a_coef)
    if not 0.0 <= a_coef <= 1.0:
        raise ValueError(f"a_coef must be in [0, 1], got {a_coef}")
    x1 = rule.points(p.m, p.v)                  # jump sizes
    x2 = rule.points(0.0, p.v_eps)              # noise
    psi_grid = _values_at(psi, x1[:, None] + x2[None, :])
    if not np.all(np.isfinite(psi_grid)):
        raise ValueError("psi is non-finite at a quadrature node")
    inner = psi_grid @ rule.weights / _SQRT_PI               # E over X2, per x1
    outer = (1.0 + a_coef * np.expm1(x1)) ** (-p.R) * inner
    return float(rule.weights @ outer) / _SQRT_PI
