"""Deterministic scalar maximization and fixed-point iteration.

No solver calls these: the exposures come from the concave kernel in
`agents` and the implicit constants from bracketed roots there. The tests
use maximize_bounded as a reference for that kernel. Both are pure
functions: identical inputs give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AmbiguousMaximumError, ConvergenceError

__all__ = ["SolveResult", "maximize_bounded", "fixed_point_scalar"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi for golden-section steps

SCAN_POINTS = 257
# Two scan values closer than this but far apart in argument mean the
# objective has near-tied maxima we refuse to choose between.
_TIE_VALUE_TOL = 1e-9


@dataclass(frozen=True)
class SolveResult:
    argument: float
    value: float
    iterations: int
    residual: float


def maximize_bounded(f: Callable[[float], float], lo: float, hi: float,
                     tol: float = 1e-10, max_iter: int = 200) -> SolveResult:
    """Maximize f on [lo, hi]: coarse 257-point scan, then golden section.

    For unimodal f the returned argument is within tol of the true maximizer.
    For general f the result is guaranteed to be at least as good as the best
    scan point. Near-tied distant scan maxima raise AmbiguousMaximumError;
    a non-finite objective value raises ValueError.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")

    grid = np.linspace(lo, hi, SCAN_POINTS)
    vals = np.array([float(f(x)) for x in grid])
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise ValueError(f"objective is non-finite at x={bad!r}")
    best = int(np.argmax(vals))
    spacing = (hi - lo) / (SCAN_POINTS - 1)

    order = np.argsort(vals)[::-1]
    runner = next((i for i in order[1:]
                   if abs(grid[i] - grid[best]) > 10.0 * spacing), None)
    if runner is not None and vals[best] - vals[runner] < _TIE_VALUE_TOL:
        raise AmbiguousMaximumError(
            f"near-tied maxima at x={grid[best]:.6g} and x={grid[runner]:.6g} "
            f"(values differ by {vals[best] - vals[runner]:.3g})")

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, SCAN_POINTS - 1)]

    # Golden-section refinement inside the bracketing cell pair.
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = float(f(c)), float(f(d))
    iterations = 0
    while b - a > tol and iterations < max_iter:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise ValueError("objective became non-finite during refinement")
        iterations += 1

    x_star = 0.5 * (a + b)
    f_star = float(f(x_star))
    # Keep the scan guarantee: never return something worse than the scan max.
    if f_star < vals[best]:
        x_star, f_star = float(grid[best]), float(vals[best])
    x_star = min(max(x_star, lo), hi)
    return SolveResult(argument=x_star, value=f_star,
                       iterations=iterations, residual=abs(b - a))


def fixed_point_scalar(mapping: Callable[[float], float], x0: float,
                       tol: float = 1e-12, max_iter: int = 500,
                       damping: float = 1.0,
                       x_max: float = 1e12) -> SolveResult:
    """Solve x = mapping(x) by damped iteration x <- (1-d) x + d mapping(x).

    Stops when |mapping(x) - x| <= tol. The iterate must stay inside
    (0, x_max); leaving that bracket or exhausting max_iter raises
    ConvergenceError.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if not x0 > 0.0:
        raise ValueError("x0 must be > 0")
    x = float(x0)
    for it in range(max_iter):
        fx = float(mapping(x))
        resid = abs(fx - x)
        if resid <= tol:
            return SolveResult(argument=x, value=fx, iterations=it, residual=resid)
        x = (1.0 - damping) * x + damping * fx
        if not (0.0 < x < x_max) or not math.isfinite(x):
            raise ConvergenceError(
                f"fixed-point iterate left (0, {x_max:g}) at iteration {it}: x={x!r}")
    raise ConvergenceError(
        f"fixed point not reached in {max_iter} iterations (|f(x)-x|={resid:.3g} > {tol:g})")
