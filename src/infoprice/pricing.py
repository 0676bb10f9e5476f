"""Monte Carlo and closed-form indifference prices, and information values.

The price of an income stream e under a regime is E[integral of Y_t e_t dt]
along that regime's state-price density Y. The Monte Carlo estimator
integrates each simulated path by trapezoid on the composite grid and
truncates at the horizon, reporting an analytic bound for the discarded
tail. Three stream families admit closed forms that the estimator is
cross-checked against:

* constant streams are worth level / r in every regime;
* the pre-first-jump stream exp(r t) 1[t < T1] is worth T1 to the timing
  insider given T1 (1/lam on average), 1/(lam - alpha) to the uninformed
  agent, and 1/(lam - beta(eta0)) to the signal insider given eta0;
* the post-first-jump stream exp((r-1) t) 1[t >= T1] Psi(eta0) reduces to
  Gaussian integrals of Psi against the jump and signal laws.

These three streams are the whole stream API (see `model`). The pre-jump
stream's closed form and its truncation bound are one tail integral of the
deflated stream, taken from 0 and from the horizon. Every pricing entry point
raises ParameterError when the parameters fail a hard check and TypeError for
anything that is not one of the three streams.

For the two insiders the post-first-jump closed forms include the deflator
renewal factor across T1: A2/f0 = 1/g(a_star) for the timing insider and
M_1/h(eta0) for the signal insider. Given T1, the timing insider's e^(rt) Y
keeps mean 1 up to the jump (its drift integrates to log(f(T1)/f0), which
the move of f from f(T1) to f0 cancels), so the timing price is
e^(-t1) (A2/f0) times the double integral given T1 = t1 and
lam/(lam + 1) (A2/f0) times it on average. The signal insider's e^(rt) Y
loses mean where the bound q* <= 1 binds, so M_1 is not A3 but the Laplace
transform at rate 1 of E[e^(rt) Y_t] after a fresh signal:
M_1 = E_p0[h/(1 + lam - beta)] / (1 - lam E_p0[kappa/(1 + lam - beta)]),
with p0 the signal law N(m, v + v_eps) and kappa(eta) the posterior mean of
(1 + q* (e^X - 1))^(-R); agents.signal_terms gives h, beta and kappa. Every
average over the signal law is one array pass over the Gauss-Hermite nodes of
p0 (a pinned eta0 is the one-node case). A Conditioning pins the regime its
`regime` property names, and any other regime rejects it with ValueError.
The merton benchmark prices neither jump-keyed stream (it has no jump).

info_value_report takes the information values as price differences between
the regimes solve_all returns, leaving out a gated signal regime.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
import multiprocessing

import numpy as np

from .agents import (
    REGIMES,
    RegimeSolutions,
    SignalInsiderSolution,
    signal_terms,
    solve_all,
)
from .errors import DomainError, GateError
from .model import (
    Conditioning,
    ExpUntilFirstJumpStream,
    IncomeStream,
    ModelParams,
    PostFirstJumpSignalStream,
    require_stream,
    require_valid_params,
)
from .quadrature import QuadratureRule, default_rule, psi_double_integral
from .simulate import SimConfig, _check_regime, path_integrals

__all__ = [
    "Conditioning",
    "PriceEstimate",
    "InfoValueReport",
    "PriceRow",
    "price_mc",
    "closed_form_price",
    "truncation_bound",
    "info_value_report",
    "n_workers",
]

WORKERS_ENV = "INFOPRICE_WORKERS"


def n_workers(workers: int | None = None) -> int:
    """Worker count for the path reduction: `workers`, else INFOPRICE_WORKERS,
    capped at the CPU count (a forked pool starts every worker at once), or
    min(2, cpus) if neither is given."""
    cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return min(2, cpus)
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return min(cpus, max(1, int(workers)))


@dataclass(frozen=True)
class PriceEstimate:
    mean: float
    std_error: float
    n_paths: int
    horizon: float
    truncation_bound: float
    regime: str
    conditioning: Conditioning = Conditioning()


def _check_entry(e: IncomeStream, regime: str, p: ModelParams,
                 conditioning: Conditioning | None) -> Conditioning:
    """The checks of every pricing entry point, in order: the pin, the hard
    parameter checks and the stream type. Returns the pin."""
    cond = conditioning or Conditioning()
    if cond.regime not in (None, regime):
        raise ValueError(f"{cond} is only meaningful for the {cond.regime} insider, "
                         f"not the {regime} regime")
    require_valid_params(p)
    require_stream(e)
    return cond


def _signal_law(p: ModelParams, rule: QuadratureRule, cond: Conditioning):
    """Signals and weights of an average over the first signal: the pinned
    eta0 alone, else the rule's nodes of the signal law N(m, v + v_eps)."""
    if cond.eta0 is not None:
        return np.array([cond.eta0]), np.ones(1)
    return rule.points(p.m, p.v + p.v_eps), rule.probs


def _signal_rates(sol: SignalInsiderSolution, p: ModelParams, eta: np.ndarray,
                  rule: QuadratureRule, s: float):
    """(h, s + lam - beta, kappa) at each signal; raises DomainError, naming
    the first signal where s + lam - beta <= 0 (the value diverges)."""
    _, h, beta, kappa = signal_terms(sol, p, eta, rule)
    rate = s + p.lam - beta
    for x, r in zip(eta, rate):
        if r <= 0.0:
            raise DomainError(f"lam{' + 1' if s else ''} - beta({x:.4g}) = "
                              f"{r:.6g} <= 0: value diverges")
    return h, rate, kappa


def _pre_jump_tail(regime: str, p: ModelParams, sol, cond: Conditioning,
                   rule: QuadratureRule, horizon: float) -> float:
    """Price mass of the pre-first-jump stream exp(r t) 1[t < T1] beyond
    `horizon`: its closed form at horizon 0, its truncation bound otherwise.

    With E[e^{rt} Y_t] = 1 the deflated stream decays at lam - alpha for the
    uninformed agent, at lam - beta(eta0) for the signal insider given eta0,
    and at lam for the timing insider (a pinned T1 leaves the gap T1 - H).
    Raises DomainError where the rate is not positive (the value diverges).
    The callers keep the merton benchmark, which has no jump, out.
    """
    if regime == "uninformed":
        rate = p.lam - sol.alpha
        if rate <= 0.0:
            raise DomainError(f"lam - alpha = {rate:.6g} <= 0: value diverges")
        return math.exp(-rate * horizon) / rate
    if regime == "timing":
        if cond.t1 is not None:
            return max(0.0, cond.t1 - horizon)
        if p.lam <= 0.0:
            raise DomainError("lam = 0: the pre-jump stream never terminates")
        return math.exp(-p.lam * horizon) / p.lam
    eta, w = _signal_law(p, rule, cond)
    rate = _signal_rates(sol, p, eta, rule, 0.0)[1]
    return float(w @ (np.exp(-rate * horizon) / rate))


def _post_jump_signal(e: PostFirstJumpSignalStream, p: ModelParams,
                      sol: SignalInsiderSolution, cond: Conditioning,
                      rule: QuadratureRule) -> float:
    """The signal insider's price of exp((r-1) t) 1[t >= T1] Psi(eta0):
    Psi(eta0) (M_1/h(eta0)) lam kappa(eta0)/(lam + 1 - beta(eta0)) given
    eta0, averaged over the signal law unless eta0 is pinned."""
    eta0, w0 = _signal_law(p, rule, cond)
    nodes, w = _signal_law(p, rule, Conditioning())
    # a pinned eta0 goes first, so its divergence is the one reported
    eta = nodes if cond.eta0 is None else np.append(eta0, nodes)
    h, rate, kappa = _signal_rates(sol, p, eta, rule, 1.0)
    resolvent = 1.0 - p.lam * float(w @ (kappa / rate)[-len(w):])
    if resolvent <= 0.0:
        raise DomainError(f"1 - lam E[kappa/(lam + 1 - beta)] = {resolvent:.6g}"
                          " <= 0: value diverges")
    m1 = float(w @ (h / rate)[-len(w):]) / resolvent
    k = len(eta0)
    psi = e.psi_at(eta0)
    return float(w0 @ (psi * (m1 / h[:k]) * p.lam / rate[:k] * kappa[:k]))


def truncation_bound(e: IncomeStream, regime: str, p: ModelParams,
                     sols: RegimeSolutions, horizon: float,
                     conditioning: Conditioning | None = None,
                     rule: QuadratureRule | None = None) -> float:
    """Analytic bound on the price mass beyond the horizon.

    Uses E[e^{rt} Y_t] = 1 (the deflators price the bank account) plus the
    per-stream decay rates; raises DomainError when the relevant rate is not
    positive, in which case no finite-horizon run can be trusted, and
    GateError for a jump-keyed stream under the merton benchmark.
    """
    rule = rule or default_rule()
    cond = _check_entry(e, regime, p, conditioning)
    if not e.jump_keyed:
        return abs(e.level) * math.exp(-p.r * horizon) / p.r
    if regime == "merton":
        raise GateError("the merton benchmark has no jump to key this stream on")
    if isinstance(e, ExpUntilFirstJumpStream):
        return _pre_jump_tail(regime, p, sols.for_regime(regime), cond, rule, horizon)
    return e.psi_bound * math.exp(-horizon)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

_JOB = ()   # a forked worker's path_integrals arguments before the path slice


def _start_worker(*job):
    global _JOB
    _JOB = job


def _mc_task(start, count):
    return path_integrals(*_JOB, start, count)


def price_mc(e: IncomeStream, sol, p: ModelParams, cfg: SimConfig,
             conditioning: Conditioning | None = None,
             sols: RegimeSolutions | None = None,
             rule: QuadratureRule | None = None,
             workers: int | None = None) -> PriceEstimate:
    """Monte Carlo indifference price of a stream under one regime.

    Per path, the integral of deflator times stream runs by trapezoid on the
    composite grid up to the horizon; the mean and standard error are taken
    across paths in path order (exact summation, so the result is identical
    for any worker count). `sols` is only needed to compute the truncation
    bound for streams whose tail rate involves other constants; if omitted
    it is reconstructed for the regimes required. `workers` defaults to
    INFOPRICE_WORKERS, and `n_workers` caps either at the CPU count. `sol`
    must be the solution of cfg.regime (TypeError otherwise).
    """
    regime = cfg.regime
    _check_regime(regime, sol)
    cond = conditioning or Conditioning()
    if sols is None:    # sol in its own slot is all that the bound reads
        sols = RegimeSolutions(**{r: sol if r == regime else None for r in REGIMES})
    # also the entry checks and the merton gate
    bound = truncation_bound(e, regime, p, sols, cfg.horizon, cond, rule)

    workers = n_workers(workers)
    job = (p, sol, cfg, e, cond.t1, cond.eta0)
    if workers == 1 or cfg.n_paths < 4096:
        vals = path_integrals(*job)
    else:
        share = (cfg.n_paths + workers - 1) // workers
        starts = range(0, cfg.n_paths, share)
        counts = [min(share, cfg.n_paths - s) for s in starts]
        # forked workers inherit the job as the initializer's arguments, so
        # none of it is pickled (psi may be a lambda or a closure)
        with ProcessPoolExecutor(max_workers=len(starts),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=job) as pool:
            vals = np.concatenate(list(pool.map(_mc_task, starts, counts)))
    mean = math.fsum(vals) / cfg.n_paths
    if cfg.n_paths > 1:
        var = math.fsum((v - mean) ** 2 for v in vals) / (cfg.n_paths - 1)
        se = math.sqrt(var / cfg.n_paths)
    else:
        se = 0.0
    return PriceEstimate(mean=mean, std_error=se, n_paths=cfg.n_paths,
                         horizon=cfg.horizon, truncation_bound=bound,
                         regime=regime, conditioning=cond)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_price(e: IncomeStream, regime: str, p: ModelParams,
                      sols: RegimeSolutions,
                      conditioning: Conditioning | None = None,
                      rule: QuadratureRule | None = None):
    """Closed-form price, or None under the merton benchmark for the two
    jump-keyed streams.

    Raises DomainError when the formula's convergence condition
    (lam - alpha > 0, lam + 1 - alpha > 0, the beta analogues, a positive
    denominator of M_1) fails, GateError where `sols` holds no solution for
    the regime, ParameterError when p fails a hard check, SimulationError
    where psi exceeds its bound at a signal it is evaluated at (as the
    engine does), and TypeError for anything that is not one of the three
    streams.
    """
    rule = rule or default_rule()
    cond = _check_entry(e, regime, p, conditioning)
    if not e.jump_keyed:
        return e.level / p.r
    pre_jump = isinstance(e, ExpUntilFirstJumpStream)
    if not pre_jump and p.lam <= 0.0:
        return 0.0      # the post-jump stream never starts, under every regime
    if regime == "merton":
        return None
    sol = sols.for_regime(regime)
    if pre_jump:
        return _pre_jump_tail(regime, p, sol, cond, rule, 0.0)
    if regime == "uninformed":
        denom = p.lam + 1.0 - sol.alpha
        if denom <= 0.0:
            raise DomainError(f"lam + 1 - alpha = {denom:.6g} <= 0: value diverges")
        dbl = psi_double_integral(e.psi_at, sol.q_bar1, p, rule)
        return p.lam / denom * dbl
    if regime == "timing":
        # e^(-T1) averages to lam/(lam + 1) over T1 ~ Exp(lam)
        dbl = psi_double_integral(e.psi_at, sol.a_star, p, rule)
        weight = (math.exp(-cond.t1) if cond.t1 is not None
                  else p.lam / (p.lam + 1.0))
        return weight * (sol.A2 / sol.f0) * dbl
    return _post_jump_signal(e, p, sol, cond, rule)


# ---------------------------------------------------------------------------
# Information-value report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriceRow:
    regime: str
    conditioning: Conditioning
    closed_form: float | None
    mc: PriceEstimate | None


@dataclass(frozen=True)
class InfoValueReport:
    """Per-regime prices of one stream and the implied information values."""

    stream: str
    rows: tuple[PriceRow, ...]
    timing_information_value: float
    signal_information_value: float
    signal_conditional_values: tuple[tuple[float, float], ...]  # (eta0, price)

    def row(self, regime: str, eta0: float | None = None) -> PriceRow:
        for r in self.rows:
            if r.regime == regime and r.conditioning.eta0 == eta0:
                return r
        raise KeyError((regime, eta0))


def info_value_report(e: IncomeStream, p: ModelParams, cfg: SimConfig,
                      sols: RegimeSolutions | None = None,
                      rule: QuadratureRule | None = None,
                      with_mc: bool = False) -> InfoValueReport:
    """Prices per regime plus timing/signal information values.

    Closed forms are always computed where available, and the information
    values are their differences; Monte Carlo runs are added beside them when
    with_mc is set (using cfg for every regime). The signal value
    is averaged under the signal law and, for the two jump-keyed streams,
    also reported given eta0 at m and m +- 2 sd of the signal law. sols
    defaults to solve_all(p, rule); where the signal regime is gated (None)
    its rows are left out and its value is NaN.
    """
    require_stream(e)
    rule = rule or default_rule()
    if sols is None:
        sols = solve_all(p, rule)
    grid = []
    if e.jump_keyed:
        sd = math.sqrt(p.v + p.v_eps)
        grid = [float(eta) for eta in (p.m - 2.0 * sd, p.m, p.m + 2.0 * sd)]

    def build_row(regime: str, cond: Conditioning) -> PriceRow:
        sol = sols.for_regime(regime)
        cf = closed_form_price(e, regime, p, sols, cond, rule)
        cf_val = None if cf is None else float(cf)
        mc = None
        if with_mc:
            try:
                mc = price_mc(e, sol, p, replace(cfg, regime=regime),
                              cond, sols=sols, rule=rule)
            except DomainError:     # a gate or a divergent value
                pass
        return PriceRow(regime=regime, conditioning=cond,
                        closed_form=cf_val, mc=mc)

    keys = [("merton", None), ("uninformed", None), ("timing", None)]
    if sols.signal is not None:
        keys += [("signal", None)] + [("signal", eta) for eta in grid]
    rows = {(regime, eta): build_row(regime, Conditioning(eta0=eta))
            for regime, eta in keys}
    # closed-form differences: only the merton row, which none reads, may lack one
    base = rows["uninformed", None].closed_form
    signal = rows.get(("signal", None))
    return InfoValueReport(
        stream=e.label,
        rows=tuple(rows.values()),
        timing_information_value=rows["timing", None].closed_form - base,
        signal_information_value=(math.nan if signal is None
                                  else signal.closed_form - base),
        signal_conditional_values=tuple((eta, rows["signal", eta].closed_form)
                                        for eta in grid if ("signal", eta) in rows),
    )
