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
raises ParameterError when the parameters fail a hard check.

For the two insiders the post-first-jump closed forms include the deflator
renewal factor across T1: A2/f0 = 1/g(a_star) for the timing insider and
A3/h(eta0) for the signal insider. Given T1, the timing insider's e^(rt) Y
keeps mean 1 up to the jump (its drift integrates to log(f(T1)/f0), which
the move of f from f(T1) to f0 cancels), so the timing price is
e^(-t1) (A2/f0) times the double integral given T1 = t1 and
lam/(lam + 1) (A2/f0) times it on average.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import multiprocessing

import numpy as np

from .agents import (
    MertonSolution,
    RegimeSolutions,
    SignalInsiderSolution,
    TimingInsiderSolution,
    UninformedSolution,
    _pre_jump_rate,
    posterior_of_jump,
    q_bar_signal,
)
from .errors import DomainError, GateError
from .model import (
    ConstantStream,
    ExpUntilFirstJumpStream,
    IncomeStream,
    ModelParams,
    PostFirstJumpSignalStream,
    require_valid_params,
)
from .quadrature import QuadratureRule, default_rule, psi_double_integral
from .simulate import SimConfig, path_integrals

__all__ = [
    "Conditioning",
    "PriceEstimate",
    "InfoValueReport",
    "PriceRow",
    "price_mc",
    "closed_form_price",
    "alpha_coef",
    "beta_coef",
    "truncation_bound",
    "estimate_to_dict",
    "info_value_report",
    "n_workers",
]

WORKERS_ENV = "INFOPRICE_WORKERS"


def n_workers() -> int:
    """Worker count for the path reduction: INFOPRICE_WORKERS or min(2, cpus)."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Conditioning:
    """Pin the first jump time (timing insider) or first signal (signal insider)."""

    t1: float | None = None
    eta0: float | None = None

    def __post_init__(self):
        if self.t1 is not None and self.eta0 is not None:
            raise ValueError("condition on t1 or eta0, not both")
        if self.t1 is not None and not self.t1 > 0.0:
            raise ValueError("t1 must be > 0")

    @property
    def empty(self) -> bool:
        return self.t1 is None and self.eta0 is None


@dataclass(frozen=True)
class PriceEstimate:
    mean: float
    std_error: float
    n_paths: int
    horizon: float
    truncation_bound: float
    regime: str
    conditioning: Conditioning | None = None

    def tolerance(self, n_se: float = 3.0) -> float:
        return n_se * self.std_error + self.truncation_bound


def _check_conditioning(regime: str, conditioning: Conditioning | None) -> Conditioning:
    cond = conditioning or Conditioning()
    if cond.t1 is not None and regime != "timing":
        raise ValueError("conditioning on t1 is only meaningful for the timing insider")
    if cond.eta0 is not None and regime != "signal":
        raise ValueError("conditioning on eta0 is only meaningful for the signal insider")
    return cond


def alpha_coef(sol: UninformedSolution, p: ModelParams) -> float:
    """Exponential growth rate of the pre-first-jump pricing factor for the
    uninformed agent: r - rho + R(-r - q (mu-r) + A1^(-1/R) + (R+1) sigma^2 q^2 / 2)."""
    return _pre_jump_rate(sol.q_bar1, sol.A1, p)


def beta_coef(eta0: float, sol: SignalInsiderSolution, p: ModelParams,
              rule: QuadratureRule) -> float:
    """Signal-conditional analogue of alpha, with h(eta0) and q_bar(eta0)."""
    return _pre_jump_rate(q_bar_signal(sol, p, eta0, rule),
                          float(sol.h_at(eta0)), p)


def _posterior_mean_factor(eta0: float, q: float, p: ModelParams,
                           rule: QuadratureRule) -> float:
    """E[(1 + q (e^X - 1))^(-R)] under the jump-size posterior given eta0."""
    m_post, v_post = posterior_of_jump(eta0, p)
    jump_rel = np.expm1(m_post + math.sqrt(2.0 * v_post) * rule.nodes)
    vals = (1.0 + q * jump_rel) ** (-p.R)
    return float(rule.weights @ vals) / math.sqrt(math.pi)


def _p0_average(f, p: ModelParams, rule: QuadratureRule) -> float:
    """Average of f(eta) under the signal law N(m, v + v_eps)."""
    pts = p.m + math.sqrt(2.0 * (p.v + p.v_eps)) * rule.nodes
    vals = np.array([f(float(e)) for e in pts])
    return float(rule.weights @ vals) / math.sqrt(math.pi)


_NO_JUMP_KEY = "the merton benchmark has no jump to key this stream on"


def _pre_jump_tail(regime: str, p: ModelParams, sols: RegimeSolutions,
                   cond: Conditioning, rule: QuadratureRule,
                   horizon: float) -> float:
    """Price mass of the pre-first-jump stream exp(r t) 1[t < T1] beyond
    `horizon`: its closed form at horizon 0, its truncation bound otherwise.

    With E[e^{rt} Y_t] = 1 the deflated stream decays at lam - alpha for the
    uninformed agent, at lam - beta(eta0) for the signal insider given eta0,
    and at lam for the timing insider (a pinned T1 leaves the gap T1 - H).
    Raises DomainError where the rate is not positive (the value diverges)
    and GateError under the merton benchmark, which has no jump.
    """
    if regime == "uninformed":
        rate = p.lam - alpha_coef(sols.uninformed, p)
        if rate <= 0.0:
            raise DomainError(f"lam - alpha = {rate:.6g} <= 0: value diverges")
        return math.exp(-rate * horizon) / rate
    if regime == "timing":
        if cond.t1 is not None:
            return max(0.0, cond.t1 - horizon)
        if p.lam <= 0.0:
            raise DomainError("lam = 0: the pre-jump stream never terminates")
        return math.exp(-p.lam * horizon) / p.lam
    if regime == "signal":
        def conditional(eta):
            rate = p.lam - beta_coef(eta, sols.signal, p, rule)
            if rate <= 0.0:
                raise DomainError(
                    f"lam - beta({eta:.4g}) = {rate:.6g} <= 0: value diverges")
            return math.exp(-rate * horizon) / rate
        if cond.eta0 is not None:
            return conditional(cond.eta0)
        return _p0_average(conditional, p, rule)
    raise GateError(_NO_JUMP_KEY)


def truncation_bound(e: IncomeStream, regime: str, p: ModelParams,
                     sols: RegimeSolutions, horizon: float,
                     conditioning: Conditioning | None = None,
                     rule: QuadratureRule | None = None) -> float:
    """Analytic bound on the price mass beyond the horizon.

    Uses E[e^{rt} Y_t] = 1 (the deflators price the bank account) plus the
    per-stream decay rates; raises DomainError when the relevant rate is not
    positive, in which case no finite-horizon run can be trusted.
    """
    rule = rule or default_rule()
    cond = _check_conditioning(regime, conditioning)
    require_valid_params(p)
    if isinstance(e, ConstantStream):
        return abs(e.level) * math.exp(-p.r * horizon) / p.r
    if isinstance(e, ExpUntilFirstJumpStream):
        return _pre_jump_tail(regime, p, sols, cond, rule, horizon)
    if isinstance(e, PostFirstJumpSignalStream):
        if regime == "merton":
            raise GateError(_NO_JUMP_KEY)
        return e.psi_bound * math.exp(-horizon)
    raise TypeError(f"not an income stream: {e!r}")


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def _mc_task(args):
    p, sol, cfg, stream, pin_t1, pin_eta0, start, count = args
    vals = path_integrals(p, sol, cfg, stream, pin_t1=pin_t1, pin_eta0=pin_eta0,
                          path_offset=start, n_paths=count)
    return start, vals


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
    it is reconstructed for the regimes required.
    """
    regime = cfg.regime
    cond = _check_conditioning(regime, conditioning)
    if sols is None:
        sols = _solutions_for_bound(sol)
    # also the parameter, stream-type and merton-gate checks
    bound = truncation_bound(e, regime, p, sols, cfg.horizon, cond, rule)

    workers = n_workers() if workers is None else max(1, int(workers))
    vals = np.empty(cfg.n_paths)
    if workers == 1 or cfg.n_paths < 4096:
        vals[:] = path_integrals(p, sol, cfg, e, pin_t1=cond.t1, pin_eta0=cond.eta0)
    else:
        share = (cfg.n_paths + workers - 1) // workers
        tasks = []
        start = 0
        while start < cfg.n_paths:
            count = min(share, cfg.n_paths - start)
            tasks.append((p, sol, cfg, e, cond.t1, cond.eta0, start, count))
            start += count
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            for s, chunk in pool.map(_mc_task, tasks):
                vals[s:s + len(chunk)] = chunk
    mean = math.fsum(vals) / cfg.n_paths
    if cfg.n_paths > 1:
        var = math.fsum((v - mean) ** 2 for v in vals) / (cfg.n_paths - 1)
        se = math.sqrt(var / cfg.n_paths)
    else:
        se = 0.0
    return PriceEstimate(mean=mean, std_error=se, n_paths=cfg.n_paths,
                         horizon=cfg.horizon, truncation_bound=bound,
                         regime=regime, conditioning=None if cond.empty else cond)


def _solutions_for_bound(sol) -> RegimeSolutions:
    """Wrap a single regime solution so truncation_bound can read it."""
    return RegimeSolutions(
        uninformed=sol if isinstance(sol, UninformedSolution) else None,
        timing=sol if isinstance(sol, TimingInsiderSolution) else None,
        signal=sol if isinstance(sol, SignalInsiderSolution) else None,
        merton=sol if isinstance(sol, MertonSolution) else None,
    )


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
    (lam - alpha > 0, lam + 1 - alpha > 0, the beta analogues) fails,
    ParameterError when p fails a hard check, and TypeError for anything
    that is not one of the three streams.
    """
    rule = rule or default_rule()
    cond = _check_conditioning(regime, conditioning)
    require_valid_params(p)

    if isinstance(e, ConstantStream):
        return e.level / p.r

    if isinstance(e, ExpUntilFirstJumpStream):
        if regime == "merton":
            return None
        return _pre_jump_tail(regime, p, sols, cond, rule, 0.0)

    if isinstance(e, PostFirstJumpSignalStream):
        if p.lam <= 0.0:
            return 0.0      # the stream never starts
        if regime == "uninformed":
            alpha = alpha_coef(sols.uninformed, p)
            denom = p.lam + 1.0 - alpha
            if denom <= 0.0:
                raise DomainError(f"lam + 1 - alpha = {denom:.6g} <= 0: value diverges")
            dbl = psi_double_integral(e.psi, sols.uninformed.q_bar1, p, rule)
            return p.lam / denom * dbl
        if regime == "timing":
            # e^(-T1) averages to lam/(lam + 1) over T1 ~ Exp(lam)
            sol = sols.timing
            dbl = psi_double_integral(e.psi, sol.a_star, p, rule)
            weight = (math.exp(-cond.t1) if cond.t1 is not None
                      else p.lam / (p.lam + 1.0))
            return weight * (sol.A2 / sol.f0) * dbl
        if regime == "signal":
            def conditional(eta):
                q = q_bar_signal(sols.signal, p, eta, rule)
                h = float(sols.signal.h_at(eta))
                denom = p.lam + 1.0 - _pre_jump_rate(q, h, p)
                if denom <= 0.0:
                    raise DomainError(
                        f"lam + 1 - beta({eta:.4g}) = {denom:.6g} <= 0: value diverges")
                post = _posterior_mean_factor(eta, q, p, rule)
                psi_val = float(e.psi(eta))
                return psi_val * (sols.signal.A3 / h) * p.lam / denom * post
            if cond.eta0 is not None:
                return conditional(cond.eta0)
            return _p0_average(conditional, p, rule)
        return None

    raise TypeError(f"not an income stream: {e!r}")


# ---------------------------------------------------------------------------
# Information-value report
# ---------------------------------------------------------------------------

def estimate_to_dict(stream_label: str, regime: str, method: str,
                     mean: float, conditioning: Conditioning | None = None,
                     est: PriceEstimate | None = None) -> dict:
    """Canonical report record for one priced (stream, regime, method)."""
    cond = None
    if conditioning is not None and not conditioning.empty:
        cond = {"t1": conditioning.t1, "eta0": conditioning.eta0}
    return {
        "stream": stream_label,
        "regime": regime,
        "method": method,
        "mean": mean,
        "std_error": None if est is None else est.std_error,
        "truncation_bound": None if est is None else est.truncation_bound,
        "n_paths": None if est is None else est.n_paths,
        "horizon": None if est is None else est.horizon,
        "conditioning": cond,
    }


@dataclass(frozen=True)
class PriceRow:
    regime: str
    conditioning: Conditioning | None
    closed_form: float | None
    mc: PriceEstimate | None

    def best(self) -> float:
        if self.closed_form is not None:
            return self.closed_form
        if self.mc is not None:
            return self.mc.mean
        raise ValueError("empty price row")


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
            cond_eta = None if r.conditioning is None else r.conditioning.eta0
            if r.regime == regime and cond_eta == eta0:
                return r
        raise KeyError((regime, eta0))


def _stream_label(e: IncomeStream) -> str:
    if isinstance(e, ConstantStream):
        return f"constant:{e.level:g}"
    if isinstance(e, ExpUntilFirstJumpStream):
        return "exp_until_jump"
    return f"post_jump_signal:{e.psi_name}"


def info_value_report(e: IncomeStream, p: ModelParams, cfg: SimConfig,
                      conditioning_grid: list[float] | None = None,
                      sols: RegimeSolutions | None = None,
                      rule: QuadratureRule | None = None,
                      with_mc: bool = False) -> InfoValueReport:
    """Prices per regime plus timing/signal information values.

    Closed forms are always computed where available; Monte Carlo runs are
    added when with_mc is set (using cfg for every regime). The signal value
    is reported per eta0 on the conditioning grid and averaged under the
    signal law.
    """
    rule = rule or default_rule()
    if sols is None:
        from .agents import solve_all
        sols = solve_all(p, rule)

    if conditioning_grid is None and isinstance(
            e, (ExpUntilFirstJumpStream, PostFirstJumpSignalStream)):
        sd = math.sqrt(p.v + p.v_eps)
        conditioning_grid = [p.m - 2.0 * sd, p.m, p.m + 2.0 * sd]
    conditioning_grid = conditioning_grid or []

    def build_row(regime: str, cond: Conditioning | None) -> PriceRow:
        sol = sols.for_regime(regime)
        try:
            cf = closed_form_price(e, regime, p, sols, cond, rule)
        except GateError:
            cf = None
        cf_val = None if cf is None else float(cf)
        mc = None
        if with_mc:
            try:
                run_cfg = SimConfig(horizon=cfg.horizon, dt=cfg.dt,
                                    n_paths=cfg.n_paths, seed=cfg.seed,
                                    regime=regime)
                mc = price_mc(e, sol, p, run_cfg, cond, sols=sols, rule=rule)
            except (GateError, DomainError):
                mc = None
        return PriceRow(regime=regime, conditioning=cond,
                        closed_form=cf_val, mc=mc)

    rows = [build_row("merton", None), build_row("uninformed", None),
            build_row("timing", None)]
    if sols.signal is not None:
        rows.append(build_row("signal", None))
        for eta in conditioning_grid:
            rows.append(build_row("signal", Conditioning(eta0=float(eta))))

    def find(regime, cond_eta=None):
        for r in rows:
            cond = r.conditioning
            eta = None if cond is None else cond.eta0
            if r.regime == regime and eta == cond_eta:
                return r
        return None

    base = find("uninformed").best()
    timing_value = find("timing").best() - base
    signal_row = find("signal")
    signal_value = (signal_row.best() - base) if signal_row else math.nan
    signal_conditionals = tuple(
        (float(eta), find("signal", float(eta)).best())
        for eta in conditioning_grid if find("signal", float(eta)) is not None)

    return InfoValueReport(
        stream=_stream_label(e),
        rows=tuple(rows),
        timing_information_value=timing_value,
        signal_information_value=signal_value,
        signal_conditional_values=signal_conditionals,
    )
