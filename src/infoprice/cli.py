"""Command-line front end: solve regimes, price streams, compare, validate.

Subcommands
-----------
solve     print every regime's solved constants
price     Monte Carlo estimate and closed form (where available) side by side
compare   information-value report across regimes
validate  built-in acceptance checks (quadrature oracles, solver residuals,
          martingale and closed-form-vs-MC Monte Carlo spot checks)

Exit codes: 0 success, 1 domain error (parameter gates, ill-posedness,
divergent values), 2 usage or config-file error. Reports are deterministic:
identical command, config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .agents import REGIMES, RegimeSolutions, solve_all
from .errors import ConfigError, DomainError, GateError
from .model import (
    CONFIG_KEYS,
    HARD_CHECKS,
    ConstantStream,
    ExpUntilFirstJumpStream,
    IncomeStream,
    ModelParams,
    PostFirstJumpSignalStream,
    read_params_file,
    validate_params,
)
from .pricing import (
    Conditioning,
    closed_form_price,
    estimate_to_dict,
    info_value_report,
    price_mc,
)
from .quadrature import gauss_hermite
from .simulate import SimConfig, deflator_at_times

# One documented block of defaults; flags override per run.
DEFAULTS = {
    "dt": 0.01,             # trapezoid grid step, years
    "n_paths": 100_000,
    "seed": 20_240,
    "rule_order": 64,       # Gauss-Hermite points
    "grid_size": 201,       # signal-insider eta grid over +-6 sd
    "horizon": {            # per --stream prefix, years (tail bound < 1e-4)
        "constant": 200.0,
        "exp_until_jump": 25.0,
        "post_jump_signal": 22.0,
    },
}

PSI_REGISTRY = {
    "one": (lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0),
    "tanh": (np.tanh, 1.0),
    "indicator_pos": (lambda x: (np.asarray(x, dtype=float) > 0.0).astype(float), 1.0),
}


def _load_pwl_psi(path: str):
    """Piecewise-linear psi from a two-column table, flat beyond the knots."""
    try:
        table = np.loadtxt(path)
    except OSError as exc:
        raise ConfigError(f"cannot read psi table {path!r}: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != 2 or len(table) < 2:
        raise ConfigError("psi table must have two columns and at least two rows")
    xs, ys = table[:, 0], table[:, 1]
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"psi table {path!r} has entries that are not finite")
    if not np.all(np.diff(xs) > 0):
        raise ConfigError("psi table abscissae must be strictly increasing")

    def psi(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    return psi, float(np.max(np.abs(ys)))


def parse_stream(spec: str) -> IncomeStream:
    """Stream mini-language: constant:LEVEL | exp_until_jump |
    post_jump_signal:NAME | post_jump_signal:pwl@FILE."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        try:
            return ConstantStream(level=float(arg))
        except ValueError as exc:
            raise ConfigError(f"bad constant level {arg!r}") from exc
    if kind == "exp_until_jump":
        return ExpUntilFirstJumpStream()
    if kind == "post_jump_signal":
        if arg.startswith("pwl@"):
            psi, bound = _load_pwl_psi(arg[4:])
            return PostFirstJumpSignalStream(psi=psi, psi_bound=bound,
                                             psi_name=arg)
        if arg not in PSI_REGISTRY:
            raise ConfigError(
                f"unknown psi {arg!r}; known: {', '.join(sorted(PSI_REGISTRY))} "
                "or pwl@FILE")
        psi, bound = PSI_REGISTRY[arg]
        return PostFirstJumpSignalStream(psi=psi, psi_bound=bound, psi_name=arg)
    raise ConfigError(f"unknown stream kind {kind!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=_json_default) + "\n"
    else:
        lines = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for key in sorted(obj):
                    walk(f"{prefix}{key}." if prefix else f"{key}.", obj[key]) \
                        if isinstance(obj[key], (dict, list)) else \
                        lines.append(f"{prefix}{key}\t{_fmt(obj[key])}")
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    walk(f"{prefix}{i}.", item) if isinstance(item, (dict, list)) \
                        else lines.append(f"{prefix}{i}\t{_fmt(item)}")

        walk("", payload)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    raise TypeError(f"not serializable: {obj!r}")


def _sim_config(args, regime: str) -> SimConfig:
    horizon = args.horizon
    if horizon is None:
        horizon = DEFAULTS["horizon"][args.stream.partition(":")[0]]
    return SimConfig(horizon=horizon, dt=args.dt, n_paths=args.paths,
                     seed=args.seed, regime=regime)


def _solve(p: ModelParams, args, regimes=REGIMES) -> RegimeSolutions:
    return solve_all(p, gauss_hermite(args.rule_order), args.grid_size, regimes)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    p = read_params_file(args.config)
    sols = _solve(p, args)
    payload = {
        "version": __version__,
        "params": dict(zip(CONFIG_KEYS, dataclasses.astuple(p))),
        "merton": {
            "A_M": sols.merton.A_M, "kappa": sols.merton.kappa,
            "gamma_M": sols.merton.gamma_M_merton,
            "merton_fraction": sols.merton.merton_fraction,
        },
        "uninformed": {
            "q_bar1": sols.uninformed.q_bar1, "A1": sols.uninformed.A1,
            "alpha": sols.uninformed.alpha, "g1_at_opt": sols.uninformed.g1_at_opt,
        },
        "timing": {
            "a_star": sols.timing.a_star, "gamma_M": sols.timing.gamma_M,
            "f0": sols.timing.f0, "A2": sols.timing.A2,
        },
    }
    if sols.signal is not None:
        h = sols.signal.h_values
        payload["signal"] = {
            "A3": sols.signal.A3,
            "eta_grid_size": len(sols.signal.eta_grid),
            "eta_grid_lo": float(sols.signal.eta_grid[0]),
            "eta_grid_hi": float(sols.signal.eta_grid[-1]),
            "h_min": float(h.min()), "h_max": float(h.max()),
            "h_at_m": float(sols.signal.h_at(p.m)),
            "q_bar_at_m": float(sols.signal.q_bar_at(p.m)),
            "max_residual": float(sols.signal.residuals.max()),
        }
    else:
        payload["signal"] = None
    _emit(payload, args.format, args.out)
    return 0


def cmd_price(args) -> int:
    p = read_params_file(args.config)
    stream = parse_stream(args.stream)
    cond = Conditioning(t1=args.t1, eta0=args.eta0)
    regimes = REGIMES if args.regime == "all" else (args.regime,)
    sols = _solve(p, args, regimes)
    rule = gauss_hermite(args.rule_order)
    results = []
    rows = []
    for regime in regimes:
        # --regime all pins only the regime the pin conditions; a single
        # regime gets the pin as given, and the library rejects a mismatch
        regime_cond = (cond if args.regime != "all" or cond.regime == regime
                       else Conditioning())
        try:
            sol = sols.for_regime(regime)
            cf = closed_form_price(stream, regime, p, sols, regime_cond, rule)
            est = price_mc(stream, sol, p, _sim_config(args, regime),
                           regime_cond, sols=sols, rule=rule)
        except GateError:
            # --regime all prices the regimes that apply, as compare does
            if args.regime != "all":
                raise
            continue
        if cf is not None:
            rows.append(estimate_to_dict(stream.label, regime, "closed_form",
                                         cf, regime_cond))
        rows.append(estimate_to_dict(stream.label, regime, "mc", est.mean,
                                     regime_cond, est))
        results.append({
            "regime": regime,
            "conditioning": regime_cond.record(),
            "closed_form": cf,
            "mc": {
                "mean": est.mean, "std_error": est.std_error,
                "n_paths": est.n_paths, "horizon": est.horizon,
                "truncation_bound": est.truncation_bound,
            },
        })
    payload = {
        "version": __version__,
        "stream": stream.label,
        "seed": args.seed,
        "dt": args.dt,
        "conditioning": {"t1": args.t1, "eta0": args.eta0},
        "prices": results,
        "records": rows,
    }
    _emit(payload, args.format, args.out)
    return 0


def cmd_compare(args) -> int:
    p = read_params_file(args.config)
    stream = parse_stream(args.stream)
    sols = _solve(p, args)
    rule = gauss_hermite(args.rule_order)
    cfg = _sim_config(args, "uninformed")
    report = info_value_report(stream, p, cfg, sols=sols, rule=rule,
                               with_mc=args.with_mc)
    rows = []
    for row in report.rows:
        rows.append({
            "regime": row.regime,
            "eta0": row.conditioning.eta0,
            "closed_form": row.closed_form,
            "mc_mean": None if row.mc is None else row.mc.mean,
            "mc_std_error": None if row.mc is None else row.mc.std_error,
        })
    payload = {
        "version": __version__,
        "stream": report.stream,
        "rows": rows,
        "timing_information_value": report.timing_information_value,
        "signal_information_value": report.signal_information_value,
        "signal_conditional_values": [list(t) for t in report.signal_conditional_values],
    }
    _emit(payload, args.format, args.out)
    return 0


def cmd_validate(args) -> int:
    p = read_params_file(args.config)
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    report = validate_params(p)
    for flag in report.flags:
        add(f"params.{flag.name}", flag.passed, flag.message)
    if not any(f.name in HARD_CHECKS for f in report.failures()):
        rule = gauss_hermite(args.rule_order)
        from .quadrature import expect_gaussian, g_of_q
        # quadrature spot checks against closed moments
        add("quadrature.normalization",
            abs(expect_gaussian(lambda x: np.ones_like(x), 0.3, 0.02, rule) - 1.0) < 1e-12,
            "E[1] = 1")
        add("quadrature.second_moment",
            abs(expect_gaussian(lambda x: x * x, 0.0, 0.01, rule) - 0.01) < 1e-12,
            "E[Z^2] = var")
        add("quadrature.g_at_0", abs(g_of_q(0.0, p, rule) - 1.0) < 1e-12, "g(0) = 1")

        sols = _solve(p, args)
        if p.lam > 0:
            phi_resid = abs(sols.timing.f0 - sols.timing.g_at_a_star * sols.timing.A2)
            add("timing.fixed_point", phi_resid < 1e-9 * max(1.0, sols.timing.f0),
                f"|f0 - g(a*) A2| = {phi_resid:.3g}")
        if sols.signal is not None:
            add("signal.residual", float(sols.signal.residuals.max()) < 1e-8,
                f"max pointwise residual {float(sols.signal.residuals.max()):.3g}")
            add("signal.A3_le_A1", sols.signal.A3 <= sols.signal.a1 * (1 + 1e-8),
                f"A3={sols.signal.A3:.6g} A1={sols.signal.a1:.6g}")

        # martingale spot check
        n = min(args.paths, 20_000)
        cfg = SimConfig(horizon=5.0, dt=5.0, n_paths=n, seed=args.seed,
                        regime="uninformed")
        y = deflator_at_times(p, sols.uninformed, cfg, [1.0, 5.0])
        for j, t in enumerate((1.0, 5.0)):
            vals = y[:, j] * math.exp(p.r * t)
            se = float(vals.std(ddof=1)) / math.sqrt(n)
            add(f"martingale.t{t:g}", abs(float(vals.mean()) - 1.0) <= 3 * se,
                f"mean {float(vals.mean()):.5f} se {se:.5f}")

        # closed form vs MC, constant stream
        sol = sols.uninformed
        cfg = SimConfig(horizon=120.0, dt=0.05, n_paths=n, seed=args.seed,
                        regime="uninformed")
        est = price_mc(ConstantStream(1.0), sol, p, cfg, sols=sols)
        target = 1.0 / p.r
        add("price.constant_uninformed",
            abs(est.mean - target) <= 3 * est.std_error + est.truncation_bound,
            f"mc {est.mean:.4f} vs {target:.4f} (se {est.std_error:.4f})")

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}\t{name}\t{detail}\n")
    sys.stdout.write(f"{'PASS' if all_ok else 'FAIL'}\toverall\t"
                     f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infoprice",
        description="Indifference pricing of income streams in a jump-diffusion "
                    "market under three information regimes")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_stream=False):
        sp.add_argument("--config", required=True, help="model parameter file")
        if with_stream:
            sp.add_argument("--stream", required=True,
                            help="constant:LEVEL | exp_until_jump | "
                                 "post_jump_signal:{one,tanh,indicator_pos,pwl@FILE}")
        sp.add_argument("--paths", type=int, default=DEFAULTS["n_paths"])
        sp.add_argument("--horizon", type=float, default=None)
        sp.add_argument("--dt", type=float, default=DEFAULTS["dt"])
        sp.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        sp.add_argument("--rule-order", type=int, default=DEFAULTS["rule_order"])
        sp.add_argument("--grid-size", type=int, default=DEFAULTS["grid_size"])
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument("--format", choices=("json", "table"), default="json")

    sp = sub.add_parser("solve", help="solve all regimes and print constants")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("price", help="price one stream under one or all regimes")
    common(sp, with_stream=True)
    sp.add_argument("--regime", default="uninformed",
                    choices=(*REGIMES, "all"))
    sp.add_argument("--eta0", type=float, default=None,
                    help="condition the signal insider on this initial signal")
    sp.add_argument("--t1", type=float, default=None,
                    help="condition the timing insider on this first jump time")
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("compare", help="information-value report for a stream")
    common(sp, with_stream=True)
    sp.add_argument("--with-mc", action="store_true",
                    help="add Monte Carlo estimates next to the closed forms")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("validate", help="run the built-in sanity suite")
    common(sp)
    sp.set_defaults(func=cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
