"""Bit-identity fingerprints of the engine, the quadrature kernels, the
solvers and the closed-form prices: one SHA-256 per case, so two trees can
be compared line by line.

Run from the repository root with

    PYTHONPATH=src python tests/fingerprints.py

Each line is `<sha256>  <case>`; a line whose case starts with `all`
hashes every case line before it.
A refactor that keeps the bits prints the same lines on both trees. Pytest
does not collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import numpy as np

from infoprice import simulate
from infoprice.agents import g1_of_q, posterior_of_jump, solve_all
from infoprice.model import (
    Conditioning,
    ConstantStream,
    ExpUntilFirstJumpStream,
    ModelParams,
    PostFirstJumpSignalStream,
)
from infoprice.pricing import closed_form_price, info_value_report, truncation_bound
from infoprice.quadrature import g_of_q, g_of_q_many, gauss_hermite, phi2, phi2_many
from infoprice.simulate import (
    SimConfig,
    deflator_at_times,
    draw_scenario,
    path_integrals,
    simulate_path,
)

CANON = ModelParams(mu=0.10, r=0.05, sigma=0.20, lam=0.5, m=-0.05, v=0.01,
                    rho=0.10, R=2.0, v_eps=0.02)
PARAM_SETS = {
    "canon": CANON,
    "interior": dataclasses.replace(CANON, m=0.02, v=0.04),
    "dense": dataclasses.replace(CANON, lam=2.0, m=0.0, v=0.01),
    "lam8": dataclasses.replace(CANON, lam=8.0),
    "lam0": dataclasses.replace(CANON, lam=0.0),
}
STREAMS = {
    "constant:1": ConstantStream(1.0),
    "exp_until_jump": ExpUntilFirstJumpStream(),
    "post_jump_signal:tanh": PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0,
                                                       psi_name="tanh"),
}
# every regime unpinned, and each insider under its own pin
REGIME_PINS = [("merton", "none", (None, None)),
               ("uninformed", "none", (None, None)),
               ("timing", "none", (None, None)), ("timing", "t1=2", (2.0, None)),
               ("signal", "none", (None, None)), ("signal", "eta0=0.1", (None, 0.1))]
SEED, PATHS = 7, 300
# the closed forms' sets, and every regime under each pin, the signal
# insider's at four signals
PRICING_SETS = {**{name: PARAM_SETS[name] for name in ("canon", "interior", "dense")},
                "R1.5": dataclasses.replace(CANON, R=1.5),
                "R5": dataclasses.replace(CANON, R=5.0),
                "lam4": dataclasses.replace(CANON, lam=4.0, m=0.0)}
PRICING_PINS = [*REGIME_PINS[:-1], *(("signal", f"eta0={eta:g}", (None, eta))
                                     for eta in (-0.3, -0.05, 0.1, 0.3))]


def _feed(h, obj) -> None:
    """Hash obj's exact bits: arrays with dtype and shape, floats by hex."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (bool, int, np.integer, str)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj}".encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"s{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def outcome(call):
    """call()'s result, or the exception it raises as text."""
    try:
        return call()
    except Exception as exc:                # the error is part of the behaviour
        return f"{type(exc).__name__}: {exc}"


def digest(call) -> str:
    """SHA-256 of call()'s outcome."""
    h = hashlib.sha256()
    _feed(h, outcome(call))
    return h.hexdigest()


def scenario_cases():
    ids = np.arange(SEED, SEED + PATHS)
    gap_blocks = simulate._gap_blocks
    pins = {"none": (None, None), "t1=2": (2.0, None), "t1=60": (60.0, None),
            "eta0=0.1": (None, 0.1)}
    for blocks in ("as_is", "forced_1"):
        simulate._gap_blocks = gap_blocks if blocks == "as_is" else (lambda mean: 1)
        try:
            for name in ("canon", "dense", "lam8"):
                for horizon in (0.5, 3.0, 25.0, 45.0):
                    for pin, (t1, eta0) in pins.items():
                        for cut in (False, True):
                            case = (f"_scenarios {name} H={horizon:g} {pin} "
                                    f"cut={cut} gap_blocks={blocks}")
                            yield case, digest(lambda: tuple(simulate._scenarios(
                                PARAM_SETS[name], horizon, SEED, ids, t1, eta0, cut)))
        finally:
            simulate._gap_blocks = gap_blocks


def engine_cases(rule):
    for name in ("canon", "dense", "lam0"):
        p = PARAM_SETS[name]
        sols = solve_all(p, rule)
        for regime, pin, pins in REGIME_PINS:
            sol = sols.for_regime(regime)
            for horizon, dt in ((25.0, 0.05), (45.0, 0.01)):
                cfg = SimConfig(horizon=horizon, dt=dt, n_paths=PATHS, seed=SEED,
                                regime=regime)
                case = f"{name} {regime} {pin} H={horizon:g} dt={dt:g}"
                for label, stream in STREAMS.items():
                    yield f"path_integrals {case} {label}", digest(
                        lambda: path_integrals(p, sol, cfg, stream, *pins))
                yield f"deflator_at_times {case}", digest(
                    lambda: deflator_at_times(p, sol, cfg, [1.0, 5.0, horizon], *pins))
                yield f"simulate_path {case}", digest(
                    lambda: simulate_path(p, sol, cfg, 3, *pins))
                yield f"draw_scenario {case}", digest(
                    lambda: [draw_scenario(p, cfg, i, *pins) for i in range(5)])


def moment_cases():
    q = np.random.default_rng(7).uniform(0.0, 1.0, 200)
    for order in (16, 64, 200):
        rule = gauss_hermite(order)
        for R in (0.3, 2.0, 5.5):
            for lam in (0.0, 0.5, 2.0):
                p = dataclasses.replace(CANON, R=R, lam=lam)
                case = f"order={order} R={R:g} lam={lam:g}"
                yield f"g {case}", digest(lambda: (
                    g_of_q_many(q, p, rule), [g_of_q(x, p, rule) for x in q[:20]]))
                yield f"g1 {case}", digest(
                    lambda: [g1_of_q(float(x), p, rule) for x in q[:20]])
                for eta in (-0.3, 0.0, 0.2):
                    mv = posterior_of_jump(eta, p)
                    yield f"phi2 {case} eta={eta:g}", digest(lambda: (
                        phi2_many(q, *mv, p, rule),
                        [phi2(x, *mv, p, rule) for x in q[:20]]))


def solve_cases():
    for name in ("canon", "interior", "dense", "lam0"):
        for order, grid in ((64, 201), (32, 61), (200, 81)):
            yield f"solve_all {name} order={order} grid={grid}", digest(
                lambda: _solutions(PARAM_SETS[name], order, grid))


def _solutions(p, order, grid):
    """Every regime's constants, the signal grid solution and its
    interpolants on [-3, 3]."""
    sols = solve_all(p, gauss_hermite(order), grid)
    out = [sols.merton, sols.uninformed, sols.timing, sols.signal_gate]
    if sols.signal is not None:
        eta = np.linspace(-3.0, 3.0, 61)
        out += [sols.signal, sols.signal.h_at(eta), sols.signal.q_bar_at(eta)]
    return out


def pricing_cases():
    cfg = SimConfig(horizon=10.0, dt=0.1, n_paths=PATHS, seed=SEED)
    for name, p in PRICING_SETS.items():
        for order, grid in ((64, 201), (32, 61)):
            rule = gauss_hermite(order)
            sols = outcome(lambda: solve_all(p, rule, grid))
            case = f"{name} order={order} grid={grid}"
            if isinstance(sols, str):           # the solve raised
                yield f"solve_all {case}", digest(lambda: sols)
                continue
            for label, stream in STREAMS.items():
                for regime, pin, pins in PRICING_PINS:
                    cond = Conditioning(*pins)
                    yield (f"closed_form_price truncation_bound {case} {label} "
                           f"{regime} {pin}"), digest(lambda: (
                               outcome(lambda: closed_form_price(
                                   stream, regime, p, sols, cond, rule)),
                               outcome(lambda: truncation_bound(
                                   stream, regime, p, sols, cfg.horizon, cond, rule))))
                yield f"info_value_report {case} {label}", digest(
                    lambda: repr(info_value_report(stream, p, cfg, sols, rule)))


def main() -> int:
    total = hashlib.sha256()
    # "all" hashes the case lines before it; "all with pricing" adds the
    # closed-form pricing cases
    for label, groups in (("all", (scenario_cases(), engine_cases(gauss_hermite(64)),
                                   moment_cases(), solve_cases())),
                          ("all with pricing", (pricing_cases(),))):
        for cases in groups:
            for case, sha in cases:
                line = f"{sha}  {case}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
        print(f"{total.hexdigest()}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
