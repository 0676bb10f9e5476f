"""Inputs, operations and checks of the four benchmark workloads.

The benchmark generates every input the program sees: the parameter sets,
the streams, the Monte Carlo configurations (seeded by the workload seed)
and the CLI config file. Each workload has a set-up (input generation plus
the regime solves its operations need) and a list of operations; one pass
runs every operation once, and each operation checks its own output.

The calls into the program go through module attributes (``agents.solve_all``,
``pricing.price_mc``), so the traced run sees them once it wraps those
attributes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from infoprice import agents, pricing, simulate
from infoprice.model import (
    ConstantStream,
    ExpUntilFirstJumpStream,
    ModelParams,
    PostFirstJumpSignalStream,
    read_params_file,
    write_params_file,
)
from infoprice.quadrature import gauss_hermite

# `canon` is CANON of tests/conftest.py. At `interior` the timing insider's
# a_star is interior (0.5), so its renewal fixed point really iterates. At
# `dense` there are 0.1 jumps per path-step at dt 0.05. `dense` stops at
# lambda = 2 because two nearby points fail today: lambda = 4 (m = 0) raises
# ConvergenceError in the timing solve, and lambda = 2 with m = -0.05 raises
# BoundaryOptimumError in the uninformed solve.
CANON = dict(mu=0.10, r=0.05, sigma=0.20, lam=0.5, m=-0.05, v=0.01,
             rho=0.10, R=2.0, v_eps=0.02)
PARAM_SETS = {
    "canon": {},
    "interior": {"m": 0.02, "v": 0.04},
    "dense": {"lam": 2.0, "m": 0.0, "v": 0.01},
}
RULE_ORDER = 64
N_SE = 4.0      # Monte Carlo checks: |mean - target| <= 4 SE (+ truncation bound)

WORKLOADS = ("mc_steps", "mc_jumps", "solve", "cli")

# Operations that fail at the parent commit because of a program defect, and
# how they fail: ("raised", the exception as "Type: message"), or ("check",
# (low, high) bounds on the check's z-score). They still count as failed
# operations. Any other failure, of these operations or of any other, makes
# the run incorrect.
KNOWN_DEFECTS = {
    # the signal insider's deflator loses martingale behaviour at `dense`:
    # z = -21.5 to -26.1 at 8192 paths
    ("mc_jumps", "const_signal"): ("check", (-40.0, -10.0)),
    # z = -5.5 at 8192 paths; at some seeds it passes (z = -3.9)
    ("mc_jumps", "pj_signal_eta0"): ("check", (-10.0, 0.0)),
    # info_value_report(post_jump_signal, with_mc=False): the unconditional
    # timing row has neither a closed form nor a Monte Carlo estimate
    **{("solve", f"report.post_jump_tanh.{name}"):
       ("raised", "ValueError: empty price row") for name in PARAM_SETS},
}


def params(name: str) -> ModelParams:
    return ModelParams(**{**CANON, **PARAM_SETS[name]})


def params_labels() -> dict:
    """ModelParams -> set name, so traced solves can be attributed."""
    return {params(name): name for name in PARAM_SETS}


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; FULL is the benchmark, TOY the smoke test."""

    steps_set: str = "canon"
    steps_paths: int = 4096         # >= 4096, so price_mc fans out
    steps_horizon: float = 50.0
    steps_dt: float = 0.01
    jumps_set: str = "dense"
    jumps_paths: int = 8192
    jumps_horizon: float = 25.0
    jumps_dt: float = 0.05
    solve_sets: tuple = tuple(PARAM_SETS)
    grid_size: int = 201            # signal eta grid, the CLI default
    cli_paths: int = 4096
    cli_extra: tuple = ()
    engine_slice: int = 1024        # paths in the single-process engine probe


FULL = Scale()
TOY = Scale(steps_paths=64, steps_horizon=5.0, steps_dt=0.05,
            jumps_set="canon", jumps_paths=64, jumps_horizon=5.0,
            solve_sets=("canon",), grid_size=41, cli_paths=64,
            cli_extra=("--grid-size", "41"), engine_slice=64)


@dataclass
class Outcome:
    """What one operation returns: its check, a fingerprint of its exact
    output (compared across passes), and counts for the metrics."""

    ok: bool
    detail: str
    fingerprint: str
    stats: dict = dataclasses.field(default_factory=dict)


Operation = tuple[str, Callable[[], Outcome]]


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, out_dir: str):
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.rule = gauss_hermite(RULE_ORDER)

    def setup(self) -> None:
        """Generate the inputs and solve what the operations need."""

    def operations(self) -> list[Operation]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

TANH = PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0, psi_name="tanh")


@dataclass(frozen=True)
class Job:
    name: str
    stream: object
    regime: str
    conditioning: pricing.Conditioning | None = None


class MonteCarlo(Workload):
    """price_mc jobs on one parameter set, each checked against its target.

    A constant stream's target is (1 - e^{-rH})/r, exact for the truncated
    integral because E[e^{rt} Y_t] = 1; the others use the closed form plus
    the truncation bound.
    """

    set_name = ""
    horizon = dt = 0.0
    n_paths = 0
    jobs: tuple[Job, ...] = ()
    fanout_job = ""       # repeated with workers=1 in the traced run

    def setup(self) -> None:
        p = params(self.set_name)
        self.p = p
        self.sols = agents.solve_all(p, self.rule, grid_size=self.scale.grid_size)
        self.targets = {}
        for job in self.jobs:
            if isinstance(job.stream, ConstantStream):
                self.targets[job.name] = (
                    job.stream.level * -math.expm1(-p.r * self.horizon) / p.r, True)
            else:
                self.targets[job.name] = (float(pricing.closed_form_price(
                    job.stream, job.regime, p, self.sols, job.conditioning,
                    self.rule)), False)

    def config(self, regime: str, n_paths: int | None = None) -> simulate.SimConfig:
        return simulate.SimConfig(horizon=self.horizon, dt=self.dt,
                                  n_paths=n_paths or self.n_paths,
                                  seed=self.seed, regime=regime)

    def steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))

    def run_job(self, job: Job, workers: int | None = None) -> Outcome:
        cfg = self.config(job.regime)
        t0 = time.perf_counter()
        est = pricing.price_mc(job.stream, self.sols.for_regime(job.regime),
                               self.p, cfg, job.conditioning, sols=self.sols,
                               rule=self.rule, workers=workers)
        mc_s = time.perf_counter() - t0
        target, exact = self.targets[job.name]
        bound = 0.0 if exact else est.truncation_bound
        gap = est.mean - target
        ok = bool(abs(gap) <= N_SE * est.std_error + bound)
        z = gap / est.std_error if est.std_error > 0 else math.inf
        detail = (f"mean={est.mean:.6g} target={target:.6g} se={est.std_error:.3g} "
                  f"z={z:+.2f} trunc={bound:.2g}")
        return Outcome(ok, detail, f"{est.mean!r} {est.std_error!r}",
                       {"path_steps": cfg.n_paths * self.steps(), "mc_s": mc_s,
                        "se": est.std_error, "mean": est.mean, "target": target,
                        "z": z})

    def operations(self) -> list[Operation]:
        return [(job.name, lambda job=job: self.run_job(job)) for job in self.jobs]

    def engine_rates(self) -> dict[str, float]:
        """Single-process path_integrals path-steps/s per regime on a slice."""
        rates = {}
        for regime in ("merton", "uninformed", "timing", "signal"):
            cfg = self.config(regime, self.scale.engine_slice)
            t0 = time.perf_counter()
            simulate.path_integrals(self.p, self.sols.for_regime(regime), cfg,
                                    ConstantStream(1.0))
            rates[regime] = cfg.n_paths * self.steps() / (time.perf_counter() - t0)
        return rates

    def scenario_counts(self) -> tuple[int, int]:
        """Exact (path-steps, in-horizon jumps) over one pass, counted with
        the public draw_scenario at the same seed. Only a pinned first jump
        time changes the jump times, so jobs are grouped by it."""
        groups: dict = {}
        for job in self.jobs:
            t1 = job.conditioning.t1 if job.conditioning else None
            groups[t1] = groups.get(t1, 0) + 1
        cfg = self.config("uninformed")
        jumps = 0
        for t1, n_jobs in groups.items():
            count = 0
            for i in range(cfg.n_paths):
                times, _, _ = simulate.draw_scenario(self.p, cfg, i, pin_t1=t1)
                count += int(np.searchsorted(times, cfg.horizon, side="right"))
            jumps += n_jobs * count
        return len(self.jobs) * cfg.n_paths * self.steps(), jumps


class McSteps(MonteCarlo):
    """Long fine grid at canon: 0.005 jumps per path-step, so the keyed
    step-normal fill, the transpose and the step update carry the run."""

    name = "mc_steps"

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir)
        self.set_name = scale.steps_set
        self.horizon, self.dt = scale.steps_horizon, scale.steps_dt
        self.n_paths = scale.steps_paths
        self.jobs = tuple(Job(f"const_{regime}", ConstantStream(1.0), regime)
                          for regime in ("merton", "uninformed", "timing", "signal"))
        self.fanout_job = "const_uninformed"


class McJumps(MonteCarlo):
    """Dense jumps: 0.1 jumps per path-step, so the jump waves, interpolant
    lookups, timing consumption integrals, pinned draws and non-constant
    stream evaluation carry the run."""

    name = "mc_jumps"

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir)
        self.set_name = scale.jumps_set
        self.horizon, self.dt = scale.jumps_horizon, scale.jumps_dt
        self.n_paths = scale.jumps_paths
        eu = ExpUntilFirstJumpStream()
        self.jobs = (
            Job("eu_uninformed", eu, "uninformed"),
            Job("eu_timing", eu, "timing"),
            Job("eu_signal", eu, "signal"),
            Job("pj_uninformed", TANH, "uninformed"),
            Job("pj_timing_t1", TANH, "timing", pricing.Conditioning(t1=1.0)),
            Job("pj_signal_eta0", TANH, "signal", pricing.Conditioning(eta0=0.1)),
            Job("const_signal", ConstantStream(1.0), "signal"),
        )
        self.fanout_job = "eu_timing"


# ---------------------------------------------------------------------------
# Solver workload
# ---------------------------------------------------------------------------

REPORT_STREAMS = {
    "constant": ConstantStream(1.0),
    "exp_until_jump": ExpUntilFirstJumpStream(),
    "post_jump_tanh": TANH,
}


class Solve(Workload):
    """Every regime solve and the closed-form information-value reports at
    every parameter set; no simulation. The checks are the bounds
    `infoprice validate` uses."""

    name = "solve"

    def setup(self) -> None:
        self.sets = {name: params(name) for name in self.scale.solve_sets}
        # with_mc=False: the config only has to be valid
        self.report_cfg = simulate.SimConfig(horizon=25.0, dt=0.05, n_paths=1,
                                             seed=self.seed)
        self.solved: dict = {}

    def operations(self) -> list[Operation]:
        ops: list[Operation] = []
        for name, p in self.sets.items():
            ops += [
                (f"solve_uninformed.{name}", lambda p=p, n=name: self.uninformed(p, n)),
                (f"solve_timing.{name}", lambda p=p, n=name: self.timing(p, n)),
                (f"solve_merton.{name}", lambda p=p, n=name: self.merton(p, n)),
                (f"solve_signal.{name}", lambda p=p, n=name: self.signal(p, n)),
            ]
            ops += [(f"report.{label}.{name}",
                     lambda p=p, n=name, e=stream: self.report(p, n, e))
                    for label, stream in REPORT_STREAMS.items()]
        return ops

    def uninformed(self, p, name) -> Outcome:
        sol = agents.solve_uninformed(p, self.rule)
        self.solved[name, "uninformed"] = sol
        ok = 0.0 < sol.q_bar1 < 1.0 and math.isfinite(sol.A1) and sol.A1 > 0.0
        return Outcome(ok, f"q_bar1={sol.q_bar1:.6g} A1={sol.A1:.6g}",
                       f"{sol.q_bar1!r} {sol.A1!r}")

    def timing(self, p, name) -> Outcome:
        sol = agents.solve_timing_insider(p, self.rule)
        self.solved[name, "timing"] = sol
        resid = abs(sol.f0 - sol.g_at_a_star * sol.A2)
        ok = resid < 1e-9 * max(1.0, sol.f0)
        return Outcome(ok, f"a*={sol.a_star:.4g} |f0-g(a*)A2|={resid:.3g}",
                       f"{sol.a_star!r} {sol.f0!r} {sol.A2!r}")

    def merton(self, p, name) -> Outcome:
        sol = agents.solve_merton(p)
        self.solved[name, "merton"] = sol
        ok = math.isfinite(sol.A_M) and sol.A_M > 0.0
        return Outcome(ok, f"A_M={sol.A_M:.6g}", f"{sol.A_M!r}")

    def signal(self, p, name) -> Outcome:
        sol = agents.solve_signal_insider(
            p, self.rule, grid_size=self.scale.grid_size,
            uninformed=self.solved[name, "uninformed"])
        self.solved[name, "signal"] = sol
        resid = float(sol.residuals.max())
        ok = resid < 1e-8 and sol.A3 <= sol.a1 * (1.0 + 1e-8)
        return Outcome(ok, f"max_residual={resid:.3g} A3={sol.A3:.6g} A1={sol.a1:.6g} "
                       f"outer={len(sol.outer_trace) - 1}",
                       f"{sol.A3!r} {resid!r}")

    def report(self, p, name, stream) -> Outcome:
        sols = agents.RegimeSolutions(
            uninformed=self.solved[name, "uninformed"],
            timing=self.solved[name, "timing"],
            signal=self.solved[name, "signal"],
            merton=self.solved[name, "merton"])
        rep = pricing.info_value_report(stream, p, self.report_cfg, sols=sols,
                                        rule=self.rule, with_mc=False)
        values = [rep.timing_information_value, rep.signal_information_value,
                  *(v for _, v in rep.signal_conditional_values),
                  *(r.closed_form for r in rep.rows if r.closed_form is not None)]
        ok = all(math.isfinite(v) for v in values)
        if isinstance(stream, ConstantStream):
            ok &= all(r.closed_form == stream.level / p.r for r in rep.rows)
        return Outcome(ok, f"timing_value={rep.timing_information_value:.6g} "
                       f"signal_value={rep.signal_information_value:.6g}",
                       " ".join(repr(v) for v in values))


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

class Cli(Workload):
    """The commands users run, each a fresh `python -m infoprice.cli`
    process: interpreter start, import, every regime solve, then the work."""

    name = "cli"
    commands = ("solve", "price", "compare")

    def setup(self) -> None:
        p = params("canon")
        self.config_path = os.path.join(self.out_dir, "canon.cfg")
        write_params_file(self.config_path, p)
        if read_params_file(self.config_path) != p:
            raise RuntimeError("config file does not round-trip")
        src = os.path.dirname(os.path.dirname(agents.__file__))
        self.env = {k: v for k, v in os.environ.items() if k != pricing.WORKERS_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        seed = ("--seed", str(self.seed))
        self.argv = {
            "solve": ("solve",),
            "price": ("price", "--stream", "constant:1", "--regime", "uninformed",
                      "--paths", str(self.scale.cli_paths), "--horizon", "30",
                      "--dt", "0.1", *seed),
            "compare": ("compare", "--stream", "exp_until_jump", *seed),
        }

    def operations(self) -> list[Operation]:
        return [(f"cli.{cmd}", lambda cmd=cmd: self.run_command(cmd))
                for cmd in self.commands]

    def run_command(self, cmd: str) -> Outcome:
        argv = [sys.executable, "-m", "infoprice.cli", *self.argv[cmd],
                *self.scale.cli_extra, "--config", self.config_path]
        proc = subprocess.run(argv, capture_output=True, env=self.env, timeout=150)
        ok = proc.returncode == 0
        if ok:
            json.loads(proc.stdout)
        detail = f"exit={proc.returncode} bytes={len(proc.stdout)}"
        if not ok:
            detail += " stderr=" + proc.stderr.decode(errors="replace").strip()[-200:]
        return Outcome(ok, detail, hashlib.sha256(proc.stdout).hexdigest(),
                       {"report_bytes": len(proc.stdout)})

    def import_seconds(self) -> float:
        """Median of three fresh interpreters importing infoprice.cli, minus
        the median of three bare interpreters."""
        def median_run(code: str) -> float:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env,
                               check=True, timeout=60)
                times.append(time.perf_counter() - t0)
            return sorted(times)[1]
        return median_run("import infoprice.cli") - median_run("pass")


def make(name: str, seed: int, scale: Scale, out_dir: str) -> Workload:
    classes = {"mc_steps": McSteps, "mc_jumps": McJumps, "solve": Solve, "cli": Cli}
    return classes[name](seed, scale, out_dir)
