"""Market/preference constants, income-stream descriptions, and static checks.

The market has a bank account growing at rate ``r`` and one risky asset whose
cumulative return is a Brownian diffusion plus a compound Poisson jump part:
jumps arrive at rate ``lam`` and each jump ``xi`` of the log-return is
N(m, v). The investor has power utility with relative risk aversion ``R``
and discounts consumption at rate ``rho``. A noisy observer sees
``eta = xi + eps`` with ``eps ~ N(0, v_eps)`` independent of everything else.

Three income streams make up the stream API: ConstantStream,
ExpUntilFirstJumpStream and PostFirstJumpSignalStream. Each has its report
`label`, `jump_keyed` and its integrand `values(r, t, jumps, psi0, out)`,
e_t after `jumps` jumps, where only the post-jump stream reads psi0 (its
psi_at) and a jump-keyed stream writes into the (values, mask) buffers
`out` when it is given.
Constructors reject a payoff scale that is not finite; solvers and pricing
entry points raise ParameterError where validate_params fails a hard check.

Two admissibility rules have their one owner here: the signal_regime_gate
flag of validate_params is the signal insider's whole gate, v_eps > 0
included (no other regime depends on v_eps), and Conditioning checks every
pin that the pricing layer and the engine are given.

All rates are per year and time is measured in years. Every object here is
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import ConfigError, ParameterError, SimulationError, StreamGuardError

__all__ = [
    "ModelParams",
    "Conditioning",
    "ValidationReport",
    "CheckFlag",
    "validate_params",
    "require_valid_params",
    "IncomeStream",
    "ConstantStream",
    "ExpUntilFirstJumpStream",
    "PostFirstJumpSignalStream",
    "require_stream",
    "read_params_file",
    "CONFIG_KEYS",
    "HARD_CHECKS",
]


@dataclass(frozen=True)
class ModelParams:
    """All market, preference and signal constants.

    mu      drift of the risky return (per year)
    r       riskless rate (per year)
    sigma   diffusion volatility (per sqrt-year), must be > 0 (no arbitrage)
    lam     jump intensity (per year)
    m       mean of the jump in log-return
    v       variance of the jump in log-return
    rho     utility time-discount rate (per year)
    R       relative risk aversion, R > 0 and R != 1
    v_eps   variance of the signal noise (same units as v)
    """

    mu: float
    r: float
    sigma: float
    lam: float
    m: float
    v: float
    rho: float
    R: float
    v_eps: float

    @property
    def merton_fraction(self) -> float:
        """Diffusion-only optimal risky fraction (mu - r) / (sigma^2 R)."""
        return (self.mu - self.r) / (self.sigma**2 * self.R)


@dataclass(frozen=True)
class CheckFlag:
    name: str
    passed: bool
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the static parameter checks; overall is the conjunction."""

    flags: tuple[CheckFlag, ...]

    @property
    def overall(self) -> bool:
        return all(f.passed for f in self.flags)

    def failures(self) -> list[CheckFlag]:
        return [f for f in self.flags if not f.passed]


def validate_params(p: ModelParams) -> ValidationReport:
    """Run every static admissibility check and report each one.

    Never raises: failures are carried in the report so a caller (the CLI's
    ``validate`` subcommand in particular) can print all of them at once.
    """
    flags: list[CheckFlag] = []

    def check(name: str, ok: bool, message: str) -> None:
        flags.append(CheckFlag(name, bool(ok), message))

    bad = [k for k, x in zip(CONFIG_KEYS, astuple(p)) if not math.isfinite(x)]
    check("all_finite", not bad, "every parameter must be finite"
          + (f"; not finite: {', '.join(bad)}" if bad else ""))
    check("no_arbitrage_sigma", p.sigma > 0.0,
          "sigma > 0 is required (diffusion part rules out arbitrage)")
    check("r_positive", p.r > 0.0, "riskless rate r must be > 0")
    check("v_positive", p.v > 0.0, "jump-size variance v must be > 0")
    check("lambda_nonnegative", p.lam >= 0.0, "jump intensity must be >= 0")
    check("v_eps_nonnegative", p.v_eps >= 0.0, "signal-noise variance must be >= 0")
    check("rho_positive", p.rho > 0.0, "discount rate rho must be > 0")
    check("utility_R", p.R > 0.0 and p.R != 1.0,
          "power utility needs R > 0 and R != 1")
    if p.R > 1.0:
        check("finite_value_R_gt_1", p.rho >= (1.0 - p.R) * p.r,
              "rho >= (1 - R) r is required for a finite value function when R > 1")
    if p.sigma > 0.0 and p.R > 0.0:
        pi_m = p.merton_fraction
        check("signal_regime_gate", p.R > 1.0 and 0.0 < pi_m < 1.0 and p.v_eps > 0.0,
              "signal-insider solve needs R > 1, (mu - r)/(sigma^2 R) in (0, 1) and "
              f"v_eps > 0; got R={p.R:g}, fraction={pi_m:.6g}, v_eps={p.v_eps:g}")
    return ValidationReport(tuple(flags))


# Checks that gate every solver; the signal solver raises GateError from the
# signal_regime_gate flag of the report that require_valid_params returns.
HARD_CHECKS = (
    "all_finite", "no_arbitrage_sigma", "r_positive", "v_positive", "lambda_nonnegative",
    "v_eps_nonnegative", "rho_positive", "utility_R", "finite_value_R_gt_1",
)


def require_valid_params(p: ModelParams) -> ValidationReport:
    """Raise ParameterError if any hard check fails, else return the report."""
    report = validate_params(p)
    bad = [f for f in report.failures() if f.name in HARD_CHECKS]
    if bad:
        raise ParameterError("; ".join(f"{f.name}: {f.message}" for f in bad))
    return report


@dataclass(frozen=True)
class Conditioning:
    """Pin the first jump time (timing insider) or first signal (signal insider)."""

    t1: float | None = None
    eta0: float | None = None

    def __post_init__(self):
        if self.t1 is not None and self.eta0 is not None:
            raise ValueError("condition on t1 or eta0, not both")
        if self.t1 is not None and not 0.0 < self.t1 < math.inf:
            raise ValueError(f"t1 must be finite and > 0, got {self.t1}")
        if self.eta0 is not None and not math.isfinite(self.eta0):
            raise ValueError(f"eta0 must be finite, got {self.eta0}")

    @property
    def regime(self) -> str | None:
        """The regime the pin conditions: timing for t1, signal for eta0."""
        if self.t1 is not None:
            return "timing"
        return None if self.eta0 is None else "signal"

    def record(self) -> dict | None:
        """The pin as a report field: None if nothing is pinned."""
        return None if self.regime is None else {"t1": self.t1, "eta0": self.eta0}


# ---------------------------------------------------------------------------
# Income streams
# ---------------------------------------------------------------------------

def _values_at(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at every point of x: one call on the array, or a scalar loop where
    f does not return x's shape (f is not vectorized)."""
    values = np.asarray(f(x), dtype=float)
    if values.shape != x.shape:
        values = np.array([float(f(a)) for a in x.ravel()]).reshape(x.shape)
    return values


def _buffers(out, *args):
    """The (values, mask) pair `out` that a jump-keyed stream's values
    writes into, or a fresh pair of the arguments' broadcast shape."""
    if out is not None:
        return out
    shape = np.broadcast_shapes(*map(np.shape, args))
    return np.empty(shape), np.empty(shape, dtype=bool)


@dataclass(frozen=True)
class ConstantStream:
    """e_t = level, a deterministic perpetual payment rate."""

    level: float
    jump_keyed: ClassVar[bool] = False

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise StreamGuardError("constant stream level must be finite")

    @property
    def label(self) -> str:
        return f"constant:{self.level:g}"

    def values(self, r: float, t, jumps, psi0, out=None):
        return self.level


@dataclass(frozen=True)
class ExpUntilFirstJumpStream:
    """e_t = exp(r t) on [0, T1), zero afterwards.

    It grows as fast as the bank account, so it has a finite price only
    because it stops at the first jump; the pricing layer checks the decay
    rate that this requires (lam - alpha > 0 and its analogues).
    """

    jump_keyed: ClassVar[bool] = True
    label: ClassVar[str] = "exp_until_jump"

    def values(self, r: float, t, jumps, psi0, out=None):
        vals, off = _buffers(out, t, jumps)
        np.copyto(vals, np.exp(r * t))
        np.copyto(vals, 0.0, where=np.not_equal(jumps, 0, out=off))
        return vals


@dataclass(frozen=True)
class PostFirstJumpSignalStream:
    """e_t = exp((r - 1) t) * Psi(eta_0) on [T1, infinity).

    The payoff scale is fixed at T1 by the initial signal eta_0; psi must be
    bounded by psi_bound in absolute value.
    """

    psi: Callable[[float], float]
    psi_bound: float
    psi_name: str = "psi"
    jump_keyed: ClassVar[bool] = True

    def __post_init__(self):
        if not (math.isfinite(self.psi_bound) and self.psi_bound >= 0.0):
            raise StreamGuardError("psi_bound must be a finite nonnegative constant")

    @property
    def label(self) -> str:
        return f"post_jump_signal:{self.psi_name}"

    def psi_at(self, eta0: np.ndarray) -> np.ndarray:
        """psi at the first signals of a set of paths, the psi0 of values;
        raises SimulationError where one exceeds psi_bound."""
        psi0 = _values_at(self.psi, eta0)
        if np.any(np.abs(psi0) > self.psi_bound * (1.0 + 1e-12)):
            raise SimulationError("psi exceeded its declared bound")
        return psi0

    def values(self, r: float, t, jumps, psi0, out=None):
        vals, off = _buffers(out, t, jumps, psi0)
        np.multiply(psi0, np.exp((r - 1.0) * t), out=vals)
        np.copyto(vals, 0.0, where=np.less(jumps, 1, out=off))
        return vals


IncomeStream = ConstantStream | ExpUntilFirstJumpStream | PostFirstJumpSignalStream


def require_stream(e) -> None:
    """Raise TypeError for anything that is not one of the three streams."""
    if not isinstance(e, IncomeStream):
        raise TypeError(f"not an income stream: {e!r}")


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

# External key names, in ModelParams field order; "lambda" is a Python
# keyword so the attribute is `lam`.
CONFIG_KEYS = ("mu", "r", "sigma", "lambda", "m", "v", "rho", "R", "v_eps")
_KEY_TO_ATTR = {k: ("lam" if k == "lambda" else k) for k in CONFIG_KEYS}


def read_params_file(path: str) -> ModelParams:
    """Read `key = value` lines into ModelParams.

    Blank lines and lines starting with '#' are ignored. Keys must be exactly
    the ModelParams field names; unknown or repeated keys and missing fields
    are errors.
    """
    seen: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_ATTR:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            seen[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number for {key!r}: {value.strip()!r}") from exc
    missing = [k for k in CONFIG_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
    return ModelParams(**{_KEY_TO_ATTR[k]: val for k, val in seen.items()})


def write_params_file(path: str, p: ModelParams) -> None:
    """Inverse of read_params_file, mainly for tests and report dumps."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in CONFIG_KEYS:
            fh.write(f"{key} = {getattr(p, _KEY_TO_ATTR[key])!r}\n")
