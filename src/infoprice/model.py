"""Market/preference constants, income-stream descriptions, and static checks.

The market has a bank account growing at rate ``r`` and one risky asset whose
cumulative return is a Brownian diffusion plus a compound Poisson jump part:
jumps arrive at rate ``lam`` and each jump ``xi`` of the log-return is
N(m, v). The investor has power utility with relative risk aversion ``R``
and discounts consumption at rate ``rho``. A noisy observer sees
``eta = xi + eps`` with ``eps ~ N(0, v_eps)`` independent of everything else.

Three income streams make up the stream API: ConstantStream,
ExpUntilFirstJumpStream and PostFirstJumpSignalStream. The simulation engine
and the pricing layer dispatch on their types, and each has a closed form and
an analytic truncation bound. Their constructors reject a payoff scale that
is not finite; the pricing entry points reject parameters that fail a hard
check of validate_params with ParameterError.

All rates are per year and time is measured in years. Every object here is
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, ParameterError, StreamGuardError

__all__ = [
    "ModelParams",
    "ValidationReport",
    "CheckFlag",
    "validate_params",
    "require_valid_params",
    "IncomeStream",
    "ConstantStream",
    "ExpUntilFirstJumpStream",
    "PostFirstJumpSignalStream",
    "read_params_file",
    "CONFIG_KEYS",
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
    def q_dual(self) -> float:
        """Dual exponent (1 - R) / R used by the dual value function."""
        return (1.0 - self.R) / self.R

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
        check("signal_regime_gate", p.R > 1.0 and 0.0 < pi_m < 1.0,
              "signal-insider solve needs R > 1 and (mu - r)/(sigma^2 R) in (0, 1); "
              f"got R={p.R:g}, fraction={pi_m:.6g}")
    return ValidationReport(tuple(flags))


# Checks that gate every solver; the signal-regime gate is enforced only by
# the signal solver itself.
_HARD_CHECKS = (
    "no_arbitrage_sigma", "r_positive", "v_positive", "lambda_nonnegative",
    "v_eps_nonnegative", "rho_positive", "utility_R", "finite_value_R_gt_1",
)


def require_valid_params(p: ModelParams) -> None:
    """Raise ParameterError if any hard check fails."""
    report = validate_params(p)
    bad = [f for f in report.failures() if f.name in _HARD_CHECKS]
    if bad:
        raise ParameterError("; ".join(f"{f.name}: {f.message}" for f in bad))


# ---------------------------------------------------------------------------
# Income streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantStream:
    """e_t = level, a deterministic perpetual payment rate."""

    level: float

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise StreamGuardError("constant stream level must be finite")


@dataclass(frozen=True)
class ExpUntilFirstJumpStream:
    """e_t = exp(r t) on [0, T1), zero afterwards.

    It grows as fast as the bank account, so it has a finite price only
    because it stops at the first jump; the pricing layer checks the decay
    rate that this requires (lam - alpha > 0 and its analogues).
    """


@dataclass(frozen=True)
class PostFirstJumpSignalStream:
    """e_t = exp((r - 1) t) * Psi(eta_0) on [T1, infinity).

    The payoff scale is fixed at T1 by the initial signal eta_0; psi must be
    bounded by psi_bound in absolute value.
    """

    psi: Callable[[float], float]
    psi_bound: float
    psi_name: str = "psi"

    def __post_init__(self):
        if not (math.isfinite(self.psi_bound) and self.psi_bound >= 0.0):
            raise StreamGuardError("psi_bound must be a finite nonnegative constant")


IncomeStream = ConstantStream | ExpUntilFirstJumpStream | PostFirstJumpSignalStream


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

# External key names; "lambda" is a Python keyword so the attribute is `lam`.
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
