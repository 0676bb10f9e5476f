"""Exception types shared across the package.

All domain failures (bad parameters, regime gates, ill-posedness,
non-convergence) derive from :class:`DomainError` so the CLI can map them
to a single exit code. Usage and config-file problems raise
:class:`ConfigError` instead.
"""


class DomainError(Exception):
    """A model/solver level failure: the inputs describe a problem the
    engine refuses to price rather than a malformed invocation."""


class ParameterError(DomainError):
    """Model parameters violate a hard constraint."""


class GateError(DomainError):
    """A regime's standing assumptions do not hold for these parameters."""


class IllPosedError(DomainError):
    """The consumption problem has infinite value for these parameters."""


class BoundaryOptimumError(DomainError):
    """An optimizer that must be interior landed on a boundary."""


class AmbiguousMaximumError(DomainError):
    """A scan found two near-equal maxima far apart; refusing to pick one."""


class ConvergenceError(DomainError):
    """An iterative solver did not reach its tolerance."""


class StreamGuardError(DomainError):
    """An income stream's payoff scale is not a finite constant."""


class SimulationError(DomainError):
    """A simulated path produced a non-finite state."""


class ConfigError(Exception):
    """Malformed config file or unusable CLI invocation."""
