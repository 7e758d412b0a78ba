"""Exception hierarchy shared by all decaylab modules."""

__all__ = [
    "DecayLabError",
    "DomainError",
    "NoDecayError",
    "SolverError",
    "DataError",
    "UnclassifiableError",
    "InsufficientDataError",
    "ConfigError",
]


class DecayLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DecayLabError, ValueError):
    """An input lies outside the physical domain of an operation."""


class NoDecayError(DomainError):
    """The total decay rate is zero, so the requested process never happens."""


class SolverError(DecayLabError, RuntimeError):
    """A root finder failed to bracket or converge."""


class DataError(DecayLabError, ValueError):
    """An event stream or derived counts violate their structural invariants."""


class UnclassifiableError(DataError):
    """Pair identities are missing, so photons cannot be paired up."""


class InsufficientDataError(DataError):
    """Too few events for the requested statistical estimate."""


class ConfigError(DecayLabError, ValueError):
    """A run configuration could not be parsed or validated."""
