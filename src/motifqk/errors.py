"""Exception hierarchy shared across the pipeline.

Each CLI-facing failure mode gets its own class so the entry point can map
exceptions to stable exit codes. ``check_seed`` is the one rule for every
seed a config or call takes, so that a bad seed is a ``ConfigError`` where
the config is built rather than a numpy error where the seed is consumed.
"""

import numbers


class MotifqkError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(MotifqkError):
    """Invalid configuration value, flag combination, or config file."""


class DataError(MotifqkError):
    """Malformed input data: bad CSV rows, unknown motifs, invalid encodings."""


class BackendError(MotifqkError):
    """Simulation backend cannot handle the request (size caps, bad descriptor)."""


class SolverError(MotifqkError):
    """The SVM solver's result breaks an optimality condition it checks."""


def check_seed(seed, name: str = "seed") -> None:
    """Reject a seed that is not an int >= 0, the seeds numpy accepts."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"{name} must be an int >= 0, got {seed!r}")
