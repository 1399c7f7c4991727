"""Exception hierarchy shared across the pipeline.

Each CLI-facing failure mode gets its own class so the entry point can map
exceptions to stable exit codes. ``check_count`` is the one rule for every
count (folds, splits, passes, repetitions, steps, shots, worker processes,
a kernel degree) and every seed a config or call takes, so that a bad value
is a ``ConfigError`` where the config is built rather than a numpy or JSON
error, or a silent rounding, where it is consumed.
"""


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


def check_count(value, name: str, minimum: int) -> None:
    """Reject a count or seed that is not a plain int >= minimum: a bool, a
    float or a numpy integer is refused, so a config holds what the JSON of
    its hash and descriptors can spell."""
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{name} must be an int >= {minimum}, got {value!r}")
