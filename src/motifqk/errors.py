"""Exception hierarchy shared across the pipeline.

Each CLI-facing failure mode gets its own class so the entry point can map
exceptions to stable exit codes. ``check_count`` is the one rule for every
count (folds, splits, passes, repetitions, steps, shots, worker processes,
a kernel degree) and every seed a config or call takes, and ``check_real``
the one rule for every real parameter (a threshold, gamma, coef0, C, tol,
lambda, scale or angle), so that a bad value is a ``ConfigError`` where the
config is built rather than a numpy or JSON error, or a silent rounding,
where it is consumed.
"""

import math
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


def check_count(value, name: str, minimum: int) -> None:
    """Reject a count or seed that is not a plain int >= minimum: a bool, a
    float or a numpy integer is refused, so a config holds what the JSON of
    its hash and descriptors can spell."""
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_real(value, name: str, low: float = -math.inf,
               inclusive: bool = True) -> None:
    """Reject a real parameter that is not a finite number >= low (> low
    unless ``inclusive``). A bool is refused, as by ``check_count``: a
    config that held True would spell it ``True`` in its hash and JSON."""
    # a plain float skips the slower ABC test: every rotation gate comes here
    real = type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))
    if not (real and math.isfinite(value)
            and (value > low or (inclusive and value == low))):
        bound = "" if low == -math.inf else \
            f" and {'>=' if inclusive else '>'} {low:g}"
        raise ConfigError(f"{name} must be finite{bound}, got {value!r}")
