"""Exception hierarchy shared across the pipeline.

Each CLI-facing failure mode gets its own class so the entry point can map
exceptions to stable exit codes.
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
