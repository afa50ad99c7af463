"""Error taxonomy shared by the library and the CLI.

Exit codes: 0 success, 1 usage/config, 2 data, 3 numeric.
"""

import numpy as np


class MvError(Exception):
    """Base class; carries the process exit code for the CLI."""

    exit_code = 1


class ConfigError(MvError):
    """Bad configuration, bad usage, constraint violation."""

    exit_code = 1


class DataError(MvError):
    """Malformed, misaligned, or non-numeric input data."""

    exit_code = 2


class NumericError(MvError):
    """Non-finite value produced during computation."""

    exit_code = 3


class numeric_errors:
    """Context in which an overflow, a division by zero or an invalid
    operation raises NumericError instead of warning and carrying inf or NaN
    on; the message ends with `where`, which may be changed inside."""

    def __init__(self, where=""):
        self.where = where
        self._errstate = np.errstate(over="raise", divide="raise", invalid="raise")

    def __enter__(self):
        self._errstate.__enter__()
        return self

    def __exit__(self, kind, exc, tb):
        self._errstate.__exit__(kind, exc, tb)
        if isinstance(exc, FloatingPointError):
            raise NumericError(f"floating-point {exc} {self.where}".rstrip()) from exc
