"""Exception hierarchy shared across the package.

Every error raised on a user-facing path derives from ModwatchError, and
each class declares the stable exit code the CLI returns for it.
"""
from __future__ import annotations


class ModwatchError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(ModwatchError):
    """Invalid or contradictory configuration values."""

    exit_code = 2


class ShapeError(ModwatchError):
    """Tensor or architecture dimensions do not line up."""

    exit_code = 5


class DataError(ModwatchError):
    """Dataset contents violate a contract (labels, modules, splits, files)."""

    exit_code = 4


class NumericError(ModwatchError):
    """Numeric failure: non-finite values, invalid reductions, spent tapes."""

    exit_code = 3


class TrainingDiverged(NumericError):
    """Loss or gradients became non-finite during optimisation."""
