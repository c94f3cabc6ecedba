"""Shared error types and small numerical helpers."""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np


class EvsiKitError(Exception):
    """Base class for all package errors."""


class ConfigError(EvsiKitError):
    """Invalid run configuration (bad keys, bad counts, unknown names)."""


class SchemaError(EvsiKitError):
    """Structural mismatch between containers (columns, shapes, names)."""


class ComputationError(EvsiKitError):
    """A numeric stage failed; message carries the stage label."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class DegenerateModelError(EvsiKitError):
    """The model has no decision-relevant uncertainty (zero variance)."""


class UnsupportedDimensionError(EvsiKitError):
    """Focal/summary dimension outside the supported range."""


class BudgetExceededError(EvsiKitError):
    """Wall-time budget ran out; carries the completed outer count."""

    def __init__(self, completed: int, total: int):
        self.completed = completed
        self.total = total
        super().__init__(f"budget exceeded after {completed}/{total} outer draws")


def require_finite(stage: str, arrays: dict, where: str = "") -> None:
    """Raise `ComputationError(stage)` counting the non-finite values of the
    first named array that has any; `where` ends the message."""
    for name, values in arrays.items():
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise ComputationError(stage, f"{bad} non-finite value(s) of {name}{where}")


def require_count(name: str, value, least: int, error: type = ValueError) -> None:
    """Raise `error` naming a count that is a bool, not an integer or below
    `least`, numpy integers passing: a bool runs as 0 or 1, and a float fails
    late in numpy or, as a sample size, updates posteriors but not draws."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def require_number(name: str, value) -> None:
    """Raise a `ConfigError` naming a setting that is a bool or not a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@functools.cache
def hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Hermite nodes x for the weight exp(-x^2), and their
    weights divided by sqrt(pi), so that they sum to 1; built on first use
    and cached.  E[f(Z)] for Z ~ Normal(0, 1) is sum(w f(sqrt(2) x))."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w / np.sqrt(np.pi)


def gauss_hermite_expectation(f, mean, var, n: int = 64):
    """E[f(Z)] for Z ~ Normal(mean, var) by Gauss-Hermite quadrature.

    `mean` and `var` may be arrays; they broadcast against the node axis,
    so vectorised use costs one call. `f` must accept ndarray input.
    """
    x, w = hermite_nodes(n)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    z = mean[..., None] + np.sqrt(2.0 * var)[..., None] * x
    return np.sum(w * f(z), axis=-1)


def round_half_up(x: float) -> int:
    """round() with halves always going up, independent of banker's rounding."""
    return int(np.floor(x + 0.5))
