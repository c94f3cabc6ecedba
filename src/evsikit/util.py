"""Shared error types and small numerical helpers: the one Normal rule, and
numpy forms of the logistic functions and the log Beta function.

`expit`, `logit` and `log_expit` evaluate scipy.special's formulas with
numpy's exp, log and log1p, so they agree with scipy to an ulp or two and,
like scipy, return infinities at the ends without a RuntimeWarning.  The
package computes them here so that importing it loads nothing from scipy.
"""

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


def normal_rule(mean, var, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Hermite rule for Normal(mean, var): nodes mean + sqrt(2 var) x
    on a trailing axis, and the weights of `hermite_nodes` broadcast to them."""
    x, w = hermite_nodes(n)
    mean, var = (np.asarray(v, dtype=float)[..., None] for v in (mean, var))
    nodes = mean + np.sqrt(2.0 * var) * x
    return nodes, np.broadcast_to(w, nodes.shape)


def gauss_hermite_expectation(f, mean, var, n: int = 64):
    """E[f(Z)] for Z ~ Normal(mean, var), the weighted sum of f over the nodes
    of `normal_rule`; `f` must accept arrays, and arrays of moments cost one call."""
    nodes, weights = normal_rule(mean, var, n)
    return np.sum(weights * f(nodes), axis=-1)


def _value(out: np.ndarray):
    """`out`, or its scalar if it is 0-d.  Not `out[()]` for both: a view
    keeps numpy from reusing a temporary's buffer, as in weights * expit(y)."""
    return out if out.ndim else out[()]


def expit(x):
    """1 / (1 + exp(-x)), scipy.special.expit's formula, in one output array;
    a scalar gives a scalar."""
    out = np.array(x, dtype=float)
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return _value(out)


def log_expit(x):
    """log(expit(x)), as scipy.special.log_expit: x - log1p(exp(x)) below 0
    and -log1p(exp(-x)) above, which is -logaddexp(0, -x)."""
    out = np.array(x, dtype=float)
    np.negative(out, out=out)
    np.logaddexp(0.0, out, out=out)
    np.negative(out, out=out)
    return _value(out)


def logit(p):
    """log(p / (1 - p)), as scipy.special.logit: on [0.3, 0.65], where that
    loses digits, log1p(s) - log1p(-s) with s = 2 (p - 0.5)."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(p / (1.0 - p), out=out)
    mid = (p >= 0.3) & (p <= 0.65)
    s = 2.0 * (p[mid] - 0.5)
    out[mid] = np.log1p(s) - np.log1p(-s)
    return _value(out)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0: log(Gamma(a) Gamma(b) / Gamma(a + b)) while
    a + b < 171, where the gammas are finite, and lgamma above."""
    if a + b < 171.0:
        return math.log(math.gamma(a) / math.gamma(a + b) * math.gamma(b))
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
