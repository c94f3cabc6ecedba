"""Output checks that hold for any seed.

Each check compares a program output with an exact reference or an exact
property of the method, with a slack of a stated number of standard errors.
A Normal tail beyond 6 SE has probability 1e-9 per check, beyond 5 SE 3e-7:
over the few thousand estimates and ~20 replicate groups of a run, the
chance that a correct program trips any check is below 1e-5 per run.  No check compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

PER_ESTIMATE_K = 6.0
REPLICATE_K = 5.0
MOMENT_RTOL = 1e-6


def voi_and_se(x) -> tuple[float, float]:
    """mean(max(0, x)) - max(0, mean(x)) and a bound on its standard error.

    The bound adds the SEs of both terms.  max(0, mean) changes by at most
    as much as the mean, so it also covers models whose mean INB is exactly
    0, where that term is biased and the usual integrand SE understates the
    error (exp-gamma at S=1e4 read 10% low, 6 integrand SEs).
    """
    x = np.asarray(x, dtype=float)
    positive = np.maximum(x, 0.0)
    value = float(np.mean(positive)) - max(0.0, float(np.mean(x)))
    se = (float(np.std(positive, ddof=1)) + float(np.std(x, ddof=1))) / np.sqrt(x.size)
    return value, se


def check_estimate(result, inb_theta, evppi_ref: float) -> list[str]:
    """Problems with one moment-matching result; empty when it is sound.

    * the rescaled sample keeps the INB mean and has variance sigma2 (or the
      conditional-INB variance when `a` was clamped to 1), both within 1e-6
      of the INB's own scale;
    * 0 <= EVSI <= EVPPI <= EVPI, with 6 SE of slack on each inequality.
      EVPPI is exact and taken over every parameter the study informs; EVPI
      is read off the same PSA draws as the estimate.
    """
    problems = []
    rescaled = np.asarray(result.rescaled, dtype=float)
    theta = np.asarray(inb_theta, dtype=float)
    sigma2 = float(result.variance_estimate.sigma2)
    evsi, se = float(result.evsi), float(result.evsi_se)
    if not (np.isfinite(evsi) and np.isfinite(se) and np.isfinite(sigma2)):
        return [f"non-finite output evsi={evsi} se={se} sigma2={sigma2}"]

    var_theta = float(np.var(theta, ddof=1))
    mean_gap = abs(float(np.mean(rescaled)) - float(np.mean(theta)))
    if mean_gap > MOMENT_RTOL * np.sqrt(var_theta):
        problems.append(f"rescaled mean off by {mean_gap:.3g}")
    var_rescaled = float(np.var(rescaled, ddof=1))
    if result.a_clamped:
        if result.a != 1.0 or sigma2 > 1.05 * var_rescaled * (1.0 + MOMENT_RTOL):
            problems.append(f"clamped a={result.a} with sigma2={sigma2:.6g}")
    elif abs(var_rescaled - sigma2) > MOMENT_RTOL * var_theta:
        problems.append(f"rescaled variance {var_rescaled:.9g} != sigma2 {sigma2:.9g}")

    evpi_hat, evpi_se = voi_and_se(theta)
    if evsi < 0.0:
        problems.append(f"evsi {evsi} < 0")
    if evsi > evppi_ref + PER_ESTIMATE_K * se + 1e-9 * evppi_ref:
        problems.append(f"evsi {evsi:.6g} > evppi {evppi_ref:.6g} + {PER_ESTIMATE_K} se")
    if evppi_ref > evpi_hat + PER_ESTIMATE_K * evpi_se + 1e-9 * evppi_ref:
        problems.append(f"evppi {evppi_ref:.6g} > evpi {evpi_hat:.6g} + {PER_ESTIMATE_K} se")
    return problems


def check_replicates(values, ses, exact: float, bias: float) -> list[str]:
    """Replicate mean within the documented bias plus 5 SE of the exact value.

    The SE of the mean is the larger of the reported SEs' combination and,
    from 10 replicates up, the replicates' own spread, so an estimator whose
    reported SE is too small cannot pass on many replicates by accident.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return []
    se_mean = float(np.sqrt(np.mean(np.square(ses)) / v.size))
    if v.size >= 10:
        se_mean = max(se_mean, float(np.std(v, ddof=1)) / np.sqrt(v.size))
    gap = abs(float(np.mean(v)) - exact)
    tol = bias * exact + REPLICATE_K * se_mean
    if gap > tol:
        return [f"mean of {v.size} = {np.mean(v):.6g} vs exact {exact:.6g}: "
                f"gap {gap:.3g} > {tol:.3g}"]
    return []
