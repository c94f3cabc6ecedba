"""The moment-matching EVSI estimator.

The fitted conditional INB samples g(phi) are rescaled linearly so their
first two moments match the preposterior mean's: a = sigma / sd(g),
b = mean(INB) * (1 - a).  The EVSI is then read directly off the rescaled
sample.

g is the conditional mean of the INB given the parameters the future data
inform, and sigma2, the variance of the preposterior mean, comes from
`preposterior` as Var(g) minus the mean posterior variance of g, so a <= 1
by construction.  An approximate Monte Carlo standard error is attached,
combining the sampling noise of the rescaled average with the uncertainty
of sigma2 propagated through `a` and the noise of the fit itself.

g is passed as a value: `conditional_inb` returns it with its fit, and the
result keeps it as `conditional_mean`.  No step modifies the caller's INB.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import DecisionModel, InbSamples, PsaSamples, compute_inb, voi
from .preposterior import VarianceEstimate, build_plan, expected_posterior_variance
from .regression import RegressionFit, fit_conditional_mean
from .rng import SeedSpec
from .util import ComputationError, DegenerateModelError, require_count

_PLAN_SUB = 11


@dataclass(frozen=True)
class EvsiOptions:
    Q: int = 30
    # M and burn_in are read by nothing: every design's posterior is a
    # quadrature rule.  They stay while the benchmark uses them, as do
    # nested_mc_evsi's n_inner and inner_burn_in, MomentMatchResult.a_clamped,
    # posterior.metropolis_ensemble and the four conjugate `draw` methods:
    # evsibench/workloads.py:25-27 (M, burn_in) and :203 (n_inner,
    # inner_burn_in), evsibench/checks.py:58 (a_clamped) and the TARGETS of
    # evsibench/tracing.py (the sampler and the draws)
    M: int = 10000
    burn_in: int = 1000
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self):
        require_count("Q", self.Q, 1)
        require_count("M", self.M, 1)


@dataclass
class MomentMatchResult:
    a: float
    b: float
    rescaled: np.ndarray = field(repr=False)
    conditional_mean: np.ndarray = field(repr=False)   # g on the PSA draws
    evsi: float
    variance_estimate: VarianceEstimate
    config: dict
    evsi_raw: float = 0.0
    evsi_se: float = 0.0
    a_clamped: bool = False     # a is never clamped; kept for readers of result.json
    fit_diagnostics: dict | None = None

    def to_json_dict(self) -> dict:
        ve = self.variance_estimate
        return {
            "evsi": self.evsi,
            "evsi_raw": self.evsi_raw,
            "evsi_se": self.evsi_se,
            "a": self.a,
            "a_clamped": self.a_clamped,
            "b": self.b,
            "sigma2": ve.sigma2,
            "sigma2_clamped": ve.clamped,
            "sigma2_from": ve.sigma2_from,
            "prior_variance": ve.prior_variance,
            "expected_posterior_variance": ve.expected_posterior_variance,
            "per_point_variances": [float(v) for v in ve.per_point],
            "informed_params": list(ve.phi_names),
            "posterior_method": ve.posterior_method,
            "config": self.config,
            "fit": self.fit_diagnostics,
        }


def compute_constants(sigma2: float, inb: InbSamples,
                      var_g: float | None = None) -> tuple[float, float]:
    """Rescaling constants a = sqrt(sigma2 / Var(g)), b = mean(INB) (1 - a).

    `var_g`, Var(g), is the INB's own variance unless the caller holds that
    of a fitted g.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if var_g is None:
        var_g = float(np.var(inb.inb_theta, ddof=1))
    if var_g == 0.0:
        raise DegenerateModelError("conditional INB variance is zero; nothing to rescale")
    a = float(np.sqrt(sigma2 / var_g))
    b = float(np.mean(inb.inb_theta)) * (1.0 - a)
    return a, b


def _sigma2_standard_error(a: float, inb: InbSamples, g: np.ndarray, rescaled: np.ndarray,
                           ve: VarianceEstimate, var_g: float) -> float:
    """The part of the EVSI's MC standard error that sigma2 noise adds via `a`.

    sigma2 is the prior variance of g minus the mean of the Q posterior
    variances.  Its variance is taken as the sum of:

    * the sampling variance of the prior variance, (m4 - var^2) / S, with
      m4 the fourth central moment of g;
    * the variance of the mean of the per-point variances, from their spread;
    * the noise of the fit itself.  An error e in g moves sigma2 =
      Var(E[g | X]) by 2 E[e(phi) w(phi)], w(phi) = E[E[g | X] | phi] - E[g],
      and w is about a^2 (g - E[g]) (exact for a normal-linear study).  With
      e the spline fit of the residuals r = INB - g, that is a variance of
      4 a^4 E[r^2 (g - E[g])^2] / S, which is 0 when g is the INB.
    """
    if not (a > 0.0 and ve.sigma2 > 0):
        return 0.0
    c = g - np.mean(g)
    d_evsi_da = float(np.mean(c * (rescaled > 0)))
    np.square(c, out=c)
    r = inb.inb_theta - g
    np.square(r, out=r)
    var_sigma2 = 4.0 * a**4 * float(np.dot(r, c)) / g.size**2
    np.square(c, out=c)
    var_sigma2 += max(float(np.mean(c)) - ve.prior_variance**2, 0.0) / g.size
    if ve.per_point.size > 1:
        var_sigma2 += float(np.var(ve.per_point, ddof=1)) / ve.per_point.size
    else:
        var_sigma2 += 2.0 * float(ve.per_point[0]) ** 2 / max(g.size - 1, 1)
    var_a = var_sigma2 / (4.0 * ve.sigma2 * var_g)
    return abs(d_evsi_da) * np.sqrt(var_a)


def _location_standard_error(inb: InbSamples, g: np.ndarray, rescaled: np.ndarray) -> float:
    """The EVSI noise that the fit's mean error adds, 0 when g is the INB.

    The fitted values keep the sample mean of the INB, so the residuals'
    mean, with variance Var(INB - g) / S, shifts every rescaled value and the
    grand mean alike; the EVSI moves by P(rescaled > 0) - [mean > 0] per unit
    of shift.  The parameters the data leave untouched make up this noise.
    """
    if g is inb.inb_theta:
        return 0.0
    residual_var = float(np.var(inb.inb_theta - g, ddof=1))
    slope = float(np.mean(rescaled > 0)) - float(np.mean(inb.inb_theta) > 0)
    return abs(slope) * np.sqrt(residual_var / rescaled.size)


def conditional_inb(model: DecisionModel, psa: PsaSamples, inb: InbSamples,
                    params) -> tuple[np.ndarray, RegressionFit | None]:
    """(g, its fit), g the conditional mean of the INB given `params` on the
    PSA draws: the INB itself, with no fit, when `params` covers every model
    parameter or the INB is constant, and otherwise the GCV spline fit on
    those columns."""
    params = tuple(params)
    y = inb.inb_theta
    if set(model.param_names) <= set(params) or y.min() == y.max():
        return y, None
    fit = fit_conditional_mean(inb, psa.matrix(params), names=params)
    return fit.fitted, fit


def estimate_evsi(
    model: DecisionModel,
    design,
    psa: PsaSamples,
    options: EvsiOptions | None = None,
    inb: InbSamples | None = None,
) -> MomentMatchResult:
    """Full pipeline: conditional fit, quadrature variance, rescale, read EVSI.

    g is fitted on the design's informed parameters and the quadrature
    points are spaced over them; the result keeps it as `conditional_mean`.
    A precomputed `inb` saves computing the INB again, and is not modified.
    """
    opts = options or EvsiOptions()
    seed = opts.seed

    recipe = design.recipe
    if recipe.is_discrete_data and recipe.n < 20:
        warnings.warn(
            f"future sample size {recipe.n} < 20 with discrete data; "
            "the rescaling approximation degrades for very small studies",
            stacklevel=2,
        )

    if inb is None:
        try:
            inb = compute_inb(model, psa)
        except Exception as exc:
            raise ComputationError("net_benefit", str(exc)) from exc

    try:
        g, fit = conditional_inb(model, psa, inb, recipe.informed_params)
        fit_diag = None if fit is None else fit.diagnostics()
    except Exception as exc:
        raise ComputationError("regression", str(exc)) from exc
    if g.min() == g.max():  # `or 0.0` prints a -0.0 as 0
        raise DegenerateModelError(f"g, the INB's conditional mean, is constant ({g[0] or 0.0:g} "
                                   "on every draw); the rescaling divides by its variance")

    try:
        plan = build_plan(psa, recipe.informed_params, opts.Q, seed.derive(_PLAN_SUB))
        ve = expected_posterior_variance(plan, design, model, g, fit)
    except ComputationError:
        raise
    except Exception as exc:
        raise ComputationError("posterior_variance", str(exc)) from exc

    # Var(g), the same array and operation whether g is the fit or the INB
    var_g = ve.prior_variance
    try:
        a, b = compute_constants(ve.sigma2, inb, var_g)
    except Exception as exc:
        raise ComputationError("constants", str(exc)) from exc

    rescaled = a * g + b
    evsi, se_psa, raw = voi(rescaled)
    evsi_se = float(np.hypot(se_psa, _sigma2_standard_error(a, inb, g, rescaled, ve, var_g)))
    evsi_se = float(np.hypot(evsi_se, _location_standard_error(inb, g, rescaled)))

    return MomentMatchResult(
        a=a,
        b=b,
        rescaled=rescaled,
        conditional_mean=g,
        evsi=evsi,
        variance_estimate=ve,
        config={
            "model": model.name,
            "design": design.name,
            "S": psa.n_draws,
            "Q": int(opts.Q),
            "seed": seed.as_dict(),
            "psa_seed": psa.seed.as_dict(),
            "quadrature_spacing": plan.spacing,
        },
        evsi_raw=raw,
        evsi_se=evsi_se,
        fit_diagnostics=fit_diag,
    )
