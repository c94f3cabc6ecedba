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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import DecisionModel, InbSamples, PsaSamples, compute_inb, voi
from .preposterior import VarianceEstimate, build_plan, expected_posterior_variance
from .regression import fit_conditional_mean
from .rng import SeedSpec
from .util import ComputationError, DegenerateModelError

_PLAN_SUB = 11


@dataclass(frozen=True)
class EvsiOptions:
    Q: int = 30
    M: int = 10000      # draws per point of a conjugate posterior
    burn_in: int = 1000  # kept for callers; no registered design runs chains
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError("Q must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


@dataclass
class MomentMatchResult:
    a: float
    b: float
    rescaled: np.ndarray = field(repr=False)
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
                      var_phi: float | None = None) -> tuple[float, float]:
    """Rescaling constants a = sqrt(sigma2 / Var(g)), b = mean(INB) (1 - a).

    `var_phi`, Var(g), is computed from `inb` unless the caller already
    holds it.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if var_phi is None:
        phi = inb.inb_phi if inb.inb_phi is not None else inb.inb_theta
        var_phi = float(np.var(phi, ddof=1))
    if var_phi == 0.0:
        raise DegenerateModelError("conditional INB variance is zero; nothing to rescale")
    a = float(np.sqrt(sigma2 / var_phi))
    b = float(np.mean(inb.inb_theta)) * (1.0 - a)
    return a, b


def _sigma2_standard_error(a: float, inb: InbSamples, rescaled: np.ndarray,
                           ve: VarianceEstimate, var_phi: float) -> float:
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
    x = inb.inb_phi
    c = x - np.mean(x)
    d_evsi_da = float(np.mean(c * (rescaled > 0)))
    np.square(c, out=c)
    r = inb.inb_theta - x
    np.square(r, out=r)
    var_sigma2 = 4.0 * a**4 * float(np.dot(r, c)) / x.size**2
    np.square(c, out=c)
    var_sigma2 += max(float(np.mean(c)) - ve.prior_variance**2, 0.0) / x.size
    if ve.per_point.size > 1:
        var_sigma2 += float(np.var(ve.per_point, ddof=1)) / ve.per_point.size
    else:
        var_sigma2 += 2.0 * float(ve.per_point[0]) ** 2 / max(x.size - 1, 1)
    var_a = var_sigma2 / (4.0 * ve.sigma2 * var_phi)
    return abs(d_evsi_da) * np.sqrt(var_a)


def _location_standard_error(inb: InbSamples, rescaled: np.ndarray) -> float:
    """The EVSI noise that the fit's mean error adds, 0 when g is the INB.

    The fitted values keep the sample mean of the INB, so the residuals'
    mean, with variance Var(INB - g) / S, shifts every rescaled value and the
    grand mean alike; the EVSI moves by P(rescaled > 0) - [mean > 0] per unit
    of shift.  The parameters the data leave untouched make up this noise.
    """
    if inb.inb_phi is inb.inb_theta:
        return 0.0
    residual_var = float(np.var(inb.inb_theta - inb.inb_phi, ddof=1))
    slope = float(np.mean(rescaled > 0)) - float(np.mean(inb.inb_theta) > 0)
    return abs(slope) * np.sqrt(residual_var / rescaled.size)


def conditional_inb(model: DecisionModel, psa: PsaSamples, inb: InbSamples,
                    params) -> dict | None:
    """Set `inb.inb_phi` to g, the conditional mean of the INB given `params`.

    g is the INB itself when `params` covers every model parameter, and
    otherwise the GCV spline fit on those PSA columns, which is reused when
    `inb` already holds one on them.  Returns the fit's diagnostics, or None
    when g is the INB.
    """
    params = tuple(params)
    if set(model.param_names) <= set(params):
        inb.inb_phi, inb.phi_names, inb.phi_fit = inb.inb_theta, params, None
        return None
    if inb.phi_fit is None or inb.phi_names != params:
        fit_conditional_mean(inb, psa.matrix(params), names=params)
    return inb.phi_fit.diagnostics()


def estimate_evsi(
    model: DecisionModel,
    design,
    psa: PsaSamples,
    options: EvsiOptions | None = None,
    inb: InbSamples | None = None,
) -> MomentMatchResult:
    """Full pipeline: conditional fit, quadrature variance, rescale, read EVSI.

    g is fitted on the design's informed parameters and the quadrature
    points are spaced over them.  Passing a precomputed `inb` reuses a fit it
    already holds on those columns; its `inb_phi` is set to g as a side
    effect.
    """
    opts = options or EvsiOptions()
    seed = opts.seed

    if design.is_discrete_data and design.sample_size < 20:
        warnings.warn(
            f"future sample size {design.sample_size} < 20 with discrete data; "
            "the rescaling approximation degrades for very small studies",
            stacklevel=2,
        )

    if inb is None:
        try:
            inb = compute_inb(model, psa)
        except Exception as exc:
            raise ComputationError("net_benefit", str(exc)) from exc

    try:
        fit_diag = conditional_inb(model, psa, inb, design.informed_params)
    except Exception as exc:
        raise ComputationError("regression", str(exc)) from exc

    try:
        plan = build_plan(psa, design.informed_params, opts.Q, seed.derive(_PLAN_SUB))
        ve = expected_posterior_variance(plan, design, model, opts.M, inb=inb,
                                         fit=inb.phi_fit)
    except ComputationError:
        raise
    except Exception as exc:
        raise ComputationError("posterior_variance", str(exc)) from exc

    var_phi = float(np.var(inb.inb_phi, ddof=1))
    try:
        a, b = compute_constants(ve.sigma2, inb, var_phi)
    except DegenerateModelError:
        raise
    except Exception as exc:
        raise ComputationError("constants", str(exc)) from exc

    rescaled = a * inb.inb_phi + b
    evsi, se_psa, raw = voi(rescaled)
    evsi_se = float(np.hypot(se_psa, _sigma2_standard_error(a, inb, rescaled, ve, var_phi)))
    evsi_se = float(np.hypot(evsi_se, _location_standard_error(inb, rescaled)))

    return MomentMatchResult(
        a=a,
        b=b,
        rescaled=rescaled,
        evsi=evsi,
        variance_estimate=ve,
        config={
            "model": model.name,
            "design": design.name,
            "S": psa.n_draws,
            "Q": opts.Q,
            "M": opts.M,
            "burn_in": opts.burn_in,
            "seed": seed.as_dict(),
            "psa_seed": psa.seed.as_dict(),
            "quadrature_spacing": plan.spacing,
        },
        evsi_raw=raw,
        evsi_se=evsi_se,
        fit_diagnostics=fit_diag,
    )
