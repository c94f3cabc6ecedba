"""The moment-matching EVSI estimator.

The fitted conditional INB samples are rescaled linearly so their first two
moments match the preposterior mean's: a = sigma / sd(INB-conditional),
b = mean(INB) * (1 - a).  The EVSI is then read directly off the rescaled
sample.  An approximate Monte Carlo standard error is attached, combining
the sampling noise of the rescaled average with the uncertainty of the
variance estimate propagated through `a`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import DecisionModel, InbSamples, PsaSamples, compute_inb, voi
from .preposterior import VarianceEstimate, build_plan, expected_posterior_variance
from .regression import SplineSpec, fit_conditional_mean
from .rng import SeedSpec
from .util import ComputationError, DegenerateModelError

_PLAN_SUB = 11


@dataclass(frozen=True)
class EvsiOptions:
    Q: int = 30
    M: int = 10000
    burn_in: int = 1000
    seed: SeedSpec = SeedSpec(0)
    spline: SplineSpec | None = None

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
    a_clamped: bool = False
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
            "prior_variance": ve.prior_variance,
            "expected_posterior_variance": ve.expected_posterior_variance,
            "per_point_variances": [float(v) for v in ve.per_point],
            "config": self.config,
            "fit": self.fit_diagnostics,
        }


_NOISE_SLACK = 0.05


def compute_constants(sigma2: float, inb: InbSamples,
                      var_phi: float | None = None) -> tuple[float, float]:
    """Rescaling constants (a, b) matching the preposterior moments.

    `var_phi` is the conditional-INB variance, computed from `inb` unless the
    caller already holds it.

    When sigma2 exceeds the conditional-INB variance by no more than a Monte
    Carlo slack, the excess is attributed to noise and `a` clamps to 1 with a
    warning.  A larger excess means the future data genuinely inform
    parameters beyond the focal set; the rescaling then follows the defining
    formula (a > 1) so the variance match stays exact.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if var_phi is None:
        phi = inb.inb_phi if inb.inb_phi is not None else inb.inb_theta
        var_phi = float(np.var(phi, ddof=1))
    if var_phi == 0.0:
        raise DegenerateModelError("conditional INB variance is zero; nothing to rescale")
    a = float(np.sqrt(sigma2 / var_phi))
    if 1.0 < a <= np.sqrt(1.0 + _NOISE_SLACK):
        warnings.warn(
            f"sigma2 {sigma2:.6g} exceeds conditional INB variance {var_phi:.6g} "
            "within Monte Carlo slack; clamping a to 1",
            stacklevel=2,
        )
        a = 1.0
    elif a > 1.0:
        warnings.warn(
            f"sigma2 {sigma2:.6g} exceeds conditional INB variance {var_phi:.6g} "
            "beyond Monte Carlo slack; the study informs parameters outside "
            "the focal set, rescaling with a > 1",
            stacklevel=2,
        )
    b = float(np.mean(inb.inb_theta)) * (1.0 - a)
    return a, b


def _sigma2_standard_error(a: float, inb: InbSamples, rescaled: np.ndarray,
                           ve: VarianceEstimate, var_phi: float) -> float:
    """The part of the EVSI's MC standard error that sigma2 noise adds via `a`.

    A clamped `a` keeps this term: the clamp hides the sigma2 noise, it does
    not remove it.
    """
    if not (a > 0.0 and ve.sigma2 > 0):
        return 0.0
    theta = inb.inb_theta
    centered4 = float(np.mean((theta - np.mean(theta)) ** 4))
    var_prior_hat = max(centered4 - ve.prior_variance**2, 0.0) / theta.size
    if ve.per_point.size > 1:
        var_pv_mean = float(np.var(ve.per_point, ddof=1)) / ve.per_point.size
    else:
        var_pv_mean = 2.0 * float(ve.per_point[0]) ** 2 / max(theta.size - 1, 1)
    var_sigma2 = var_prior_hat + var_pv_mean
    var_a = var_sigma2 / (4.0 * ve.sigma2 * var_phi)
    centered = inb.inb_phi - np.mean(inb.inb_phi)
    d_evsi_da = float(np.mean(centered * (rescaled > 0)))
    return abs(d_evsi_da) * np.sqrt(var_a)


def estimate_evsi(
    model: DecisionModel,
    design,
    psa: PsaSamples,
    options: EvsiOptions | None = None,
    inb: InbSamples | None = None,
) -> MomentMatchResult:
    """Full pipeline: conditional fit, quadrature variance, rescale, read EVSI.

    Passing a precomputed `inb` lets callers share one regression fit between
    this estimator and a partial-information calculation; its `inb_phi` is
    populated as a side effect when a fit is run.
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

    fit_diag = None
    if design.informs_all:
        if inb.inb_phi is None or inb.phi_names is not None:
            inb.inb_phi = inb.inb_theta
            inb.phi_names = None
    elif inb.inb_phi is None or inb.phi_names != tuple(design.focal_params):
        try:
            fit = fit_conditional_mean(
                inb,
                psa.matrix(design.focal_params),
                spec=opts.spline,
                names=design.focal_params,
            )
            fit_diag = fit.diagnostics()
        except Exception as exc:
            raise ComputationError("regression", str(exc)) from exc

    try:
        plan = build_plan(psa, design.focal_params, opts.Q, seed.derive(_PLAN_SUB))
        ve = expected_posterior_variance(plan, design, model, opts.M, opts.burn_in, inb=inb)
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

    if a > 1.0 and design.focal_sufficient:
        raise ComputationError(
            "constants",
            f"sigma2 {ve.sigma2:.6g} exceeds the conditional INB variance beyond "
            "Monte Carlo slack although the data depend only on the focal set; "
            "increase S, Q or M to resolve the variance difference",
        )

    a_clamped = a == 1.0 and ve.sigma2 > var_phi
    rescaled = a * inb.inb_phi + b
    evsi, se_psa, raw = voi(rescaled)

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
        evsi_se=float(np.hypot(se_psa, _sigma2_standard_error(a, inb, rescaled, ve, var_phi))),
        a_clamped=a_clamped,
        fit_diagnostics=fit_diag,
    )
