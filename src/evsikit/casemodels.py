"""Built-in decision models and study designs.

* The Ades decision tree: four uncertain inputs, four future
  data-collection designs (side-effect rate, quality of life after the event,
  and the odds-ratio trial, registered as both study3 and study4).
* Conjugate toys with analytic preposterior moments and exact EVSI values:
  Beta-Binomial with a flat prior, Exponential-Gamma, Normal-Normal, and a
  quadratic-INB Normal model used for variance-convergence experiments.

Every model compares two options: its net benefit has the comparator's column
first, then the new treatment's.  Each model is registered by name with
everything the engine needs beyond the `DecisionModel` itself: the prior
means of its net benefit's inputs, its study designs with their default
sample sizes, integers of at least 0, and, for a conjugate toy, its variant
name and closed forms.  Designs are looked up by `model.name`, so a model
rebuilt by hand under a registered name gets the registered designs, built
from its own priors and net benefit.  Every model parameter, a design's
observation variance included, can be overridden per run.

Each design's likelihood is a recipe of `posterior`, written once, with the
model's priors as its hyperparameters: the recipe draws each PSA row's
sufficient statistic, never the single observations, summarises it, names
the parameters it informs and updates on it.  The nested oracle's inner
means are the net benefit at the recipe's `exact_means`, except in ades
study2 and the quadratic_normal designs, whose INB is not linear in what
their data inform.

The exact EVSIs of normal_normal and exp_gamma import scipy.special (`ndtr`,
`betaincc`) when they are called, so that importing the package loads
nothing from scipy; only `analytic_preposterior` reaches them.  Everything
else here is numpy and `math`, the ADES prior's Beta density included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import DecisionModel, two_options
from .posterior import (
    BetaBinomialUpdate,
    GammaExponentialUpdate,
    NormalNormalUpdate,
    NullUpdate,
    TwoArmTrialUpdate,
)
from .rng import DistSpec, SeedSpec
from .util import (ConfigError, SchemaError, expit, gauss_hermite_expectation, log_beta, logit,
                   require_count, require_finite, require_number)


# ---------------------------------------------------------------------------
# study designs: the container, and what designs read of their model


@dataclass(frozen=True)
class StudyDesign:
    """A future data-collection exercise attached to a decision model.

    `recipe` is the study's likelihood (see `posterior`): it simulates and
    summarises the data, names their `informed_params` and gives each
    dataset's posterior.  The estimator fits the conditional INB mean g on
    the informed parameters and spaces its quadrature points over them, so
    sigma2 cannot exceed Var(g); the EVPPI is reported on them too, so that
    it bounds the EVSI.  `batch_inner_means` gives the posterior mean of the
    INB per dataset, read off the model's net benefit (see `_inb_at_means`).
    `simulate_batch` is the recipe's `simulate` unless a caller replaces it.
    """

    name: str
    recipe: object
    batch_inner_means: Callable[[dict], np.ndarray]
    simulate_batch: Callable[[dict, SeedSpec], dict] | None = None

    def __post_init__(self):
        if self.simulate_batch is None:
            object.__setattr__(self, "simulate_batch", self.recipe.simulate)

    def simulate(self, cols: dict, seed: SeedSpec) -> dict:
        """`simulate_batch`, refusing a dataset that holds a non-finite value."""
        datasets = self.simulate_batch(cols, seed)
        require_finite("simulate", datasets, f" simulated by design {self.name!r}")
        return datasets


def _conjugate(recipe, param: str, obs_var: str | None = None):
    """`build(model, n)`: the conjugate `recipe` for data on `param`, with its
    prior's hyperparameters and, if named, the known variance `obs_var`."""

    def build(model: DecisionModel, n: int):
        known = () if obs_var is None else (model.params[obs_var],)
        return recipe(param, *model.priors[param].params, *known, n)

    return build


def _prior_means(model: DecisionModel) -> dict:
    return {name: spec.mean() for name, spec in model.priors.items()}


def _inb_at_means(model: DecisionModel, recipe, posterior_means=None):
    """Inner means: `model.net_benefit` at `posterior_means(datasets)`, by
    default the recipe's `exact_means`, and every other input at its
    `input_means`, a scalar, which is the INB's posterior mean when it is
    multilinear and no monomial mixes inputs the posterior leaves dependent.
    The default refuses informed parameters that are not among `input_means`."""
    input_means = _entry(model.name).input_means(model)
    if posterior_means is None:
        missing = [n for n in recipe.informed_params if n not in input_means]
        if missing:
            raise SchemaError(f"the {model.name} net benefit is not read at the means of "
                              f"{missing}; the design needs inner means of its own")
        posterior_means = recipe.exact_means

    def inner(ds):
        return model.inb(input_means | posterior_means(ds))

    return inner


# ---------------------------------------------------------------------------
# Ades decision tree

ADES_DEFAULTS = {
    "L": 30.0,          # years of life affected by the critical event
    "Qse": 1.0,         # QALY loss from side effects
    "Ce": 200000.0,     # cost of the critical event
    "Ct": 15000.0,      # cost of the new treatment
    "Cse": 100000.0,    # cost of treating side effects
    "lam": 75000.0,     # willingness to pay per QALY
    "pc_alpha": 15.0,
    "pc_beta": 85.0,
    "pse_alpha": 3.0,
    "pse_beta": 9.0,
    "log_or_mean": -1.5,
    "log_or_var": 1.0 / 3.0,
    "logit_qe_mean": 0.6,
    "logit_qe_var": 1.0 / 6.0,
    "logit_qe_obs_var": 2.0,  # variance of one study2 response on the logit scale
}


def ades_net_benefit(pc, pse, pt, qe, params=None):
    """Net benefit of both arms of the decision tree, vectorised.

    Arm 1 is the standard of care (event risk pc), arm 2 the new treatment
    (event risk pt, side-effect risk pse).  qe is quality of life after the
    critical event.
    """
    p = params or ADES_DEFAULTS
    lam, L, Qse = p["lam"], p["L"], p["Qse"]
    Ce, Ct, Cse = p["Ce"], p["Ct"], p["Cse"]
    pc = np.asarray(pc, dtype=float)
    pse, pt, qe = (np.asarray(v, dtype=float) for v in (pse, pt, qe))

    nb1 = pc * (lam * L * (1 + qe) / 2 - Ce) + (1 - pc) * lam * L
    nb2 = (
        pse * pt * (lam * (L * (1 + qe) / 2 - Qse) - (Ct + Cse + Ce))
        + pse * (1 - pt) * (lam * (L - Qse) - (Ct + Cse))
        + (1 - pse) * pt * (lam * L * (1 + qe) / 2 - (Ct + Ce))
        + (1 - pse) * (1 - pt) * (lam * L - Ct)
    )
    return nb1, nb2


def build_ades(**overrides) -> DecisionModel:
    p = {**ADES_DEFAULTS, **overrides}
    if not p["logit_qe_obs_var"] > 0:
        raise ValueError("logit_qe_obs_var must be > 0")

    priors = {
        "Pc": DistSpec("beta", p["pc_alpha"], p["pc_beta"]),
        "Pse": DistSpec("beta", p["pse_alpha"], p["pse_beta"]),
        "log_or": DistSpec("normal", p["log_or_mean"], p["log_or_var"]),
        "logit_qe": DistSpec("normal", p["logit_qe_mean"], p["logit_qe_var"]),
    }

    def derived(cols):
        return {
            "Pt": expit(logit(cols["Pc"]) + cols["log_or"]),
            "Qe": expit(cols["logit_qe"]),
        }

    def net_benefit(cols):
        return two_options(*ades_net_benefit(cols["Pc"], cols["Pse"], cols["Pt"], cols["Qe"], p))

    return DecisionModel(
        name="ades",
        priors=priors,
        net_benefit=net_benefit,
        derived=derived,
        params=p,
    )


@functools.cache
def _unit_leggauss(n=200):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1) / 2, w / 2


def _ades_input_means(model: DecisionModel) -> dict:
    """The prior means of the tree's inputs Pc, Pse, Pt and Qe, by quadrature;
    the INB is multilinear in them, and no monomial mixes Pc or Pse with Pt."""
    pc, log_or, logit_qe = (model.priors[n] for n in ("Pc", "log_or", "logit_qe"))
    e_qe = float(gauss_hermite_expectation(expit, *logit_qe.params))
    nodes, weights = _unit_leggauss()
    a, b = pc.params  # the Beta(a, b) density of Pc
    dens = np.exp((a - 1.0) * np.log(nodes) + (b - 1.0) * np.log1p(-nodes) - log_beta(a, b))
    inner = gauss_hermite_expectation(expit, logit(nodes) + log_or.params[0], log_or.params[1])
    e_pt = float(np.sum(weights * dens * inner))
    return {"Pc": pc.mean(), "Pse": model.priors["Pse"].mean(), "Qe": e_qe, "Pt": e_pt}


def _ades_study2_inner_means(model: DecisionModel, recipe: NormalNormalUpdate):
    """The INB at E[Qe], by quadrature over the posterior of logit_qe: it is
    linear in Qe = expit(logit_qe), not in the logit_qe that study2 informs."""

    def qe_means(ds):
        mean, var = recipe.posterior_params(ds)
        return {"Qe": gauss_hermite_expectation(expit, np.atleast_1d(mean), var)}

    return _inb_at_means(model, recipe, qe_means)


def _ades_two_arm_trial(model: DecisionModel, n: int) -> TwoArmTrialUpdate:
    """The two-arm trial of study3, the source paper's odds-ratio trial, and
    study4: it informs both arms, so g is fitted on (Pc, Pt)."""
    or_mean, or_var = model.priors["log_or"].params
    return TwoArmTrialUpdate(n, *model.priors["Pc"].params, or_mean, 1.0 / or_var)


# ---------------------------------------------------------------------------
# conjugate toys


@dataclass(frozen=True)
class ConjugateToy:
    """One of the closed-form validation models plus a future sample size.

    `params` are overrides of the model's parameters; after construction it
    holds every parameter of the model.
    """

    variant: str
    N: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        model = get_model(self.model_name, **self.params)
        require_count("a future sample size", self.N, 0, ConfigError)
        object.__setattr__(self, "params", model.params)

    @property
    def model_name(self) -> str:
        """The registered model whose closed forms this toy gives."""
        names = {entry.toy_variant: name for name, entry in _REGISTRY.items() if entry.toy_variant}
        if self.variant not in names:
            raise ConfigError(f"unknown toy variant {self.variant!r}; choose {tuple(names)}")
        return names[self.variant]


@dataclass(frozen=True)
class PreposteriorSummary:
    mean: float
    variance: float
    evsi: float


def analytic_preposterior(toy: ConjugateToy) -> PreposteriorSummary:
    """Closed-form preposterior mean/variance of the treatment net benefit,
    plus the exact EVSI.

    The variance equals that of the INB preposterior mean (the comparator is
    constant in every toy); the EVSI accounts for the comparator.
    """
    return _entry(toy.model_name).exact(toy.params, toy.N)


# -- toy decision models ------------------------------------------------------


def build_beta_binomial(k=20000.0, c=10000.0) -> DecisionModel:
    def net_benefit(cols):
        return two_options(0.0, k * cols["p_success"] - c)

    return DecisionModel(
        name="beta_binomial",
        priors={"p_success": DistSpec("uniform", 0.0, 1.0)},
        net_benefit=net_benefit,
        params={"k": k, "c": c},
    )


def _beta_binomial_exact(p: dict, N: int) -> PreposteriorSummary:
    """Flat prior: the N+1 outcomes of the trial are equally likely, so the
    exact EVSI is an average over all of them."""
    k, c = p["k"], p["c"]
    mu = k * (1.0 + np.arange(N + 1)) / (2.0 + N) - c
    return PreposteriorSummary(
        mean=k / 2.0 - c,
        variance=k**2 * N / (12.0 * (N + 2.0)),
        evsi=float(np.mean(np.maximum(mu, 0.0)) - max(0.0, k / 2.0 - c)),
    )


def build_exp_gamma(alpha=5.0, beta=1.0, k=200.0, c0=900.0, c1=100.0) -> DecisionModel:
    def net_benefit(cols):
        return two_options(c0, k * cols["event_rate"] - c1)

    return DecisionModel(
        name="exp_gamma",
        priors={"event_rate": DistSpec("gamma", alpha, beta)},
        net_benefit=net_benefit,
        params={"alpha": alpha, "beta": beta, "k": k, "c0": c0, "c1": c1},
    )


def _exp_gamma_exact(p: dict, N: int) -> PreposteriorSummary:
    """Exact EVSI via the Beta(alpha, N) law of the inverse posterior scale; k > 0."""
    from scipy.special import betaincc

    a, b, k = p["alpha"], p["beta"], p["k"]
    if not k > 0:
        raise ConfigError(f"the exp_gamma closed form needs k > 0, got {k}")
    c_total = p["c0"] + p["c1"]
    g = k * (a + N) / b
    prior_term = max(0.0, k * a / b - c_total)
    if N == 0 or c_total <= 0:
        # with c0 + c1 <= 0 and k > 0 the INB is positive on every draw
        evsi = 0.0
    elif c_total / g >= 1.0:
        evsi = 0.0
    else:
        b_star = c_total / g
        value = (g * (a / (a + N)) * betaincc(a + 1, N, b_star)
                 - c_total * betaincc(a, N, b_star))
        evsi = max(0.0, float(value) - prior_term)
    return PreposteriorSummary(mean=k * a / b - p["c1"],
                               variance=k**2 * a * N / (b**2 * (a + N + 1.0)), evsi=evsi)


def build_normal_normal(theta0=0.0, prior_var=1.0, obs_var=1.0, k=10000.0, c=0.0) -> DecisionModel:
    if not obs_var > 0:
        raise ValueError("obs_var must be > 0")

    def net_benefit(cols):
        return two_options(0.0, k * cols["effect"] - c)

    return DecisionModel(
        name="normal_normal",
        priors={"effect": DistSpec("normal", theta0, prior_var)},
        net_benefit=net_benefit,
        params={"theta0": theta0, "prior_var": prior_var, "obs_var": obs_var, "k": k, "c": c},
    )


def _norm_pdf(x):
    """Standard normal density, in scipy.stats.norm.pdf's operation order."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _normal_normal_exact(p: dict, N: int) -> PreposteriorSummary:
    """Exact EVSI via the unit normal loss function of the preposterior mean."""
    from scipy.special import ndtr

    m = p["k"] * p["theta0"] - p["c"]
    if N == 0:
        return PreposteriorSummary(mean=m, variance=0.0, evsi=0.0)
    variance = p["k"] ** 2 * p["prior_var"] ** 2 / (p["obs_var"] / N + p["prior_var"])
    s = np.sqrt(variance)
    value = s * _norm_pdf(m / s) + m * ndtr(m / s)
    return PreposteriorSummary(mean=m, variance=variance,
                               evsi=max(0.0, float(value) - max(0.0, m)))


def build_quadratic_normal(prior_var=5.0, obs_var=10.0) -> DecisionModel:
    """Highly non-normal INB (a shifted chi-square) with a conjugate posterior.

    The default future study is 10 observations carrying total precision 1,
    which reproduces the reference preposterior variance of about 35 and the
    reference EVSI of about 2 used by the convergence experiments.
    """
    if not obs_var > 0:
        raise ValueError("obs_var must be > 0")

    def net_benefit(cols):
        return two_options(0.0, cols["effect"] ** 2 - prior_var)

    return DecisionModel(
        name="quadratic_normal",
        priors={"effect": DistSpec("normal", 0.0, prior_var)},
        net_benefit=net_benefit,
        params={"prior_var": prior_var, "obs_var": obs_var},
    )


def _quadratic_normal_exact(p: dict, N: int) -> PreposteriorSummary:
    """The preposterior mean of the effect is Normal(0, tau2), so the INB's
    preposterior mean is tau2 (Z^2 - 1) with Z standard normal."""
    tau2 = p["prior_var"] - 1.0 / (1.0 / p["prior_var"] + N / p["obs_var"])
    return PreposteriorSummary(mean=0.0, variance=2.0 * tau2**2,
                               evsi=float(tau2 * 2.0 * _norm_pdf(1.0)))


def quadratic_exact_evsi(model: DecisionModel, N: int) -> float:
    return _quadratic_normal_exact(model.params, N).evsi


def build_two_param_linear(k=10000.0) -> DecisionModel:
    """Two-parameter model whose conditional INB is linear in the focal input."""

    def net_benefit(cols):
        # per-patient costs of 4000 for the comparator and 6500 for the new treatment
        return two_options(k * cols["background"] - 4000.0, k * cols["response_rate"] - 6500.0)

    return DecisionModel(
        name="two_param_linear",
        priors={
            "response_rate": DistSpec("beta", 1.0, 4.0),
            "background": DistSpec("normal", -0.5, 1.0),
        },
        net_benefit=net_benefit,
        params={"k": k},
    )


# -- toy study designs ---------------------------------------------------------


def _beta_binomial_trial(model: DecisionModel, n: int) -> BetaBinomialUpdate:
    # the flat prior, Uniform(0, 1), is Beta(1, 1)
    return BetaBinomialUpdate("p_success", 1.0, 1.0, n)


_normal_effect_trial = _conjugate(NormalNormalUpdate, "effect", "obs_var")


def _null_design(model: DecisionModel, n: int) -> NullUpdate:
    """Data independent of every parameter; the posterior equals the prior.

    The data inform nothing, so g is taken on the parameter the posterior
    re-draws, and its prior and posterior variances agree up to noise.
    """
    first = model.param_names[0]
    return NullUpdate(first, model.priors[first], n)


def _quadratic_normal_inner_means(model: DecisionModel, recipe):
    """E[effect^2] - prior_var, from the posterior's mean and variance (the
    prior's, for the null design): the INB is not linear in the effect."""
    prior_var = model.params["prior_var"]

    def inner(ds):
        mean, var = recipe.posterior_params(ds)
        return np.atleast_1d(mean) ** 2 + var - prior_var

    return inner


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class DesignEntry:
    """A design's likelihood `recipe(model, n)` for a future study of size n,
    its default n and its nested inner means `inner_means(model, recipe)`."""

    recipe: Callable[[DecisionModel, int], object]
    size: int
    inner_means: Callable[[DecisionModel, object], Callable[[dict], np.ndarray]] = _inb_at_means


@dataclass(frozen=True)
class ModelEntry:
    """What is registered under a model name; the first design is the default.

    `build`'s keyword arguments are the model's parameters; `input_means`
    gives the prior mean of each input of its net benefit.  A conjugate toy
    also has the `ConjugateToy` variant name `toy_variant` and its closed
    forms `exact(params, N)` for a future study of size N.
    """

    build: Callable[..., DecisionModel]
    designs: dict[str, DesignEntry]
    toy_variant: str | None = None
    exact: Callable[[dict, int], PreposteriorSummary] | None = None
    input_means: Callable[[DecisionModel], dict] = _prior_means


def _toy_designs(trial, n: int, inner_means=_inb_at_means) -> dict[str, DesignEntry]:
    return {"trial": DesignEntry(trial, n, inner_means),
            "null": DesignEntry(_null_design, n, inner_means)}


_REGISTRY = {
    "ades": ModelEntry(build_ades, {
        "study1": DesignEntry(_conjugate(BetaBinomialUpdate, "Pse"), 60),
        "study2": DesignEntry(_conjugate(NormalNormalUpdate, "logit_qe", "logit_qe_obs_var"),
                              100, _ades_study2_inner_means),
        "study3": DesignEntry(_ades_two_arm_trial, 200),
        "study4": DesignEntry(_ades_two_arm_trial, 200),
    }, input_means=_ades_input_means),
    "beta_binomial": ModelEntry(build_beta_binomial, _toy_designs(_beta_binomial_trial, 10),
                                "beta_binomial_uniform", _beta_binomial_exact),
    "exp_gamma": ModelEntry(
        build_exp_gamma, _toy_designs(_conjugate(GammaExponentialUpdate, "event_rate"), 10),
        "exp_gamma", _exp_gamma_exact),
    "normal_normal": ModelEntry(build_normal_normal, _toy_designs(_normal_effect_trial, 9),
                                "normal_normal", _normal_normal_exact),
    "quadratic_normal": ModelEntry(
        build_quadratic_normal,
        _toy_designs(_normal_effect_trial, 10, _quadratic_normal_inner_means),
        "quadratic_normal", _quadratic_normal_exact),
    "two_param_linear": ModelEntry(
        build_two_param_linear, _toy_designs(_conjugate(BetaBinomialUpdate, "response_rate"), 30)),
}


def _entry(name: str) -> ModelEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown model {name!r}; registered models: {list_models()}") from None


def list_models() -> list[str]:
    return sorted(_REGISTRY)


def get_model(name: str, **overrides) -> DecisionModel:
    """Build a registered model; `overrides` replace its default parameters."""
    build = _entry(name).build
    unknown = set(overrides) - set(build().params)
    if unknown:
        raise ConfigError(f"unknown {name} parameters {sorted(unknown)}")
    for key, value in overrides.items():
        require_number(key, value)
    try:
        return build(**overrides)
    except ValueError as exc:
        raise ConfigError(f"{name} parameters {overrides}: {exc}") from exc


def list_designs(model_name: str) -> list[str]:
    return list(_entry(model_name).designs)


def get_design(model: DecisionModel, name: str | None = None,
               n: int | None = None) -> StudyDesign:
    """Build a study design registered under `model.name`; `n` overrides the
    future sample size."""
    designs = _entry(model.name).designs
    name = name or next(iter(designs))
    if name not in designs:
        raise ConfigError(
            f"unknown design {name!r} for model {model.name!r}; available: {list(designs)}"
        )
    if n is not None:
        require_count("a future sample size", n, 0, ConfigError)
    entry = designs[name]
    recipe = entry.recipe(model, entry.size if n is None else n)
    return StudyDesign(name, recipe, entry.inner_means(model, recipe))
