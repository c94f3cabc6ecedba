"""Built-in decision models and study designs.

* The Ades decision tree: four uncertain inputs, four future
  data-collection designs (side-effect rate, quality of life after the event,
  odds-ratio trial, and the same trial analysed as two event probabilities).
* Conjugate toys with analytic preposterior moments and exact EVSI values:
  Beta-Binomial with a flat prior, Exponential-Gamma, Normal-Normal, and a
  quadratic-INB Normal model used for variance-convergence experiments.

Every model compares two options: its net benefit has the comparator's column
first, then the new treatment's.  Each model is registered by name with
everything the engine needs beyond the `DecisionModel` itself: its prior-mean
INB, its study-design factories with their default sample sizes, integers of
at least 0, and, for a conjugate toy, its variant name and closed forms.
Designs are looked up by `model.name`, so a model rebuilt by hand under a
registered name gets the registered designs.  Every model parameter, a
design's observation variance included, can be overridden per run.

A simulated dataset holds one sufficient statistic per PSA row, never the
single observations: a count for binomial data, and for n normal or
exponential observations their total, drawn from its exact law and stored
under a `*_total` key.  Each design's posterior is a recipe of `posterior`,
which reads that total with n taken from the design; every summary is the
total divided by n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import betaincc, betaln, expit, logit, ndtr, xlog1py, xlogy

from .model import DecisionModel
from .posterior import (
    BetaBinomialUpdate,
    GammaExponentialUpdate,
    NormalNormalUpdate,
    NullUpdate,
    TwoArmTrialUpdate,
)
from .rng import DistSpec, SeedSpec
from .util import ConfigError, gauss_hermite_expectation, require_finite


# ---------------------------------------------------------------------------
# study-design container


@dataclass(frozen=True)
class StudyDesign:
    """A future data-collection exercise attached to a decision model.

    `informed_params` are the parameters the future data are simulated from.
    The estimator fits the conditional INB mean g on them and spaces its
    quadrature points over them, so sigma2 cannot exceed Var(g); the EVPPI
    is reported on them too, so that it bounds the EVSI.
    """

    name: str
    sample_size: int
    recipe: object
    simulate_batch: Callable[[dict, SeedSpec], dict]
    summary_names: tuple[str, ...]
    summarize_batch: Callable[[dict], np.ndarray]
    batch_inner_means: Callable[[dict], np.ndarray]
    informed_params: tuple[str, ...]
    is_discrete_data: bool = False

    def simulate(self, cols: dict, seed: SeedSpec) -> dict:
        """`simulate_batch`, refusing a dataset that holds a non-finite value."""
        datasets = self.simulate_batch(cols, seed)
        require_finite("simulate", datasets, f" simulated by design {self.name!r}")
        return datasets

    def describe_dataset(self, dataset) -> str:
        values = self.summarize_batch(dataset)[0]
        return " ".join(f"{n}={v:g}" for n, v in zip(self.summary_names, values))


def _binomial_counts(n: int, **params) -> dict:
    """StudyDesign data fields for Binomial(n, p) counts, one key per parameter.

    The counts are drawn in keyword order from one generator.
    """
    keys = tuple(params)

    def simulate(cols, seed):
        gen = seed.generator()
        return {key: gen.binomial(n, cols[param]).astype(float) for key, param in params.items()}

    return dict(simulate_batch=simulate, summary_names=keys, is_discrete_data=True,
                summarize_batch=lambda ds: np.column_stack([ds[key] for key in keys]),
                informed_params=tuple(params.values()))


def _observation_totals(n: int, param: str, draw_total: Callable, key: str,
                        summary: str) -> dict:
    """StudyDesign data fields for the total of n observations of `param`,
    summarised by their mean.

    `draw_total(gen, cols)` draws each row's total from its exact law, so the
    single observations are never simulated.
    """
    if n < 1:
        raise ConfigError(f"{summary} needs a sample size of at least 1, got {n}")

    def simulate(cols, seed):
        return {key: draw_total(seed.generator(), cols)}

    return dict(simulate_batch=simulate, summary_names=(summary,),
                summarize_batch=lambda ds: (ds[key] / n)[:, None], informed_params=(param,))


def _normal_observations(n: int, param: str, obs_var: float, key: str = "obs_total",
                         summary: str = "mean_obs") -> dict:
    """StudyDesign data fields for n Normal(param, obs_var) observations: their
    total is Normal(n param, n obs_var)."""

    def draw_total(gen, cols):
        return gen.normal(n * np.asarray(cols[param], dtype=float), np.sqrt(n * obs_var))

    return _observation_totals(n, param, draw_total, key, summary)


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


def _ades_inb_at_means(pc, pse, pt, qe, params):
    # The INB is multilinear in (pc, pse, pt, qe) and no monomial mixes pc or
    # pse with pt under the posterior factorisation, so plugging component
    # means into the formula gives the exact conditional mean.
    nb1, nb2 = ades_net_benefit(pc, pse, pt, qe, params)
    return nb2 - nb1


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
        nb1, nb2 = ades_net_benefit(cols["Pc"], cols["Pse"], cols["Pt"], cols["Qe"], p)
        return np.column_stack([nb1, nb2])

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


def _ades_prior_means(p) -> dict:
    """Exact prior means of the tree inputs, by quadrature (no Monte Carlo)."""
    e_pc = p["pc_alpha"] / (p["pc_alpha"] + p["pc_beta"])
    e_pse = p["pse_alpha"] / (p["pse_alpha"] + p["pse_beta"])
    e_qe = float(gauss_hermite_expectation(expit, p["logit_qe_mean"], p["logit_qe_var"]))
    nodes, weights = _unit_leggauss()
    a, b = p["pc_alpha"], p["pc_beta"]  # the Beta(a, b) density of Pc
    dens = np.exp(xlogy(a - 1.0, nodes) + xlog1py(b - 1.0, -nodes) - betaln(a, b))
    inner = gauss_hermite_expectation(expit, logit(nodes) + p["log_or_mean"], p["log_or_var"])
    e_pt = float(np.sum(weights * dens * inner))
    return {"Pc": e_pc, "Pse": e_pse, "Qe": e_qe, "Pt": e_pt}


def _ades_study1(model: DecisionModel, n: int) -> StudyDesign:
    p = model.params
    means = _ades_prior_means(p)
    recipe = BetaBinomialUpdate("Pse", p["pse_alpha"], p["pse_beta"], n, "x")

    def inner_means(ds):
        pse_post = recipe.exact_means(ds)
        return _ades_inb_at_means(means["Pc"], pse_post, means["Pt"], means["Qe"], p)

    return StudyDesign(
        name="study1", sample_size=n, recipe=recipe,
        batch_inner_means=inner_means, **_binomial_counts(n, x="Pse"),
    )


def _ades_study2(model: DecisionModel, n: int) -> StudyDesign:
    p = model.params
    means = _ades_prior_means(p)
    recipe = NormalNormalUpdate("logit_qe", p["logit_qe_mean"], p["logit_qe_var"],
                                p["logit_qe_obs_var"], n, "response_total")

    def inner_means(ds):
        mean, var = recipe.posterior_params(ds)
        e_qe = gauss_hermite_expectation(expit, np.atleast_1d(mean), np.full_like(np.atleast_1d(mean), var))
        return _ades_inb_at_means(means["Pc"], means["Pse"], means["Pt"], e_qe, p)

    return StudyDesign(
        name="study2", sample_size=n, recipe=recipe,
        batch_inner_means=inner_means,
        **_normal_observations(n, "logit_qe", p["logit_qe_obs_var"], key="response_total",
                               summary="mean_response"),
    )


def _ades_trial(name: str) -> Callable[[DecisionModel, int], StudyDesign]:
    """The two-arm trial under the design name `name`.  study3, the
    odds-ratio trial of the source paper's example, and study4 are the same
    trial: it informs both arms, so both names fit g on (Pc, Pt)."""

    def build(model: DecisionModel, n: int) -> StudyDesign:
        p = model.params
        means = _ades_prior_means(p)
        recipe = TwoArmTrialUpdate(n, p["pc_alpha"], p["pc_beta"], p["log_or_mean"],
                                   1.0 / p["log_or_var"])

        def inner_means(ds):
            e_pc, e_pt = recipe.exact_means(ds)
            return _ades_inb_at_means(e_pc, means["Pse"], e_pt, means["Qe"], p)

        return StudyDesign(
            name=name, sample_size=n, recipe=recipe,
            batch_inner_means=inner_means, **_binomial_counts(n, dc="Pc", dt="Pt"),
        )

    return build


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
        _check_sample_size(self.N)
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
        nb2 = k * cols["p_success"] - c
        return np.column_stack([np.zeros_like(nb2), nb2])

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
        nb1 = k * cols["event_rate"] - c1
        return np.column_stack([np.full_like(nb1, c0), nb1])

    return DecisionModel(
        name="exp_gamma",
        priors={"event_rate": DistSpec("gamma", alpha, beta)},
        net_benefit=net_benefit,
        params={"alpha": alpha, "beta": beta, "k": k, "c0": c0, "c1": c1},
    )


def _exp_gamma_exact(p: dict, N: int) -> PreposteriorSummary:
    """Exact EVSI via the Beta(alpha, N) law of the inverse posterior scale; k > 0."""
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
        nb1 = k * cols["effect"] - c
        return np.column_stack([np.zeros_like(nb1), nb1])

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
        nb2 = cols["effect"] ** 2 - prior_var
        return np.column_stack([np.zeros_like(nb2), nb2])

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


# per-patient costs of the comparator and of the new treatment
_TWO_PARAM_COSTS = (4000.0, 6500.0)


def build_two_param_linear(k=10000.0) -> DecisionModel:
    """Two-parameter model whose conditional INB is linear in the focal input."""

    def net_benefit(cols):
        nb0 = k * cols["background"] - _TWO_PARAM_COSTS[0]
        nb1 = k * cols["response_rate"] - _TWO_PARAM_COSTS[1]
        return np.column_stack([nb0, nb1])

    return DecisionModel(
        name="two_param_linear",
        priors={
            "response_rate": DistSpec("beta", 1.0, 4.0),
            "background": DistSpec("normal", -0.5, 1.0),
        },
        net_benefit=net_benefit,
        params={"k": k},
    )


def _two_param_prior_mean_inb(model: DecisionModel) -> float:
    e_response, e_background = (model.priors[n].mean() for n in ("response_rate", "background"))
    return model.params["k"] * (e_response - e_background) - (
        _TWO_PARAM_COSTS[1] - _TWO_PARAM_COSTS[0])


# -- toy study designs ---------------------------------------------------------


def _beta_binomial_trial(model: DecisionModel, n: int) -> StudyDesign:
    recipe = BetaBinomialUpdate("p_success", 1.0, 1.0, n, "x")
    k, c = model.params["k"], model.params["c"]

    def inner(ds):
        return k * recipe.exact_means(ds) - c

    return StudyDesign(
        name="trial", sample_size=n, recipe=recipe,
        batch_inner_means=inner, **_binomial_counts(n, x="p_success"),
    )


def _exp_gamma_trial(model: DecisionModel, n: int) -> StudyDesign:
    p = model.params
    recipe = GammaExponentialUpdate("event_rate", p["alpha"], p["beta"], n, "obs_total")

    def draw_total(gen, cols):
        # the total of n Exponential(rate) observations is Gamma(n, rate)
        rate = np.asarray(cols["event_rate"], dtype=float)
        return gen.gamma(n, 1.0, rate.shape) / rate

    def inner(ds):
        return p["k"] * recipe.exact_means(ds) - p["c1"] - p["c0"]

    return StudyDesign(
        name="trial", sample_size=n, recipe=recipe,
        batch_inner_means=inner,
        **_observation_totals(n, "event_rate", draw_total, "obs_total", "mean_obs"),
    )


def _normal_normal_trial(model: DecisionModel, n: int) -> StudyDesign:
    p = model.params
    recipe = NormalNormalUpdate("effect", p["theta0"], p["prior_var"], p["obs_var"], n,
                                "obs_total")

    def inner(ds):
        return p["k"] * recipe.exact_means(ds) - p["c"]

    return StudyDesign(
        name="trial", sample_size=n, recipe=recipe,
        batch_inner_means=inner, **_normal_observations(n, "effect", p["obs_var"]),
    )


def _quadratic_normal_trial(model: DecisionModel, n: int) -> StudyDesign:
    p = model.params
    recipe = NormalNormalUpdate("effect", 0.0, p["prior_var"], p["obs_var"], n, "obs_total")

    def inner(ds):
        mean, post_var = recipe.posterior_params(ds)
        return np.atleast_1d(mean) ** 2 + post_var - p["prior_var"]

    return StudyDesign(
        name="trial", sample_size=n, recipe=recipe,
        batch_inner_means=inner, **_normal_observations(n, "effect", p["obs_var"]),
    )


def _two_param_trial(model: DecisionModel, n: int) -> StudyDesign:
    k = model.params["k"]
    recipe = BetaBinomialUpdate("response_rate", *model.priors["response_rate"].params, n, "x")
    e_background = model.priors["background"].mean()

    def inner(ds):
        # the data leave the background input at its prior mean
        return (k * recipe.exact_means(ds) - _TWO_PARAM_COSTS[1]
                - (k * e_background - _TWO_PARAM_COSTS[0]))

    return StudyDesign(
        name="trial", sample_size=n, recipe=recipe,
        batch_inner_means=inner, **_binomial_counts(n, x="response_rate"),
    )


def _null_design(model: DecisionModel, n: int) -> StudyDesign:
    """Data independent of every parameter; the posterior equals the prior.

    The data inform nothing, so g is taken on the parameter the posterior
    re-draws, and its prior and posterior variances agree up to noise.
    """
    first = model.param_names[0]
    recipe = NullUpdate(first, model.priors[first])
    prior_mean_inb = _entry(model.name).prior_mean_inb(model)

    def simulate(cols, seed):
        k = len(next(iter(cols.values())))
        return {"x": seed.generator().binomial(n, 0.5, k).astype(float)}

    def inner(ds):
        return np.full(len(ds["x"]), prior_mean_inb)

    return StudyDesign(
        name="null", sample_size=n,
        recipe=recipe, simulate_batch=simulate, summary_names=("x",),
        summarize_batch=lambda ds: ds["x"][:, None], batch_inner_means=inner,
        informed_params=(first,), is_discrete_data=True,
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class DesignEntry:
    """A study-design factory `build(model, n)` and its default future sample size."""

    build: Callable[[DecisionModel, int], StudyDesign]
    size: int


@dataclass(frozen=True)
class ModelEntry:
    """What is registered under a model name; the first design is the default.

    `build`'s keyword arguments are the model's parameters.  A conjugate toy
    also has the `ConjugateToy` variant name `toy_variant` and its closed
    forms `exact(params, N)` for a future study of size N.
    """

    build: Callable[..., DecisionModel]
    designs: dict[str, DesignEntry]
    prior_mean_inb: Callable[[DecisionModel], float] | None = None  # for a null design
    toy_variant: str | None = None
    exact: Callable[[dict, int], PreposteriorSummary] | None = None


def _toy_designs(trial, n: int) -> dict[str, DesignEntry]:
    return {"trial": DesignEntry(trial, n), "null": DesignEntry(_null_design, n)}


_REGISTRY = {
    "ades": ModelEntry(build_ades, {
        "study1": DesignEntry(_ades_study1, 60),
        "study2": DesignEntry(_ades_study2, 100),
        "study3": DesignEntry(_ades_trial("study3"), 200),
        "study4": DesignEntry(_ades_trial("study4"), 200),
    }),
    "beta_binomial": ModelEntry(
        build_beta_binomial, _toy_designs(_beta_binomial_trial, 10),
        lambda m: m.params["k"] / 2.0 - m.params["c"],
        "beta_binomial_uniform", _beta_binomial_exact),
    "exp_gamma": ModelEntry(
        build_exp_gamma, _toy_designs(_exp_gamma_trial, 10),
        lambda m: (m.params["k"] * m.params["alpha"] / m.params["beta"]
                   - m.params["c0"] - m.params["c1"]),
        "exp_gamma", _exp_gamma_exact),
    "normal_normal": ModelEntry(
        build_normal_normal, _toy_designs(_normal_normal_trial, 9),
        lambda m: m.params["k"] * m.params["theta0"] - m.params["c"],
        "normal_normal", _normal_normal_exact),
    "quadratic_normal": ModelEntry(
        build_quadratic_normal, _toy_designs(_quadratic_normal_trial, 10), lambda m: 0.0,
        "quadratic_normal", _quadratic_normal_exact),
    "two_param_linear": ModelEntry(
        build_two_param_linear, _toy_designs(_two_param_trial, 30), _two_param_prior_mean_inb),
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
        _check_sample_size(n)
    entry = designs[name]
    return entry.build(model, entry.size if n is None else n)


def _check_sample_size(n):
    """Refuse a sample size that is not an integer >= 0: binomial draws
    truncate 2.5 to 2, while posteriors and closed forms update with 2.5."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ConfigError(f"a future sample size must be an integer >= 0, got {n!r}")
