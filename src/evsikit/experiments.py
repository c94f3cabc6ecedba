"""Scripted experiment replications used by the benchmark CLI and the
acceptance suite: quadrature-count bias tables, estimator bias sweeps for the
conjugate toys, variance-convergence curves, and the cross-method check on
the decision-tree case study.

Each experiment returns plain row dicts (long format, one row per replicate
measurement) plus a summary, so the CLI can serialise them unchanged.
`EXPERIMENTS` lists every experiment with the run-configuration fields it
takes, so the benchmark command needs no per-experiment code.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .casemodels import (
    ConjugateToy,
    analytic_preposterior,
    build_quadratic_normal,
    get_design,
    get_model,
    quadratic_exact_evsi,
)
from .model import compute_inb, run_psa, voi
from .momentmatch import EvsiOptions, compute_constants, estimate_evsi
from .oracles import nested_mc_evsi, regression_on_summaries_evsi
from .preposterior import build_plan, expected_posterior_variance
from .rng import SeedSpec

TABLE1_Q_COLUMNS = (1, 2, 3, 5, 8, 10, 20, 30, 40, 50, 75, 100)
ROW_FIELDS = ("experiment", "parameter", "replicate", "estimate", "oracle", "se")


def _row(*values) -> dict:
    """One long-format measurement, its values in `ROW_FIELDS` order."""
    return dict(zip(ROW_FIELDS, values))


def _mean_sd(values) -> tuple[float, float]:
    """Mean and replicate standard deviation (0 for a single replicate)."""
    x = np.asarray(values)
    return float(x.mean()), float(x.std(ddof=1)) if x.size > 1 else 0.0


def _rescaled_evsi(sigma2: float, inb) -> float:
    """EVSI read off the prior INB sample rescaled to preposterior variance sigma2."""
    a, b = compute_constants(sigma2, inb)
    return voi(a * inb.inb_theta + b).value


def _quadratic_sweep(Q_values, replicates: int, seed: SeedSpec, S: int):
    """Yield (replicate, Q, INB sample, variance estimate) on the quadratic-INB model.

    Per replicate one PSA sample is drawn and reused across all Q values.
    """
    model = build_quadratic_normal()
    design = get_design(model, "trial")
    for r in range(replicates):
        rep_seed = seed.derive(r)
        psa = run_psa(model, S, rep_seed.derive(0))
        inb = compute_inb(model, psa)
        for qi, Q in enumerate(Q_values):
            plan = build_plan(psa, design.informed_params, Q, rep_seed.derive(1 + qi))
            yield r, Q, inb, expected_posterior_variance(plan, design, model, inb.inb_theta)


def replicate_table1(
    Q_values=TABLE1_Q_COLUMNS,
    replicates: int = 50,
    seed: SeedSpec = SeedSpec(0),
    S: int = 10000,
) -> dict:
    """Quadrature-count bias table on the quadratic-INB model.

    Bias is measured against the model's exact EVSI.
    """
    model = build_quadratic_normal()
    exact = quadratic_exact_evsi(model, get_design(model, "trial").sample_size)
    rows = [_row("table1", Q, r, _rescaled_evsi(ve.sigma2, inb), exact, 0.0)
            for r, Q, inb, ve in _quadratic_sweep(Q_values, replicates, seed, S)]
    summary = []
    for Q in Q_values:
        mean, sd = _mean_sd([row["estimate"] for row in rows if row["parameter"] == Q])
        summary.append({"Q": Q, "mean_estimate": mean, "sd_estimate": sd,
                        "oracle": exact, "bias": mean / exact - 1.0})
    return {"rows": rows, "summary": summary}


def bias_sweep(
    toy: ConjugateToy,
    N_values,
    replicates: int = 200,
    seed: SeedSpec = SeedSpec(0),
    S: int = 10000,
) -> dict:
    """Sampling distribution of the rescaled-sample EVSI over prior replicates.

    The preposterior variance is taken at its analytic value, so the spread
    isolates the error of approximating the preposterior-mean law with a
    rescaled prior sample.
    """
    rows = []
    summary = []
    for ni, N in enumerate(N_values):
        toy_n = ConjugateToy(toy.variant, N, params=dict(toy.params))
        model = get_model(toy_n.model_name, **toy_n.params)
        ana = analytic_preposterior(toy_n)
        ests = []
        for r in range(replicates):
            inb = compute_inb(model, run_psa(model, S, seed.derive(ni).derive(r)))
            ests.append(_rescaled_evsi(ana.variance, inb))
            rows.append(_row(f"{toy.variant}_bias", N, r, ests[-1], ana.evsi, 0.0))
        mean, sd = _mean_sd(ests)
        summary.append({"N": N, "mean_estimate": mean, "sd_estimate": sd, "oracle": ana.evsi,
                        "bias": mean - ana.evsi,
                        "relative_bias": mean / ana.evsi - 1.0 if ana.evsi else 0.0})
    return {"rows": rows, "summary": summary}


def variance_convergence(
    Q_values=TABLE1_Q_COLUMNS,
    replicates: int = 100,
    seed: SeedSpec = SeedSpec(0),
    S: int = 10000,
) -> dict:
    """Mean and spread of the preposterior-variance estimate per Q."""
    rows = [_row("variance_convergence", Q, r, ve.sigma2, float("nan"), 0.0)
            for r, Q, _, ve in _quadratic_sweep(Q_values, replicates, seed, S)]
    summary = []
    for Q in Q_values:
        mean, sd = _mean_sd([row["estimate"] for row in rows if row["parameter"] == Q])
        summary.append({"Q": Q, "mean_sigma2": mean, "sd_sigma2": sd})
    return {"rows": rows, "summary": summary}


def ades_crosscheck(
    studies=("study1", "study2", "study3", "study4"),
    S: int = 100000,
    Q: int = 30,
    n_outer: int = 5000,
    seed: SeedSpec = SeedSpec(0),
) -> dict:
    """Moment matching vs. summary regression vs. nested Monte Carlo."""
    model = get_model("ades")
    psa = run_psa(model, S, seed.derive(0))
    rows = []
    summary = []
    for si, study in enumerate(studies):
        design = get_design(model, study)
        run_seed = seed.derive(10 + si)
        mm = estimate_evsi(model, design, psa, EvsiOptions(Q=Q, seed=run_seed.derive(0)))
        ros = regression_on_summaries_evsi(model, design, psa, seed=run_seed.derive(1))
        nested = nested_mc_evsi(model, design, n_outer, seed=run_seed.derive(2))
        for method, est, se in (
            ("moment_matching", mm.evsi, mm.evsi_se),
            ("regression_on_summaries", ros.evsi, ros.standard_error),
            ("nested_mc", nested.evsi, nested.standard_error),
        ):
            rows.append(_row("ades_crosscheck", f"{study}:{method}", 0, est, nested.evsi, se))
        summary.append(
            {
                "study": study,
                "moment_matching": mm.evsi,
                "moment_matching_se": mm.evsi_se,
                "regression_on_summaries": ros.evsi,
                "regression_on_summaries_se": ros.standard_error,
                "nested_mc": nested.evsi,
                "nested_mc_se": nested.standard_error,
            }
        )
    return {"rows": rows, "summary": summary}


class Experiment(NamedTuple):
    """A scripted experiment and the `RunConfig` fields it takes as keywords.

    Every experiment also takes `seed`; the benchmark command passes the
    listed fields that are set and turns list values into tuples.
    """

    run: Callable[..., dict]
    fields: tuple[str, ...]


_SWEEP_FIELDS = ("S", "Q_values", "replicates")
_BIAS_FIELDS = ("S", "N_values", "replicates")

EXPERIMENTS = {
    "table1": Experiment(replicate_table1, _SWEEP_FIELDS),
    "beta_binomial_bias": Experiment(
        partial(bias_sweep, ConjugateToy("beta_binomial_uniform", 1), N_values=(1, 5, 10, 25)),
        _BIAS_FIELDS),
    "exp_gamma_bias": Experiment(
        partial(bias_sweep, ConjugateToy("exp_gamma", 5), N_values=(5, 10, 20, 50)),
        _BIAS_FIELDS),
    "variance_convergence": Experiment(variance_convergence, _SWEEP_FIELDS),
    "ades_crosscheck": Experiment(ades_crosscheck, ("S", "Q", "n_outer", "studies")),
}
