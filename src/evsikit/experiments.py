"""Scripted experiment replications used by the benchmark CLI and the
acceptance suite: quadrature-count bias tables, estimator bias sweeps for the
conjugate toys, variance-convergence curves, and the cross-method check on
the decision-tree case study.

Each experiment returns plain row dicts (long format, one row per replicate
measurement) plus a summary, so the CLI can serialise them unchanged.
"""

from __future__ import annotations

import numpy as np

from .casemodels import (
    ConjugateToy,
    analytic_preposterior,
    build_quadratic_normal,
    get_design,
    get_model,
)
from .model import compute_inb, run_psa
from .momentmatch import EvsiOptions, compute_constants, estimate_evsi, evsi_from_rescaled
from .oracles import nested_mc_evsi, regression_on_summaries_evsi
from .preposterior import build_plan, expected_posterior_variance
from .rng import SeedSpec
from .util import ConfigError

TABLE1_Q_COLUMNS = (1, 2, 3, 5, 8, 10, 20, 30, 40, 50, 75, 100)


def replicate_table1(
    Q_values=TABLE1_Q_COLUMNS,
    replicates: int = 50,
    seed: SeedSpec = SeedSpec(0),
    S: int = 10000,
    M: int = 1000,
    oracle_n_outer: int = 100000,
) -> dict:
    """Quadrature-count bias table on the quadratic-INB model.

    Per replicate one PSA sample is drawn and reused across all Q values;
    the reference EVSI is re-derived by a nested run with exact inner means.
    """
    model = build_quadratic_normal()
    design = get_design(model, "trial")
    oracle = nested_mc_evsi(model, design, oracle_n_outer, n_inner=1000,
                            seed=seed.derive(900))

    rows = []
    for r in range(replicates):
        rep_seed = seed.derive(r)
        psa = run_psa(model, S, rep_seed.derive(0))
        inb = compute_inb(model, psa)
        for qi, Q in enumerate(Q_values):
            plan = build_plan(psa, design.focal_params, Q, rep_seed.derive(1 + qi))
            ve = expected_posterior_variance(plan, design, model, M, 0, inb=inb)
            inb.inb_phi = inb.inb_theta
            a, b = compute_constants(ve.sigma2, inb)
            est = evsi_from_rescaled(a * inb.inb_theta + b)
            rows.append(
                {
                    "experiment": "table1",
                    "parameter": Q,
                    "replicate": r,
                    "estimate": est,
                    "oracle": oracle.evsi,
                    "se": 0.0,
                }
            )

    summary = []
    for Q in Q_values:
        ests = np.array([row["estimate"] for row in rows if row["parameter"] == Q])
        summary.append(
            {
                "Q": Q,
                "mean_estimate": float(ests.mean()),
                "sd_estimate": float(ests.std(ddof=1)) if ests.size > 1 else 0.0,
                "oracle": oracle.evsi,
                "bias": float(ests.mean() / oracle.evsi - 1.0),
            }
        )
    return {"rows": rows, "summary": summary, "oracle": oracle}


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
        ests = np.empty(replicates)
        for r in range(replicates):
            psa = run_psa(model, S, seed.derive(ni).derive(r))
            inb = compute_inb(model, psa)
            inb.inb_phi = inb.inb_theta
            a, b = compute_constants(ana.variance, inb)
            ests[r] = evsi_from_rescaled(a * inb.inb_theta + b)
            rows.append(
                {
                    "experiment": f"{toy.variant}_bias",
                    "parameter": N,
                    "replicate": r,
                    "estimate": float(ests[r]),
                    "oracle": ana.evsi,
                    "se": 0.0,
                }
            )
        summary.append(
            {
                "N": N,
                "mean_estimate": float(ests.mean()),
                "sd_estimate": float(ests.std(ddof=1)),
                "oracle": ana.evsi,
                "bias": float(ests.mean() - ana.evsi),
                "relative_bias": float(ests.mean() / ana.evsi - 1.0) if ana.evsi else 0.0,
            }
        )
    return {"rows": rows, "summary": summary}


def variance_convergence(
    Q_values=TABLE1_Q_COLUMNS,
    replicates: int = 100,
    seed: SeedSpec = SeedSpec(0),
    S: int = 10000,
    M: int = 1000,
) -> dict:
    """Mean and spread of the preposterior-variance estimate per Q."""
    model = build_quadratic_normal()
    design = get_design(model, "trial")
    rows = []
    for r in range(replicates):
        rep_seed = seed.derive(r)
        psa = run_psa(model, S, rep_seed.derive(0))
        inb = compute_inb(model, psa)
        for qi, Q in enumerate(Q_values):
            plan = build_plan(psa, design.focal_params, Q, rep_seed.derive(1 + qi))
            ve = expected_posterior_variance(plan, design, model, M, 0, inb=inb)
            rows.append(
                {
                    "experiment": "variance_convergence",
                    "parameter": Q,
                    "replicate": r,
                    "estimate": ve.sigma2,
                    "oracle": float("nan"),
                    "se": 0.0,
                }
            )
    summary = []
    for Q in Q_values:
        vals = np.array([row["estimate"] for row in rows if row["parameter"] == Q])
        summary.append(
            {
                "Q": Q,
                "mean_sigma2": float(vals.mean()),
                "sd_sigma2": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            }
        )
    return {"rows": rows, "summary": summary}


def ades_crosscheck(
    studies=("study1", "study2", "study3", "study4"),
    S: int = 100000,
    Q: int = 30,
    M: int = 10000,
    burn_in: int = 1000,
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
        mm = estimate_evsi(
            model, design, psa,
            EvsiOptions(Q=Q, M=M, burn_in=burn_in, seed=run_seed.derive(0)),
        )
        ros = regression_on_summaries_evsi(model, design, psa, seed=run_seed.derive(1))
        nested = nested_mc_evsi(
            model, design, n_outer, n_inner=2000, seed=run_seed.derive(2), inner_burn_in=500
        )
        for method, est, se in (
            ("moment_matching", mm.evsi, mm.evsi_se),
            ("regression_on_summaries", ros.evsi, ros.standard_error),
            ("nested_mc", nested.evsi, nested.standard_error),
        ):
            rows.append(
                {
                    "experiment": "ades_crosscheck",
                    "parameter": f"{study}:{method}",
                    "replicate": 0,
                    "estimate": est,
                    "oracle": nested.evsi,
                    "se": se,
                }
            )
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


EXPERIMENTS = {
    "table1": replicate_table1,
    "beta_binomial_bias": lambda **kw: bias_sweep(
        ConjugateToy("beta_binomial_uniform", kw.pop("N", 1)),
        kw.pop("N_values", (1, 5, 10, 25)),
        **kw,
    ),
    "exp_gamma_bias": lambda **kw: bias_sweep(
        ConjugateToy("exp_gamma", kw.pop("N", 5)),
        kw.pop("N_values", (5, 10, 20, 50)),
        **kw,
    ),
    "variance_convergence": variance_convergence,
    "ades_crosscheck": ades_crosscheck,
}


def run_experiment(name: str, **kwargs) -> dict:
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
