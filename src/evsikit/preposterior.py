"""Expected posterior variance by quantile-spaced quadrature.

Q focal values are taken from the existing PSA draws at the q/(Q+1)
empirical quantiles (for multidimensional focal sets, at quantiles of the
first principal direction of the standardized focal columns).  One future
dataset is simulated at each point and a posterior is run for each dataset;
the posterior variances of the INB are averaged.  The difference between the
prior INB variance and that average is the variance of the preposterior
mean, the engine's sigma-squared.

Metropolis posteriors of all Q points run together as one ensemble of Q
chains, so the per-step Python overhead is paid once rather than Q times.
Each chain keeps the stream it would have on its own, so the per-point
results equal those of `run_posterior` called point by point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import DecisionModel, InbSamples, PsaSamples, compute_inb
from .posterior import MetropolisUpdate
from .rng import SeedSpec
from .util import ComputationError, SchemaError, require_finite, round_half_up

_DATASET_SUB = 0
_POSTERIOR_SUB = 1
_UNTOUCHED_SUB = 2


@dataclass
class QuadraturePlan:
    Q: int
    phi_names: tuple[str, ...]
    row_indices: np.ndarray
    phi_points: np.ndarray
    seeds: tuple[SeedSpec, ...]
    psa: PsaSamples
    spacing: str

    def rows(self) -> dict[str, np.ndarray]:
        """All model columns at the selected rows (needed by data simulators)."""
        return {k: v[self.row_indices] for k, v in self.psa.columns.items()}


@dataclass
class PosteriorRun:
    dataset: dict
    recipe: str
    draws: dict[str, np.ndarray]
    burn_in: int
    inb_posterior_variance: float
    acceptance_rate: float | None = None
    split_variance_ratio: float | None = None


@dataclass
class VarianceEstimate:
    prior_variance: float
    expected_posterior_variance: float
    sigma2: float
    per_point: np.ndarray
    clamped: bool
    acceptance_rates: list = field(default_factory=list)
    split_variance_ratios: list = field(default_factory=list)
    dataset_summaries: list = field(default_factory=list)
    phi_names: tuple = ()
    phi_points: np.ndarray | None = None


def build_plan(psa: PsaSamples, phi_names, Q: int, seed: SeedSpec) -> QuadraturePlan:
    """Select Q rows of the PSA spanning the focal distribution."""
    names = tuple(phi_names)
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q > psa.n_draws:
        raise ValueError(f"Q={Q} exceeds the {psa.n_draws} available draws")
    for n in names:
        psa.column(n)

    if len(names) == 1:
        scores = psa.column(names[0])
        spacing = "quantile"
    else:
        z = psa.matrix(names)
        sd = z.std(axis=0, ddof=1)
        if np.any(sd == 0):
            bad = [names[i] for i in np.flatnonzero(sd == 0)]
            raise SchemaError(f"constant focal column(s) {bad}")
        z = (z - z.mean(axis=0)) / sd
        cov = (z.T @ z) / (z.shape[0] - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        pc1 = eigvecs[:, -1]
        if pc1[np.argmax(np.abs(pc1))] < 0:
            pc1 = -pc1
        scores = z @ pc1
        spacing = "pca_rank"

    order = np.argsort(scores, kind="stable")
    S = psa.n_draws
    ranks = [min(max(round_half_up(S * q / (Q + 1)), 1), S) for q in range(1, Q + 1)]
    rows = order[np.asarray(ranks) - 1]
    return QuadraturePlan(
        Q=Q,
        phi_names=names,
        row_indices=rows,
        phi_points=psa.matrix(names)[rows],
        seeds=tuple(seed.derive(q) for q in range(Q)),
        psa=psa,
        spacing=spacing,
    )


def _retained(recipe, M: int, burn_in: int) -> int:
    if isinstance(recipe, MetropolisUpdate):
        if M <= burn_in:
            raise ValueError("M must exceed burn_in for Metropolis recipes")
        return M - burn_in
    return M


def run_posterior(design, dataset, model: DecisionModel, M: int, burn_in: int,
                  seed: SeedSpec) -> PosteriorRun:
    """One posterior for one simulated dataset, plus the INB variance under it.

    This is the one-dataset case of the batch that `expected_posterior_variance`
    runs over all quadrature points, and gives the same result as that batch
    gives for this dataset and seed.
    """
    return _run_posteriors(design, [dataset], model, M, burn_in, [seed])[0]


def _run_posteriors(design, datasets: list[dict], model: DecisionModel, M: int,
                    burn_in: int, seeds: Sequence[SeedSpec]) -> list[PosteriorRun]:
    """Posteriors for several simulated datasets, one per quadrature point.

    A Metropolis recipe runs every dataset as one chain of a single ensemble.
    Chain q draws from `seeds[q].derive(_POSTERIOR_SUB).derive(0)`, the stream
    of a one-chain ensemble seeded with `seeds[q].derive(_POSTERIOR_SUB)`, so
    each point's draws do not depend on which other points share the batch.
    Conjugate recipes draw each point from its own generator.

    Untouched parameters are re-drawn per point from their priors alongside
    the posterior draws of the updated ones, mirroring a full re-declaration
    of the model in the posterior program.
    """
    recipe = design.recipe
    retained = _retained(recipe, M, burn_in)
    if retained < 1000:
        raise ValueError("need at least 1000 retained posterior draws")

    posterior_seeds = [s.derive(_POSTERIOR_SUB) for s in seeds]
    metropolis = isinstance(recipe, MetropolisUpdate)
    if metropolis:
        stacked = {k: np.concatenate([ds[k] for ds in datasets]) for k in datasets[0]}
        out, info = recipe.draw(stacked, retained, burn_in=burn_in,
                                seeds=[s.derive(0) for s in posterior_seeds])
        draws = [{k: v[q] for k, v in out.items()} for q in range(len(datasets))]
        accept = [float(r) for r in info["acceptance_rate"]]
        split = [float(r) for r in info["split_variance_ratio"]]
    else:
        draws = [
            {k: np.asarray(v)[0] for k, v in recipe.draw(ds, retained, s.generator()).items()}
            for ds, s in zip(datasets, posterior_seeds)
        ]
        accept = split = [None] * len(datasets)
    for q, point_draws in enumerate(draws):
        require_finite("posterior", point_draws, f" at quadrature point {q + 1}/{len(datasets)}")

    runs = []
    for q, (dataset, point_draws, seed) in enumerate(zip(datasets, draws, seeds)):
        cols = dict(point_draws)
        untouched_seed = seed.derive(_UNTOUCHED_SUB)
        for j, name in enumerate(model.param_names):
            if name in cols:
                continue
            cols[name] = model.priors[name].sample_with(untouched_seed.derive(j).generator(),
                                                        retained)
        inb_post = _inb_on(model, cols)
        require_finite("posterior_variance", {"the posterior INB": inb_post},
                       f" at quadrature point {q + 1}/{len(datasets)}")
        runs.append(PosteriorRun(
            dataset=dataset,
            recipe=type(recipe).__name__,
            draws=point_draws,
            burn_in=burn_in if metropolis else 0,
            inb_posterior_variance=float(np.var(inb_post, ddof=1)),
            acceptance_rate=accept[q],
            split_variance_ratio=split[q],
        ))
    return runs


def _inb_on(model: DecisionModel, prior_cols: dict[str, np.ndarray]) -> np.ndarray:
    cols = model.all_columns(prior_cols)
    nb = np.asarray(model.net_benefit(cols), dtype=float)
    r, s = model.comparison
    return nb[:, r] - nb[:, s]


def expected_posterior_variance(
    plan: QuadraturePlan,
    design,
    model: DecisionModel,
    M: int,
    burn_in: int,
    inb: InbSamples | None = None,
) -> VarianceEstimate:
    """Average the INB posterior variance over the quadrature plan."""
    if inb is None:
        inb = compute_inb(model, plan.psa)
    prior_var = float(np.var(inb.inb_theta, ddof=1))

    row_cols = plan.rows()
    datasets = []
    try:
        for q in range(plan.Q):
            point = {k: v[q : q + 1] for k, v in row_cols.items()}
            datasets.append(design.simulate(point, plan.seeds[q].derive(_DATASET_SUB)))
        runs = _run_posteriors(design, datasets, model, M, burn_in, plan.seeds)
    except ComputationError:
        raise
    except Exception as exc:
        # every dataset was simulated when the batched posterior step fails
        where = (f"quadrature point {len(datasets) + 1}/{plan.Q}" if len(datasets) < plan.Q
                 else f"the posteriors of the {plan.Q} quadrature points")
        raise ComputationError("posterior_variance", f"{where} failed: {exc}") from exc
    per_point = np.array([run.inb_posterior_variance for run in runs])
    rates = [run.acceptance_rate for run in runs]
    split_ratios = [run.split_variance_ratio for run in runs]
    summaries = [design.describe_dataset(ds) for ds in datasets]

    expected = float(np.mean(per_point))
    raw = prior_var - expected
    clamped = raw < 0.0
    if clamped:
        warnings.warn(
            f"negative preposterior variance {raw:.6g} clamped to 0 "
            "(Monte Carlo noise exceeds the information in the study)",
            stacklevel=2,
        )
    return VarianceEstimate(
        prior_variance=prior_var,
        expected_posterior_variance=expected,
        sigma2=max(raw, 0.0),
        per_point=per_point,
        clamped=clamped,
        acceptance_rates=rates,
        split_variance_ratios=split_ratios,
        dataset_summaries=summaries,
        phi_names=plan.phi_names,
        phi_points=plan.phi_points,
    )
