"""Expected posterior variance by quantile-spaced quadrature.

Q values of the parameters the study informs are taken from the existing
PSA draws at the q/(Q+1) empirical quantiles (for several parameters, at
quantiles of the first principal direction of their standardized columns).
One future dataset is simulated at each point and its posterior is
computed.  The engine's sigma-squared, the variance of the preposterior
mean, is Var(g) minus the average of the Q posterior variances of g, where g
is the conditional mean of the INB given the parameters the data inform,
evaluated at each point's posterior draws (or quadrature nodes) of them.  The parameters the study leaves
untouched drop out, and sigma2 <= Var(g).  This is the regression-based
estimator of Strong, Oakley and Brennan (Med Decis Making 2014) applied
inside the posterior step.  g is the fitted spline
(`sigma2_from="fitted_mean"`), or the INB itself when the data inform every
parameter (`sigma2_from="net_benefit"`).

Conjugate designs draw M values from each point's exact posterior.  The
ades two-arm trial, whose posterior has no closed form, takes a 24 x 24
adaptive Gauss-Hermite rule per point instead (Naylor & Smith, Applied
Statistics 1982): all Q rules run at once, g is evaluated once at every
node, and each point's variance of g is a weighted sum, with no draws, M
or seed.  Either way a point's result equals that of `run_posterior`
called point by point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import DecisionModel, InbSamples, PsaSamples, compute_inb
from .posterior import QuadratureUpdate
from .regression import RegressionFit
from .rng import SeedSpec
from .util import ComputationError, SchemaError, require_finite, round_half_up

_DATASET_SUB = 0
_POSTERIOR_SUB = 1


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
    """One point's posterior draws, or a rule's nodes with their normalised
    `weights` (None for equally weighted draws); `inb_posterior_variance` is
    the posterior variance of g, the fitted conditional mean or the INB."""

    draws: dict[str, np.ndarray]
    inb_posterior_variance: float
    weights: np.ndarray | None = None


@dataclass
class VarianceEstimate:
    """sigma2 = prior_variance - expected_posterior_variance, floored at 0.

    `sigma2_from` names g, the quantity whose variances these are: the
    fitted conditional mean ("fitted_mean") or the INB ("net_benefit").
    """

    prior_variance: float
    expected_posterior_variance: float
    sigma2: float
    per_point: np.ndarray
    clamped: bool
    dataset_summaries: list = field(default_factory=list)
    phi_names: tuple = ()
    phi_points: np.ndarray | None = None
    sigma2_from: str = "net_benefit"
    posterior_method: dict = field(default_factory=dict)


def build_plan(psa: PsaSamples, phi_names, Q: int, seed: SeedSpec) -> QuadraturePlan:
    """Select Q rows of the PSA spanning the distribution of `phi_names`."""
    names = tuple(phi_names)
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q > psa.n_draws:
        raise ValueError(f"Q={Q} exceeds the {psa.n_draws} available draws")
    scores, spacing = _plan_scores(psa, names)
    S = psa.n_draws
    ranks = [min(max(round_half_up(S * q / (Q + 1)), 1), S) for q in range(1, Q + 1)]
    rows = _stable_order_at(scores, np.asarray(ranks) - 1)
    return QuadraturePlan(
        Q=Q,
        phi_names=names,
        row_indices=rows,
        phi_points=psa.matrix(names)[rows],
        seeds=tuple(seed.derive(q) for q in range(Q)),
        psa=psa,
        spacing=spacing,
    )


def _plan_scores(psa: PsaSamples, names: tuple[str, ...]) -> tuple[np.ndarray, str]:
    """(the score each PSA row is ranked by, the spacing's name)."""
    if len(names) == 1:
        return psa.column(names[0]), "quantile"
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
    return z @ pc1, "pca_rank"


def _stable_order_at(scores: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """`np.argsort(scores, kind="stable")[positions]` without a stable sort.

    An unstable sort puts the same set of indices at each run of equal
    scores; the stable one lists them in increasing order.  So only the
    selected positions inside runs longer than one need repairing, and
    `np.flatnonzero` lists a run's indices in that order.
    """
    order = np.argsort(scores)
    rows = order[positions]
    ordered = scores[order]
    values = ordered[positions]
    lo = np.searchsorted(ordered, values, "left")
    hi = np.searchsorted(ordered, values, "right")
    runs = {}
    for i in np.flatnonzero(hi - lo > 1):
        v = values[i]
        if v not in runs:
            runs[v] = np.flatnonzero(scores == v)
        rows[i] = runs[v][positions[i] - lo[i]]
    return rows


def run_posterior(design, dataset, model: DecisionModel, M: int, seed: SeedSpec,
                  fit: RegressionFit | None = None) -> PosteriorRun:
    """One posterior for one simulated dataset, plus the variance of g under it.

    This is the one-dataset case of the batch that `expected_posterior_variance`
    runs over all quadrature points, and gives the same result as that batch
    gives for this dataset, seed and `fit`.
    """
    return _run_posteriors(design, [dataset], model, M, [seed], fit)[0]


def _run_posteriors(design, datasets: list[dict], model: DecisionModel, M: int,
                    seeds: Sequence[SeedSpec],
                    fit: RegressionFit | None = None) -> list[PosteriorRun]:
    """Posteriors for several simulated datasets, one per quadrature point.

    A quadrature recipe runs its rule over every dataset at once, g is
    evaluated once at all the nodes, and each point's variance is the
    weighted one; it reads neither M nor the seeds.  A conjugate recipe
    draws M values for each point from its own generator, seeded with
    `seeds[q].derive(_POSTERIOR_SUB)`, and takes their sample variance.  A
    dataset's result does not depend on which others share the batch.

    With a `fit`, g is the fitted conditional mean at the posterior draws
    (or nodes) of the design's informed parameters.  Without one, it is the
    INB, which needs draws of every parameter.
    """
    recipe = design.recipe
    where = [f" at quadrature point {q + 1}/{len(datasets)}" for q in range(len(datasets))]
    if isinstance(recipe, QuadratureUpdate):
        stacked = {k: np.concatenate([ds[k] for ds in datasets]) for k in datasets[0]}
        nodes, weights = recipe.nodes_and_weights(stacked, "posterior_variance")
        points = [{k: v[q] for k, v in nodes.items()} for q in range(len(datasets))]
        for point, at in zip(points, where):
            require_finite("posterior", point, at)
        weights = weights / weights.sum(axis=1, keepdims=True)
        values = _g(design, model, {k: v.ravel() for k, v in nodes.items()}, fit)
        values = values.reshape(weights.shape)
        mean = (weights * values).sum(axis=1, keepdims=True)
        variances = (weights * (values - mean) ** 2).sum(axis=1)
        return [PosteriorRun(point, float(v), weights=w)
                for point, v, w in zip(points, variances, weights)]

    if M < 1000:
        raise ValueError("need at least 1000 posterior draws")
    runs = []
    for q, (ds, s) in enumerate(zip(datasets, seeds)):
        draws = recipe.draw(ds, M, s.derive(_POSTERIOR_SUB).generator())
        draws = {k: np.asarray(v)[0] for k, v in draws.items()}
        require_finite("posterior", draws, where[q])
        values = _g(design, model, draws, fit)
        require_finite("posterior_variance", {"g": values}, where[q])
        runs.append(PosteriorRun(draws, float(np.var(values, ddof=1))))
    return runs


def _g(design, model: DecisionModel, columns: dict, fit: RegressionFit | None) -> np.ndarray:
    """g at posterior draws: `fit` at the informed parameters, or the INB."""
    if fit is None:
        return _inb_on(model, columns)
    return fit.evaluate(np.column_stack([columns[n] for n in design.informed_params]))


def _inb_on(model: DecisionModel, posterior_draws: dict[str, np.ndarray]) -> np.ndarray:
    """The INB at posterior draws of every model parameter.  Derived columns
    are always recomputed from the parameters, even when a recipe hands one in."""
    missing = [name for name in model.param_names if name not in posterior_draws]
    if missing:
        raise SchemaError(f"no posterior draws of {missing}: the INB needs every "
                          "parameter, so pass the fitted conditional mean")
    cols = {name: posterior_draws[name] for name in model.param_names}
    nb = np.asarray(model.net_benefit(model.all_columns(cols)), dtype=float)
    r, s = model.comparison
    return nb[:, r] - nb[:, s]


def expected_posterior_variance(
    plan: QuadraturePlan,
    design,
    model: DecisionModel,
    M: int,
    inb: InbSamples | None = None,
    fit: RegressionFit | None = None,
) -> VarianceEstimate:
    """Average the posterior variance of g over the quadrature plan.

    g is `fit`, the fitted conditional mean of the INB on the design's
    informed parameters, or the INB itself when `fit` is None.  `M` is the
    number of draws per point of a conjugate recipe; a quadrature recipe
    does not read it, and `posterior_method` records which was used.
    """
    if fit is not None:
        prior_var = float(np.var(fit.fitted, ddof=1))
    else:
        if inb is None:
            inb = compute_inb(model, plan.psa)
        prior_var = float(np.var(inb.inb_theta, ddof=1))

    row_cols = plan.rows()
    datasets = []
    try:
        for q in range(plan.Q):
            point = {k: v[q : q + 1] for k, v in row_cols.items()}
            datasets.append(design.simulate(point, plan.seeds[q].derive(_DATASET_SUB)))
        runs = _run_posteriors(design, datasets, model, M, plan.seeds, fit)
    except ComputationError:
        raise
    except Exception as exc:
        # every dataset was simulated when the batched posterior step fails
        where = (f"quadrature point {len(datasets) + 1}/{plan.Q}" if len(datasets) < plan.Q
                 else f"the posteriors of the {plan.Q} quadrature points")
        raise ComputationError("posterior_variance", f"{where} failed: {exc}") from exc
    per_point = np.array([run.inb_posterior_variance for run in runs])
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
        dataset_summaries=summaries,
        phi_names=plan.phi_names,
        phi_points=plan.phi_points,
        sigma2_from="net_benefit" if fit is None else "fitted_mean",
        posterior_method=({"method": "gauss_hermite", "k": design.recipe.nodes}
                          if isinstance(design.recipe, QuadratureUpdate)
                          else {"method": "conjugate_draws", "M": M}),
    )
