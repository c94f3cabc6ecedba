"""Expected posterior variance by quantile-spaced quadrature.

Q values of the parameters the study informs are taken from the existing
PSA draws at the q/(Q+1) empirical quantiles (for several parameters, at
quantiles of the first principal direction of their standardized columns).
The plan reads only the columns it needs: each one's mean and SD are
numpy's 1-D reductions over it, and the points are the selected rows of
each column.
One future dataset is simulated at each point, all Q in one call from the
plan's seed, and each posterior is computed.  The engine's sigma-squared,
the variance of the preposterior mean, is Var(g) minus the average of the Q
posterior variances of g, where g is the conditional mean of the INB given
the parameters the data inform, evaluated at each point's posterior
quadrature nodes of them.  The parameters the study leaves untouched drop
out, and sigma2 <= Var(g).  This is the regression-based estimator of
Strong, Oakley and Brennan (Med Decis Making 2014) applied inside the
posterior step.  g is the fitted spline (`sigma2_from="fitted_mean"`), or
the INB itself when the data inform every parameter
(`sigma2_from="net_benefit"`); the caller passes its values on the PSA
draws, and the fit when there is one.

Every design's recipe gives each point's posterior as an adaptive
Gauss-Hermite rule (Naylor & Smith, Applied Statistics 1982): 24 nodes on
the exact posterior of a conjugate design, in its logit, log or plain frame,
and 24 x 24 nodes on the ades two-arm trial's posterior.  All Q rules run at
once, g is evaluated once at every node, and each point's variance of g is a
weighted sum, with no draws and no posterior seed.  A point's result equals
that of `run_posterior` called on its row of the batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import DecisionModel, PsaSamples
from .regression import RegressionFit
from .rng import SeedSpec
from .util import ComputationError, SchemaError, require_count, require_finite

_DATASET_SUB = 0


@dataclass
class QuadraturePlan:
    Q: int
    phi_names: tuple[str, ...]
    row_indices: np.ndarray
    phi_points: np.ndarray
    seed: SeedSpec
    psa: PsaSamples
    spacing: str

    def rows(self) -> dict[str, np.ndarray]:
        """All model columns at the selected rows (needed by data simulators)."""
        return {k: v[self.row_indices] for k, v in self.psa.columns.items()}


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
    dataset_summaries: list
    phi_names: tuple
    phi_points: np.ndarray
    sigma2_from: str
    posterior_method: dict


def build_plan(psa: PsaSamples, phi_names, Q: int, seed: SeedSpec) -> QuadraturePlan:
    """Select Q rows of the PSA spanning the distribution of `phi_names`;
    the datasets of all Q are drawn in one batch from `seed`."""
    names = tuple(phi_names)
    require_count("Q", Q, 1)
    if Q > psa.n_draws:
        raise ValueError(f"Q={Q} exceeds the {psa.n_draws} available draws")
    scores, spacing = _plan_scores(psa, names)
    S = psa.n_draws
    # nearest ranks of the q/(Q+1) quantiles, halves rounded up
    ranks = np.clip(np.floor(S * np.arange(1, Q + 1) / (Q + 1) + 0.5), 1, S).astype(np.intp)
    rows = _stable_order_at(scores, ranks - 1)
    return QuadraturePlan(
        Q=Q,
        phi_names=names,
        row_indices=rows,
        phi_points=np.column_stack([psa.column(n)[rows] for n in names]),
        seed=seed,
        psa=psa,
        spacing=spacing,
    )


def _plan_scores(psa: PsaSamples, names: tuple[str, ...]) -> tuple[np.ndarray, str]:
    """(the score each PSA row is ranked by, the spacing's name)."""
    if len(names) == 1:
        return psa.column(names[0]), "quantile"
    columns = [psa.column(n) for n in names]
    mean = np.array([col.mean() for col in columns])
    sd = np.array([col.std(ddof=1) for col in columns])
    if np.any(sd == 0):
        bad = [names[i] for i in np.flatnonzero(sd == 0)]
        raise SchemaError(f"constant focal column(s) {bad}")
    z = (np.column_stack(columns) - mean) / sd
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


def run_posterior(design, dataset: dict, model: DecisionModel,
                  fit: RegressionFit | None = None) -> float:
    """The posterior variance of g given one simulated dataset, a batch of one row.

    This is the one-dataset case of the batch that `expected_posterior_variance`
    runs over all quadrature points, and gives the same result as that batch
    gives for this dataset and `fit`.
    """
    return float(_run_posteriors(design, dataset, model, fit)[0])


def _run_posteriors(design, datasets: dict, model: DecisionModel,
                    fit: RegressionFit | None = None) -> np.ndarray:
    """The posterior variances of g given a batch of simulated datasets, one
    row per quadrature point.

    The design's recipe runs its rule over the whole batch at once, g is
    evaluated once at all the nodes, and each point's variance is the
    weighted one.  A dataset's result does not depend on which others share
    the batch.  Non-finite nodes or weights raise `[posterior]`, and
    non-finite values of g `[posterior_variance]`, naming the point.

    With a `fit`, g is the fitted conditional mean at the nodes of the
    design's informed parameters.  Without one, it is the INB, which needs
    nodes of every parameter.
    """
    recipe = design.recipe
    nodes, weights = recipe.nodes_and_weights(datasets, "posterior_variance")
    _require_finite_by_point("posterior", {**nodes, "weights": weights})
    weights = weights / weights.sum(axis=1, keepdims=True)
    columns = {k: v.ravel() for k, v in nodes.items()}
    if fit is None:
        values = _inb_on(model, columns)
    else:
        values = fit.evaluate(np.column_stack([columns[n] for n in recipe.informed_params]))
    values = values.reshape(weights.shape)
    _require_finite_by_point("posterior_variance", {"g": values})
    mean = (weights * values).sum(axis=1, keepdims=True)
    return (weights * (values - mean) ** 2).sum(axis=1)


def _require_finite_by_point(stage: str, arrays: dict) -> None:
    """`require_finite` on arrays of one row per quadrature point, walking the
    points only when the whole batch holds a non-finite value, to name one."""
    if all(np.isfinite(v).all() for v in arrays.values()):
        return
    Q = len(next(iter(arrays.values())))
    for q in range(Q):
        require_finite(stage, {k: v[q] for k, v in arrays.items()},
                       f" at quadrature point {q + 1}/{Q}")


def _inb_on(model: DecisionModel, posterior_draws: dict[str, np.ndarray]) -> np.ndarray:
    """The INB at posterior nodes of every model parameter.  Derived columns
    are always recomputed from the parameters, even when a recipe hands one in."""
    missing = [name for name in model.param_names if name not in posterior_draws]
    if missing:
        raise SchemaError(f"no posterior draws of {missing}: the INB needs every "
                          "parameter, so pass the fitted conditional mean")
    cols = {name: posterior_draws[name] for name in model.param_names}
    return model.inb(model.all_columns(cols))


def expected_posterior_variance(
    plan: QuadraturePlan,
    design,
    model: DecisionModel,
    g: np.ndarray,
    fit: RegressionFit | None = None,
) -> VarianceEstimate:
    """Average the posterior variance of g over the quadrature plan, whose Q
    datasets are simulated in one call, one row per point, from its seed.

    `g` holds the values of g on the PSA draws, whose variance is the prior
    one: `fit.fitted`, the fitted conditional mean of the INB on the
    design's informed parameters, or the INB itself when `fit` is None.
    `posterior_method` records the rule and its node count.
    """
    prior_var = float(np.var(g, ddof=1))

    where = f"the datasets of the {plan.Q} quadrature points"
    try:
        datasets = design.simulate(plan.rows(), plan.seed.derive(_DATASET_SUB))
        where = f"the posteriors of the {plan.Q} quadrature points"
        per_point = _run_posteriors(design, datasets, model, fit)
    except ComputationError:
        raise
    except Exception as exc:
        raise ComputationError("posterior_variance", f"{where} failed: {exc}") from exc
    recipe = design.recipe
    summaries = [" ".join(f"{n}={v:g}" for n, v in zip(recipe.summary_names, row))
                 for row in recipe.summarize(datasets)]

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
        posterior_method={"method": "gauss_hermite", "k": recipe.nodes},
    )
