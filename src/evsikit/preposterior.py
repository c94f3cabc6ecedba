"""Expected posterior variance by quantile-spaced quadrature.

Q values of the parameters the study informs are taken from the existing
PSA draws at the q/(Q+1) empirical quantiles (for several parameters, at
quantiles of the first principal direction of their standardized columns).
The plan reads only the columns it needs: each one's mean and SD come from
cumulative sums, which add in the order of axis-0 reductions over the
matrix of the columns and give their bits in a quarter of the time, and the
points are the selected rows of each column.
One future dataset is simulated at each point and its posterior is
computed.  The engine's sigma-squared, the variance of the preposterior
mean, is Var(g) minus the average of the Q posterior variances of g, where g
is the conditional mean of the INB given the parameters the data inform,
evaluated at each point's posterior quadrature nodes of them.  The
parameters the study leaves untouched drop out, and sigma2 <= Var(g).  This
is the regression-based estimator of Strong, Oakley and Brennan (Med Decis
Making 2014) applied inside the posterior step.  g is the fitted spline
(`sigma2_from="fitted_mean"`), or the INB itself when the data inform every
parameter (`sigma2_from="net_benefit"`); the caller passes its values on the
PSA draws, and the fit when there is one.

Every design's recipe gives each point's posterior as an adaptive
Gauss-Hermite rule (Naylor & Smith, Applied Statistics 1982): 24 nodes on
the exact posterior of a conjugate design, in its logit, log or plain frame,
and 24 x 24 nodes on the ades two-arm trial's posterior.  All Q rules run at
once, g is evaluated once at every node, and each point's variance of g is a
weighted sum, with no draws and no posterior seed.  A point's result equals
that of `run_posterior` called point by point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import DecisionModel, PsaSamples
from .regression import RegressionFit
from .rng import SeedSpec
from .util import ComputationError, SchemaError, require_finite, round_half_up

_DATASET_SUB = 0


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
        phi_points=np.column_stack([psa.column(n)[rows] for n in names]),
        seeds=tuple(seed.derive(q) for q in range(Q)),
        psa=psa,
        spacing=spacing,
    )


def _plan_scores(psa: PsaSamples, names: tuple[str, ...]) -> tuple[np.ndarray, str]:
    """(the score each PSA row is ranked by, the spacing's name)."""
    if len(names) == 1:
        return psa.column(names[0]), "quantile"
    columns = [psa.column(n) for n in names]
    mean, sd = np.array([_column_moments(col) for col in columns]).T
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


def _column_moments(col: np.ndarray) -> tuple[float, float]:
    """(mean, SD with ddof=1) of one column, to the bit those of the axis-0
    reductions over the (S, d) matrix of the columns.

    Those add the rows one at a time, as a cumulative sum does, where a 1-D
    reduction sums pairwise and moves the last bits of the scores, and with
    them the order of ties.  Their d-wide inner loop per row takes about
    four times as long as the two cumulative sums.
    """
    n = col.size
    mean = np.cumsum(col)[-1] / n
    dev = col - mean
    np.multiply(dev, dev, out=dev)
    return mean, np.sqrt(np.cumsum(dev, out=dev)[-1] / (n - 1))


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


def run_posterior(design, dataset, model: DecisionModel,
                  fit: RegressionFit | None = None) -> float:
    """The posterior variance of g given one simulated dataset.

    This is the one-dataset case of the batch that `expected_posterior_variance`
    runs over all quadrature points, and gives the same result as that batch
    gives for this dataset and `fit`.
    """
    return float(_run_posteriors(design, [dataset], model, fit)[0])


def _run_posteriors(design, datasets: list[dict], model: DecisionModel,
                    fit: RegressionFit | None = None) -> np.ndarray:
    """The posterior variances of g given several simulated datasets, one
    per quadrature point.

    The design's recipe runs its rule over every dataset at once, g is
    evaluated once at all the nodes, and each point's variance is the
    weighted one.  A dataset's result does not depend on which others share
    the batch.  Non-finite nodes or weights raise `[posterior]`, and
    non-finite values of g `[posterior_variance]`, naming the point.

    With a `fit`, g is the fitted conditional mean at the nodes of the
    design's informed parameters.  Without one, it is the INB, which needs
    nodes of every parameter.
    """
    where = [f" at quadrature point {q + 1}/{len(datasets)}" for q in range(len(datasets))]
    stacked = {k: np.concatenate([ds[k] for ds in datasets]) for k in datasets[0]}
    nodes, weights = design.recipe.nodes_and_weights(stacked, "posterior_variance")
    for q, at in enumerate(where):
        point = {k: v[q] for k, v in nodes.items()}
        require_finite("posterior", {**point, "weights": weights[q]}, at)
    weights = weights / weights.sum(axis=1, keepdims=True)
    values = _g(design, model, {k: v.ravel() for k, v in nodes.items()}, fit)
    values = values.reshape(weights.shape)
    for row, at in zip(values, where):
        require_finite("posterior_variance", {"g": row}, at)
    mean = (weights * values).sum(axis=1, keepdims=True)
    return (weights * (values - mean) ** 2).sum(axis=1)


def _g(design, model: DecisionModel, columns: dict, fit: RegressionFit | None) -> np.ndarray:
    """g at posterior nodes: `fit` at the informed parameters, or the INB."""
    if fit is None:
        return _inb_on(model, columns)
    return fit.evaluate(np.column_stack([columns[n] for n in design.informed_params]))


def _inb_on(model: DecisionModel, posterior_draws: dict[str, np.ndarray]) -> np.ndarray:
    """The INB at posterior nodes of every model parameter.  Derived columns
    are always recomputed from the parameters, even when a recipe hands one in."""
    missing = [name for name in model.param_names if name not in posterior_draws]
    if missing:
        raise SchemaError(f"no posterior draws of {missing}: the INB needs every "
                          "parameter, so pass the fitted conditional mean")
    cols = {name: posterior_draws[name] for name in model.param_names}
    nb = np.asarray(model.net_benefit(model.all_columns(cols)), dtype=float)
    return nb[:, 1] - nb[:, 0]


def expected_posterior_variance(
    plan: QuadraturePlan,
    design,
    model: DecisionModel,
    g: np.ndarray,
    fit: RegressionFit | None = None,
) -> VarianceEstimate:
    """Average the posterior variance of g over the quadrature plan.

    `g` holds the values of g on the PSA draws, whose variance is the prior
    one: `fit.fitted`, the fitted conditional mean of the INB on the
    design's informed parameters, or the INB itself when `fit` is None.
    `posterior_method` records the rule and its node count.
    """
    prior_var = float(np.var(g, ddof=1))

    row_cols = plan.rows()
    datasets = []
    try:
        for q in range(plan.Q):
            point = {k: v[q : q + 1] for k, v in row_cols.items()}
            datasets.append(design.simulate(point, plan.seeds[q].derive(_DATASET_SUB)))
        per_point = _run_posteriors(design, datasets, model, fit)
    except ComputationError:
        raise
    except Exception as exc:
        # every dataset was simulated when the batched posterior step fails
        where = (f"quadrature point {len(datasets) + 1}/{plan.Q}" if len(datasets) < plan.Q
                 else f"the posteriors of the {plan.Q} quadrature points")
        raise ComputationError("posterior_variance", f"{where} failed: {exc}") from exc
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
        posterior_method={"method": "gauss_hermite", "k": design.recipe.nodes},
    )
