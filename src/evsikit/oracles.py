"""Ground-truth estimators used to validate the moment-matching engine.

* Nested Monte Carlo: outer draws of parameters and future data, an inner
  posterior mean of the INB per dataset from the design's
  `batch_inner_means`, the model's net benefit at the posterior means:
  closed forms where the update is conjugate, and for the ades two-arm
  trial an adaptive Gauss-Hermite rule over its 2-D posterior.  No design
  draws inner posterior samples.  When a design's informed parameters are
  all priors, only their columns are drawn, from the streams of the full
  draw.
* Regression on data summaries: simulate one dataset per PSA draw, as its
  sufficient statistics (a count, or the total of n observations), and smooth
  the INB against the dataset's low-dimensional summaries.  One spline
  design, built over the distinct summary rows, serves the GCV fit and the
  bootstrap replicates of the standard error, refitted in blocks; discrete
  summaries collapse 1e5 rows to tens or a few thousand design rows, and no
  replicate rebuilds the design.

The conjugate toys' exact values come from `casemodels.analytic_preposterior`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .casemodels import StudyDesign
from .model import DecisionModel, PsaSamples, compute_inb, run_psa, voi
from .regression import SplineDesign, check_fitted
from .rng import SeedSpec
from .util import BudgetExceededError, require_count

_OUTER_CHUNK = 50000


@dataclass
class OracleResult:
    method: str
    evsi: float
    standard_error: float
    n_outer: int = 0
    wall_time: float = 0.0

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard_error must be nonnegative")


def nested_mc_evsi(
    model: DecisionModel,
    design: StudyDesign,
    n_outer: int,
    n_inner: int = 2000,
    seed: SeedSpec = SeedSpec(0),
    inner_burn_in: int = 500,
    budget_seconds: float | None = None,
) -> OracleResult:
    """Two-level EVSI: average the positive part of the preposterior mean.

    Inner posterior means are the design's `batch_inner_means`.  `n_inner`
    and `inner_burn_in` are read by nothing; they go with the benchmark's
    workloads, which still pass them.
    A wall-time budget, when set, aborts with the completed outer count.
    """
    require_count("n_outer", n_outer, 100)
    start = time.perf_counter()
    # a design's data are simulated from its informed parameters alone; when
    # they are all priors, only their columns are drawn (a derived column
    # needs every prior)
    informed = design.recipe.informed_params
    columns = informed if all(name in model.priors for name in informed) else None

    mus = []
    done = 0
    chunk_index = 0
    while done < n_outer:
        take = min(_OUTER_CHUNK, n_outer - done)
        chunk_seed = seed.derive(chunk_index)
        cols = run_psa(model, max(take, 2), chunk_seed.derive(0), columns=columns).columns
        datasets = design.simulate({k: v[:take] for k, v in cols.items()}, chunk_seed.derive(1))
        del cols  # the draws are freed before the inner means take their memory
        mus.append(np.asarray(design.batch_inner_means(datasets), dtype=float))
        done += take
        chunk_index += 1
        if budget_seconds is not None and time.perf_counter() - start > budget_seconds:
            if done < n_outer:
                raise BudgetExceededError(completed=done, total=n_outer)

    value, se, _ = voi(mus[0] if len(mus) == 1 else np.concatenate(mus))
    return OracleResult(
        method="nested_mc",
        evsi=value,
        standard_error=se,
        n_outer=n_outer,
        wall_time=time.perf_counter() - start,
    )


def regression_on_summaries_evsi(
    model: DecisionModel,
    design: StudyDesign,
    psa: PsaSamples,
    seed: SeedSpec = SeedSpec(0),
    n_bootstrap: int = 20,
) -> OracleResult:
    """Smooth the INB against per-draw simulated dataset summaries.

    One future dataset is simulated for every PSA row; the fitted surface is
    the preposterior-mean estimate.  The standard error is the spread of
    `n_bootstrap` replicates, an integer of at least 2, refitted under
    bootstrap resampling counts at the selected penalty.  A constant INB
    reads 0.0 with standard error 0.0, and no dataset is simulated.
    """
    require_count("n_bootstrap", n_bootstrap, 2)
    start = time.perf_counter()
    # the bootstrap's blocks take the memory of what is not kept: the net
    # benefits, the datasets, the summaries and the fitted values
    y = compute_inb(model, psa).inb_theta
    if y.min() == y.max():  # no dataset changes the decision
        return OracleResult(method="regression_on_summaries", evsi=0.0, standard_error=0.0,
                            n_outer=psa.n_draws, wall_time=time.perf_counter() - start)
    recipe = design.recipe
    spline_design = SplineDesign(
        np.asarray(recipe.summarize(design.simulate(psa.columns, seed.derive(0))), dtype=float),
        recipe.summary_names)
    fit = spline_design.fit(y)
    check_fitted(y, fit.fitted)
    evsi_val, penalty = voi(fit.fitted).value, fit.penalty_weight
    del fit

    reps = spline_design.bootstrap_voi(y, penalty, seed.derive(1).generator(), n_bootstrap)
    se = float(np.std(reps, ddof=1))

    return OracleResult(
        method="regression_on_summaries",
        evsi=evsi_val,
        standard_error=se,
        n_outer=psa.n_draws,
        wall_time=time.perf_counter() - start,
    )
