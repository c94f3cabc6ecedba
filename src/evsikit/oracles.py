"""Ground-truth estimators used to validate the moment-matching engine.

* Nested Monte Carlo: outer draws of parameters and future data, an inner
  posterior mean of the INB per dataset from the design's
  `batch_inner_means`: closed forms where the update is conjugate, and for
  the ades two-arm trial an adaptive Gauss-Hermite rule over its 2-D
  posterior.  No registered design draws inner posterior samples, so none
  reads `n_inner` or `inner_burn_in`; they stay for designs that do.
* Regression on data summaries: simulate one dataset per PSA draw, as its
  sufficient statistics (a count, or the total of n observations), and smooth
  the INB against the dataset's low-dimensional summaries.  One spline
  design, built over the distinct summary rows, serves the GCV fit and every
  bootstrap refit; discrete summaries collapse 1e5 rows to tens or a few
  thousand design rows, and no refit rebuilds the design.

The conjugate toys' exact values come from `casemodels.analytic_preposterior`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .casemodels import StudyDesign
from .model import DecisionModel, PsaSamples, compute_inb, run_psa, voi, voi_raw
from .regression import SplineDesign
from .rng import SeedSpec
from .util import BudgetExceededError

_OUTER_CHUNK = 50000


@dataclass
class OracleResult:
    method: str
    evsi: float
    standard_error: float
    n_outer: int = 0
    n_inner: int = 0
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

    Inner posterior means come from the design's own strategy: exact
    conjugate means where available, and quadrature over the 2-D posterior
    of the ades two-arm trial.  `n_inner` and `inner_burn_in` are handed to
    the design, and no registered design reads them; `n_inner` is still
    checked and recorded in the result.  A wall-time budget, when set,
    aborts with the completed outer count.
    """
    if n_outer < 100 or n_inner < 100:
        raise ValueError("n_outer and n_inner must both be >= 100")
    start = time.perf_counter()

    mus = []
    done = 0
    chunk_index = 0
    while done < n_outer:
        take = min(_OUTER_CHUNK, n_outer - done)
        chunk_seed = seed.derive(chunk_index)
        psa = run_psa(model, max(take, 2), chunk_seed.derive(0))
        cols = {k: v[:take] for k, v in psa.columns.items()}
        datasets = design.simulate(cols, chunk_seed.derive(1))
        mus.append(
            np.asarray(
                design.batch_inner_means(
                    datasets, chunk_seed.derive(2), n_inner=n_inner, burn_in=inner_burn_in
                ),
                dtype=float,
            )
        )
        done += take
        chunk_index += 1
        if budget_seconds is not None and time.perf_counter() - start > budget_seconds:
            if done < n_outer:
                raise BudgetExceededError(completed=done, total=n_outer)

    value, se, _ = voi(np.concatenate(mus))
    return OracleResult(
        method="nested_mc",
        evsi=value,
        standard_error=se,
        n_outer=n_outer,
        n_inner=n_inner,
        wall_time=time.perf_counter() - start,
    )


def _bootstrap_counts(gen: np.random.Generator, n: int) -> np.ndarray:
    """How often each of n rows is drawn when resampling n rows with
    replacement: Multinomial(n, 1/n) counts, in O(n) time."""
    return np.bincount(gen.integers(0, n, n), minlength=n)


def regression_on_summaries_evsi(
    model: DecisionModel,
    design: StudyDesign,
    psa: PsaSamples,
    seed: SeedSpec = SeedSpec(0),
    n_bootstrap: int = 20,
) -> OracleResult:
    """Smooth the INB against per-draw simulated dataset summaries.

    One future dataset is simulated for every PSA row; the fitted surface is
    the preposterior-mean estimate.  The standard error comes from refitting
    under bootstrap resampling counts at the selected penalty.
    """
    start = time.perf_counter()
    inb = compute_inb(model, psa)
    datasets = design.simulate(psa.columns, seed.derive(0))
    summaries = np.asarray(design.summarize_batch(datasets), dtype=float)

    spline_design = SplineDesign(summaries, design.summary_names)
    fit = spline_design.fit(inb.inb_theta)
    inb.attach_phi(fit.fitted, names=design.summary_names)  # mean and variance checks
    evsi_val = voi(fit.fitted).value

    se = 0.0
    if n_bootstrap > 1:
        gen = seed.derive(1).generator()
        n = inb.inb_theta.size
        reps = np.empty(n_bootstrap)
        for b in range(n_bootstrap):
            w = _bootstrap_counts(gen, n).astype(float)
            reps[b] = voi_raw(spline_design.refit(inb.inb_theta, w, fit.penalty_weight))
        se = float(np.std(reps, ddof=1))

    return OracleResult(
        method="regression_on_summaries",
        evsi=evsi_val,
        standard_error=se,
        n_outer=psa.n_draws,
        wall_time=time.perf_counter() - start,
    )
