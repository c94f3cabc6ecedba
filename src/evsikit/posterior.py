"""Posterior updaters for future datasets: conjugate closed forms and a
self-contained random-walk Metropolis sampler.

Conjugate recipes return exact-posterior draws (burn-in is ignored).  They
read the dataset's sufficient statistic: a count for binomial data and, for
normal or exponential observations, the total of the n observations, with n
fixed by the design.

The Metropolis sampler runs many chains at once, one chain per dataset, with
per-chain randomness pre-derived from chain-index streams so results do not
depend on batching.  The proposal is a componentwise Gaussian random walk
whose global scale adapts toward 0.3 acceptance during burn-in and is frozen
afterwards.

Step kernel.  Each block of chains draws its standard normals and log
uniforms for every step up front.  A step then makes one vectorised pass
over the block: the proposal is written into one reused buffer as
noise * step + cur, where step = scales * exp(log_mult) is recomputed only
when an adaptation window moves log_mult; the log density is evaluated at
all proposals against the block's datasets (selected by a slice, so the
lookup is a view); and accepted proposals and their densities are copied
into the current state in place, so no step allocates a proposal or state
array.  The rounding order of the proposal is fixed (noise times step, plus
cur), and tests keep a straightforward version of the loop as a reference
that the kernel must match bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import SeedSpec
from .util import ComputationError

_ADAPT_WINDOW = 50
_ACCEPT_TARGET = 0.3
_ACCEPT_BAND = (0.1, 0.6)


@dataclass(frozen=True)
class BetaBinomialUpdate:
    """Beta(alpha, beta) prior + Binomial(n, p) count data -> Beta posterior."""

    param: str
    alpha: float
    beta: float
    trials: int
    count_key: str

    def posterior_params(self, dataset):
        x = np.asarray(dataset[self.count_key], dtype=float)
        return self.alpha + x, self.beta + self.trials - x

    def exact_means(self, dataset) -> np.ndarray:
        a, b = self.posterior_params(dataset)
        return a / (a + b)

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        a, b = self.posterior_params(dataset)
        return {self.param: gen.beta(a[..., None], b[..., None], a.shape + (M,))}


@dataclass(frozen=True)
class NormalNormalUpdate:
    """Normal prior with known observation variance + the total of n
    observations -> Normal posterior."""

    param: str
    prior_mean: float
    prior_var: float
    obs_var: float
    n: int
    total_key: str

    def posterior_params(self, dataset):
        total = np.asarray(dataset[self.total_key], dtype=float)
        prec = 1.0 / self.prior_var + self.n / self.obs_var
        mean = (self.prior_mean / self.prior_var + total / self.obs_var) / prec
        return mean, 1.0 / prec

    def exact_means(self, dataset) -> np.ndarray:
        mean, _ = self.posterior_params(dataset)
        return np.atleast_1d(mean)

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        mean, var = self.posterior_params(dataset)
        mean = np.atleast_1d(mean)
        z = gen.standard_normal(mean.shape + (M,))
        return {self.param: mean[..., None] + np.sqrt(var) * z}


@dataclass(frozen=True)
class GammaExponentialUpdate:
    """Gamma(shape, rate) prior + the total of n exponential observations
    -> Gamma posterior."""

    param: str
    shape: float
    rate: float
    n: int
    total_key: str

    def posterior_params(self, dataset):
        total = np.asarray(dataset[self.total_key], dtype=float)
        return self.shape + self.n, self.rate + total

    def exact_means(self, dataset) -> np.ndarray:
        a, b = self.posterior_params(dataset)
        return np.atleast_1d(a / b)

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        a, b = self.posterior_params(dataset)
        b = np.atleast_1d(b)
        return {self.param: gen.gamma(a, 1.0, b.shape + (M,)) / b[..., None]}


@dataclass(frozen=True)
class NullUpdate:
    """Data carry no information; the posterior is the prior itself."""

    param: str
    prior: object

    def exact_means(self, dataset) -> np.ndarray:
        k = len(next(iter(dataset.values())))
        return np.full(k, self.prior.mean())

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        k = len(next(iter(dataset.values())))
        return {self.param: self.prior.sample_with(gen, k * M).reshape(k, M)}


@dataclass(frozen=True)
class MetropolisUpdate:
    """Generic recipe: a log-posterior factory over chain coordinates.

    `log_posterior(states, dataset, idx)` evaluates (n,) log densities for
    states of shape (n, d) against the datasets selected by `idx`, a slice
    of dataset rows.
    `transform` maps retained chain draws (K, M, d) to model columns.
    """

    params: tuple[str, ...]
    log_posterior: Callable
    init: tuple[float, ...]
    base_scales: tuple[float, ...]
    transform: Callable[[np.ndarray], dict[str, np.ndarray]]

    def draw(self, dataset, M, burn_in=1000, seed=None, *, seeds=None):
        """(model columns of the retained draws, ensemble info), one chain per dataset row."""
        chains, info = metropolis_ensemble(
            lambda states, idx: self.log_posterior(states, dataset, idx),
            n_chains=len(next(iter(dataset.values()))),
            init=np.asarray(self.init, dtype=float),
            scales=np.asarray(self.base_scales, dtype=float),
            n_keep=M,
            burn_in=burn_in,
            seed=seed,
            seeds=seeds,
        )
        return self.transform(chains), info


def _split_variance_ratio(draws: np.ndarray) -> np.ndarray:
    """Per chain of (n_chains, n_keep, d) draws, the largest over coordinates
    of max(r, 1/r), r being the first half's variance over the second half's:
    near 1 for a settled chain, large when either half is much wider."""
    half = draws.shape[1] // 2
    v1 = draws[:, :half, :].var(axis=1, ddof=1)
    v2 = draws[:, half:, :].var(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(v2 > 0, v1 / v2, np.inf)
        return np.maximum(ratio, 1.0 / ratio).max(axis=1)


def metropolis_ensemble(
    logpost: Callable,
    n_chains: int,
    init: np.ndarray,
    scales: np.ndarray,
    n_keep: int,
    burn_in: int,
    seed: SeedSpec | None = None,
    stat_fn: Callable | None = None,
    block_size: int | None = None,
    *,
    seeds: Sequence[SeedSpec] | None = None,
):
    """Run `n_chains` independent random-walk chains, one per dataset row.

    Returns (draws, info) where draws is (n_chains, n_keep, d), or, when
    `stat_fn` is given, the per-chain post-burn-in means of stat_fn(states)
    with nothing retained (constant memory for large ensembles).  info holds
    per-chain acceptance rates and split-half variance ratios.  Chain i draws
    from its own stream, `seed.derive(i)`, or `seeds[i]` when an explicit
    per-chain seed list is given instead, so results do not depend on how
    the ensemble is split into processing blocks or which chains share it.
    """
    if (seed is None) == (seeds is None):
        raise ValueError("give exactly one of seed and seeds")
    if seeds is None:
        seeds = [seed.derive(i) for i in range(n_chains)]
    elif len(seeds) != n_chains:
        raise ValueError(f"{len(seeds)} seeds for {n_chains} chains")
    keep = stat_fn is None
    # kept draws feed the split-half variance ratio, which needs 2 per half
    min_keep = 4 if keep else 1
    if n_keep < min_keep:
        raise ValueError(f"n_keep must be at least {min_keep}"
                         f"{' when draws are kept' if keep else ''}, got {n_keep}")
    d = init.shape[0]
    steps = burn_in + n_keep
    block = block_size or max(1, min(n_chains, int(3e7 // (steps * (d + 1) + 1))))

    draws = np.empty((n_chains, n_keep, d)) if keep else None
    stat_sums = None
    accept_rates = np.empty(n_chains)

    for lo in range(0, n_chains, block):
        hi = min(lo + block, n_chains)
        nb = hi - lo
        normals = np.empty((nb, steps, d))
        logu = np.empty((nb, steps))
        for i in range(nb):
            gen = seeds[lo + i].generator()
            normals[i] = gen.standard_normal((steps, d))
            logu[i] = np.log(gen.random(steps))

        cur = np.tile(init, (nb, 1))
        idx = slice(lo, hi)
        # a copy, since accepted densities are written into it in place
        lp = np.array(logpost(cur, idx), dtype=float)
        if not np.all(np.isfinite(lp)):
            raise ComputationError("metropolis", "nonfinite log-density at the initial state")

        log_mult = np.zeros(nb)
        step = scales * np.exp(log_mult)[:, None]
        prop = np.empty_like(cur)
        window_acc = np.zeros(nb)
        accepted = np.zeros(nb)

        for t in range(steps):
            np.multiply(normals[:, t, :], step, out=prop)
            prop += cur
            lp_prop = logpost(prop, idx)
            if np.any(np.isnan(lp_prop)):
                raise ComputationError("metropolis", "log-density returned NaN")
            acc = (lp_prop - lp) > logu[:, t]
            np.copyto(cur, prop, where=acc[:, None])
            np.copyto(lp, lp_prop, where=acc)
            if t < burn_in:
                window_acc += acc
                if (t + 1) % _ADAPT_WINDOW == 0:
                    rate = window_acc / _ADAPT_WINDOW
                    log_mult = np.clip(log_mult + 0.5 * (rate - _ACCEPT_TARGET), -6.0, 6.0)
                    step = scales * np.exp(log_mult)[:, None]
                    window_acc[:] = 0.0
            else:
                accepted += acc
                k = t - burn_in
                if keep:
                    draws[lo:hi, k, :] = cur
                else:
                    s = stat_fn(cur)
                    if stat_sums is None:
                        stat_sums = np.zeros((n_chains, s.shape[1]))
                    stat_sums[lo:hi] += s

        accept_rates[lo:hi] = accepted / n_keep

    info = {"acceptance_rate": accept_rates}
    if keep:
        info["split_variance_ratio"] = _split_variance_ratio(draws)
    bad = (accept_rates < _ACCEPT_BAND[0]) | (accept_rates > _ACCEPT_BAND[1])
    if np.any(bad):
        warnings.warn(
            f"metropolis acceptance rate outside {_ACCEPT_BAND} for "
            f"{int(bad.sum())} chain(s)",
            stacklevel=2,
        )
    if keep:
        return draws, info
    return stat_sums / n_keep, info
