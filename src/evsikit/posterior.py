"""Posterior updaters for future datasets: conjugate closed forms and a
self-contained random-walk Metropolis sampler.

Conjugate recipes return exact-posterior draws (burn-in is ignored).  The
Metropolis sampler runs many chains at once, one chain per dataset, with
per-chain randomness pre-derived from chain-index streams so results do not
depend on batching.  The proposal is a componentwise Gaussian random walk
whose global scale adapts toward 0.3 acceptance during burn-in and is frozen
afterwards.
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
    """Normal prior with known observation variance -> Normal posterior."""

    param: str
    prior_mean: float
    prior_var: float
    obs_var: float
    data_key: str

    def posterior_params(self, dataset):
        obs = np.asarray(dataset[self.data_key], dtype=float)
        n = obs.shape[-1]
        total = obs.sum(axis=-1)
        prec = 1.0 / self.prior_var + n / self.obs_var
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
    """Gamma(shape, rate) prior + exponential observations -> Gamma posterior."""

    param: str
    shape: float
    rate: float
    data_key: str

    def posterior_params(self, dataset):
        obs = np.asarray(dataset[self.data_key], dtype=float)
        return self.shape + obs.shape[-1], self.rate + obs.sum(axis=-1)

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
    states of shape (n, d) against the datasets selected by `idx`.
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
    d = init.shape[0]
    steps = burn_in + n_keep
    block = block_size or max(1, min(n_chains, int(3e7 // (steps * (d + 1) + 1))))

    keep = stat_fn is None
    draws = np.empty((n_chains, n_keep, d)) if keep else None
    stat_dim = None
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
        idx = np.arange(lo, hi)
        lp = logpost(cur, idx)
        if not np.all(np.isfinite(lp)):
            raise ComputationError("metropolis", "nonfinite log-density at the initial state")

        log_mult = np.zeros(nb)
        window_acc = np.zeros(nb)
        accepted = np.zeros(nb)

        for t in range(steps):
            prop = cur + normals[:, t, :] * (scales * np.exp(log_mult)[:, None])
            lp_prop = logpost(prop, idx)
            if np.any(np.isnan(lp_prop)):
                raise ComputationError("metropolis", "log-density returned NaN")
            acc = (lp_prop - lp) > logu[:, t]
            cur[acc] = prop[acc]
            lp = np.where(acc, lp_prop, lp)
            if t < burn_in:
                window_acc += acc
                if (t + 1) % _ADAPT_WINDOW == 0:
                    rate = window_acc / _ADAPT_WINDOW
                    log_mult = np.clip(log_mult + 0.5 * (rate - _ACCEPT_TARGET), -6.0, 6.0)
                    window_acc[:] = 0.0
            else:
                accepted += acc
                k = t - burn_in
                if keep:
                    draws[lo:hi, k, :] = cur
                else:
                    s = stat_fn(cur)
                    if stat_sums is None:
                        stat_dim = s.shape[1]
                        stat_sums = np.zeros((n_chains, stat_dim))
                    stat_sums[lo:hi] += s

        accept_rates[lo:hi] = accepted / n_keep

    info = {"acceptance_rate": accept_rates}
    if keep:
        half = n_keep // 2
        v1 = draws[:, :half, :].var(axis=1, ddof=1)
        v2 = draws[:, half:, :].var(axis=1, ddof=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(v2 > 0, v1 / v2, np.inf)
        info["split_variance_ratio"] = ratio.max(axis=1)
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
