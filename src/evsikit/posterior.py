"""Posterior updaters for future datasets: conjugate closed forms, a
quadrature recipe, and a self-contained random-walk Metropolis sampler.

Every recipe the estimator runs gives each dataset's posterior as a weighted
quadrature rule: `nodes_and_weights(dataset, stage)` returns the recipe's
parameter columns at the nodes and the nodes' weights, each (datasets,
nodes), with `nodes` points per coordinate.  A conjugate recipe takes Naylor
& Smith's (Applied Statistics 1982) adaptive Gauss-Hermite rule on its exact
posterior, in the frame where that posterior is near normal: the logit of a
Beta, the log of a Gamma, a Normal as it is.  The rule is centred at the
frame's mode and scaled by its curvature there, and each node is weighted by
exp(log density - Laplace log density).  The ades two-arm trial, whose
posterior has no closed form, supplies its own rule to `QuadratureUpdate`.

Conjugate recipes also read the dataset's sufficient statistic in closed
form: a count for binomial data and, for normal or exponential observations,
the total of the n observations, with n fixed by the design.  Their `draw`
methods return exact-posterior draws; the estimator no longer calls them.

The Metropolis sampler, which no registered design runs, takes many chains
at once, one chain per dataset, with per-chain randomness pre-derived from
chain-index streams so results do not depend on batching.  The proposal is a
componentwise Gaussian random walk whose global scale adapts toward 0.3
acceptance during burn-in and is frozen afterwards.

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
from scipy.special import expit, log_expit

from .rng import Family, SeedSpec
from .util import ComputationError, hermite_nodes

_ADAPT_WINDOW = 50
_ACCEPT_TARGET = 0.3
_ACCEPT_BAND = (0.1, 0.6)

# nodes per coordinate of every quadrature recipe the designs build: 24 put
# the ades sigma2 within about 2e-5 (study1, study2) and 5e-4 (the two-arm
# trial's 24 x 24 rule) of a far finer rule
RULE_NODES = 24


def _columns(*values):
    """The values broadcast against each other, as (rows, 1) float columns."""
    values = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))
    return [v.reshape(-1, 1) for v in values]


def _adaptive_rule(mode, scale, log_density, k: int):
    """A k-node Gauss-Hermite rule per row of the (rows, 1) columns `mode`
    and `scale`: the nodes y = mode + scale z, (rows, k), and their weights,
    each node's Gauss-Hermite weight times exp(log_density(y) - Laplace log
    density), the Laplace log density being log_density(mode) - z^2 / 2.
    A row's weights are scaled so that the largest is 1."""
    u, w = hermite_nodes(k)
    z = np.sqrt(2.0) * u
    y = mode + scale * z
    lw = log_density(y) + np.log(w) + 0.5 * z * z
    return y, np.exp(lw - lw.max(axis=1, keepdims=True))


def _beta_rule(a, b, k: int):
    """(p, weights) of a k-node rule for Beta(a, b) per row, in the logit
    frame y, where the log density is a log_expit(y) + b log_expit(-y): the
    mode is log(a / b), and the curvature there ab / (a + b)."""
    a, b = _columns(a, b)
    y, weights = _adaptive_rule(np.log(a / b), np.sqrt((a + b) / (a * b)),
                                lambda y: a * log_expit(y) + b * log_expit(-y), k)
    return expit(y), weights


def _gamma_rule(shape, rate, k: int):
    """(x, weights) of a k-node rule for Gamma(shape, rate) per row, in the
    log frame y, where the log density is shape y - rate exp(y): the mode is
    log(shape / rate), and the curvature there is shape."""
    shape, rate = _columns(shape, rate)
    y, weights = _adaptive_rule(np.log(shape / rate), 1.0 / np.sqrt(shape),
                                lambda y: shape * y - rate * np.exp(y), k)
    return np.exp(y), weights


def _normal_rule(mean, var, k: int):
    """(x, weights) of the plain k-node Gauss-Hermite rule for
    Normal(mean, var) per row."""
    mean, var = _columns(mean, var)
    u, w = hermite_nodes(k)
    x = mean + np.sqrt(2.0 * var) * u
    return x, np.broadcast_to(w, x.shape)


@dataclass(frozen=True)
class BetaBinomialUpdate:
    """Beta(alpha, beta) prior + Binomial(n, p) count data -> Beta posterior."""

    param: str
    alpha: float
    beta: float
    trials: int
    count_key: str
    nodes: int = RULE_NODES

    def posterior_params(self, dataset):
        x = np.asarray(dataset[self.count_key], dtype=float)
        return self.alpha + x, self.beta + self.trials - x

    def nodes_and_weights(self, dataset, stage: str):
        p, weights = _beta_rule(*self.posterior_params(dataset), self.nodes)
        return {self.param: p}, weights

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
    nodes: int = RULE_NODES

    def posterior_params(self, dataset):
        total = np.asarray(dataset[self.total_key], dtype=float)
        prec = 1.0 / self.prior_var + self.n / self.obs_var
        mean = (self.prior_mean / self.prior_var + total / self.obs_var) / prec
        return mean, 1.0 / prec

    def nodes_and_weights(self, dataset, stage: str):
        x, weights = _normal_rule(*self.posterior_params(dataset), self.nodes)
        return {self.param: x}, weights

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
    nodes: int = RULE_NODES

    def posterior_params(self, dataset):
        total = np.asarray(dataset[self.total_key], dtype=float)
        return self.shape + self.n, self.rate + total

    def nodes_and_weights(self, dataset, stage: str):
        x, weights = _gamma_rule(*self.posterior_params(dataset), self.nodes)
        return {self.param: x}, weights

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
    nodes: int = RULE_NODES

    def nodes_and_weights(self, dataset, stage: str):
        """The rule of the prior's family, the same for every dataset; a
        uniform prior is lo + (hi - lo) Beta(1, 1)."""
        rows = len(next(iter(dataset.values())))
        family, (p0, p1) = self.prior.family, self.prior.params
        if family is Family.UNIFORM:
            u, weights = _beta_rule(np.ones(rows), 1.0, self.nodes)
            x = p0 + (p1 - p0) * u
        else:
            rule = {Family.BETA: _beta_rule, Family.GAMMA: _gamma_rule,
                    Family.NORMAL: _normal_rule}[family]
            x, weights = rule(np.full(rows, p0), p1, self.nodes)
        return {self.param: x}, weights

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        k = len(next(iter(dataset.values())))
        return {self.param: self.prior.sample_with(gen, k * M).reshape(k, M)}


@dataclass(frozen=True)
class QuadratureUpdate:
    """Generic recipe: a weighted quadrature rule over each dataset's posterior.

    `rule(dataset, k, stage)` returns the model columns at the rule's nodes
    and the nodes' weights, each (n, K) for n dataset rows, with k nodes per
    coordinate; the weights need not sum to 1.  A failed rule raises
    `ComputationError(stage)`.
    """

    rule: Callable
    nodes: int

    def nodes_and_weights(self, dataset, stage: str):
        return self.rule(dataset, self.nodes, stage)


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
    block_size: int | None = None,
    *,
    seeds: Sequence[SeedSpec] | None = None,
):
    """Run `n_chains` independent random-walk chains, one per dataset row.

    Returns (draws, info) where draws is (n_chains, n_keep, d) and info
    holds per-chain acceptance rates and split-half variance ratios.  Chain
    i draws from its own stream, `seed.derive(i)`, or `seeds[i]` when an
    explicit per-chain seed list is given instead, so results do not depend
    on how the ensemble is split into processing blocks or which chains
    share it.
    """
    if (seed is None) == (seeds is None):
        raise ValueError("give exactly one of seed and seeds")
    if seeds is None:
        seeds = [seed.derive(i) for i in range(n_chains)]
    elif len(seeds) != n_chains:
        raise ValueError(f"{len(seeds)} seeds for {n_chains} chains")
    # the draws feed the split-half variance ratio, which needs 2 per half
    if n_keep < 4:
        raise ValueError(f"n_keep must be at least 4, got {n_keep}")
    d = init.shape[0]
    steps = burn_in + n_keep
    # a block pre-draws at most 6e6 numbers (48 MB) of noise
    block = block_size or max(1, min(n_chains, int(6e6 // (steps * (d + 1) + 1))))

    draws = np.empty((n_chains, n_keep, d))
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
                draws[lo:hi, t - burn_in, :] = cur

        accept_rates[lo:hi] = accepted / n_keep

    info = {"acceptance_rate": accept_rates,
            "split_variance_ratio": _split_variance_ratio(draws)}
    bad = (accept_rates < _ACCEPT_BAND[0]) | (accept_rates > _ACCEPT_BAND[1])
    if np.any(bad):
        warnings.warn(
            f"metropolis acceptance rate outside {_ACCEPT_BAND} for "
            f"{int(bad.sum())} chain(s)",
            stacklevel=2,
        )
    return draws, info
