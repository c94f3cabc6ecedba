"""Posterior updaters for future datasets, one recipe per likelihood, and a
self-contained random-walk Metropolis sampler.

Every recipe the estimator runs gives each dataset's posterior as a weighted
quadrature rule: `nodes_and_weights(dataset, stage)` returns the recipe's
parameter columns at the nodes and the nodes' weights, each (datasets,
nodes), with `nodes` points per coordinate.  It is Naylor & Smith's (Applied
Statistics 1982) adaptive Gauss-Hermite rule, centred at the posterior mode
and scaled by the curvature there, in a frame where the posterior is near
normal: the logit of a Beta, the log of a Gamma, a Normal as it is, and
(logit Pc, log OR) for the two-arm trial, whose posterior has no closed
form.  Each node is weighted by exp(log density - Laplace log density).

A recipe also holds its likelihood's data contract, so the likelihood is
written once: `simulate(cols, seed)` draws each dataset's sufficient
statistic from one generator, `summarize` gives the summaries named by
`summary_names`, `informed_params` names the parameters the data are drawn
from, and `exact_means` gives {informed parameter: posterior means}.  A
dataset holds a count under `x` for binomial data, the two arms' counts
under `dc` and `dt` for the two-arm trial and, for n normal or exponential
observations, their total under `obs_total`, drawn from its exact law and
summarised by their mean.  The conjugate `draw` methods
return exact-posterior draws; the estimator no longer calls them.

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
from scipy.special import expit, log_expit, logit

from .rng import Family, SeedSpec
from .util import ComputationError, ConfigError, hermite_nodes

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


class _Count:
    """Data of one Binomial(n, ·) count per dataset under `x`, summarised as
    itself; the data inform `param`."""

    summary_names = ("x",)
    is_discrete_data = True

    @property
    def informed_params(self) -> tuple[str, ...]:
        return (self.param,)

    def summarize(self, dataset) -> np.ndarray:
        return dataset["x"][:, None]


class _Total:
    """Data of n observations of `param` per dataset, held as their total
    under `obs_total` and summarised by their mean."""

    summary_names = ("mean_obs",)
    is_discrete_data = False

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"mean_obs needs a sample size of at least 1, got {self.n}")

    @property
    def informed_params(self) -> tuple[str, ...]:
        return (self.param,)

    def summarize(self, dataset) -> np.ndarray:
        return (dataset["obs_total"] / self.n)[:, None]


@dataclass(frozen=True)
class BetaBinomialUpdate(_Count):
    """Beta(alpha, beta) prior + a Binomial(n, p) count -> Beta posterior."""

    param: str
    alpha: float
    beta: float
    n: int
    nodes: int = RULE_NODES

    def simulate(self, cols, seed: SeedSpec) -> dict:
        return {"x": seed.generator().binomial(self.n, cols[self.param]).astype(float)}

    def posterior_params(self, dataset):
        x = np.asarray(dataset["x"], dtype=float)
        return self.alpha + x, self.beta + self.n - x

    def nodes_and_weights(self, dataset, stage: str):
        p, weights = _beta_rule(*self.posterior_params(dataset), self.nodes)
        return {self.param: p}, weights

    def exact_means(self, dataset) -> dict[str, np.ndarray]:
        a, b = self.posterior_params(dataset)
        return {self.param: a / (a + b)}

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        a, b = self.posterior_params(dataset)
        return {self.param: gen.beta(a[..., None], b[..., None], a.shape + (M,))}


@dataclass(frozen=True)
class NormalNormalUpdate(_Total):
    """Normal prior with known observation variance + the total of n
    observations -> Normal posterior."""

    param: str
    prior_mean: float
    prior_var: float
    obs_var: float
    n: int
    nodes: int = RULE_NODES

    def simulate(self, cols, seed: SeedSpec) -> dict:
        # the total of n Normal(param, obs_var) observations is
        # Normal(n param, n obs_var)
        mean = self.n * np.asarray(cols[self.param], dtype=float)
        return {"obs_total": seed.generator().normal(mean, np.sqrt(self.n * self.obs_var))}

    def posterior_params(self, dataset):
        total = np.asarray(dataset["obs_total"], dtype=float)
        prec = 1.0 / self.prior_var + self.n / self.obs_var
        mean = (self.prior_mean / self.prior_var + total / self.obs_var) / prec
        return mean, 1.0 / prec

    def nodes_and_weights(self, dataset, stage: str):
        x, weights = _normal_rule(*self.posterior_params(dataset), self.nodes)
        return {self.param: x}, weights

    def exact_means(self, dataset) -> dict[str, np.ndarray]:
        mean, _ = self.posterior_params(dataset)
        return {self.param: np.atleast_1d(mean)}

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        mean, var = self.posterior_params(dataset)
        mean = np.atleast_1d(mean)
        z = gen.standard_normal(mean.shape + (M,))
        return {self.param: mean[..., None] + np.sqrt(var) * z}


@dataclass(frozen=True)
class GammaExponentialUpdate(_Total):
    """Gamma(shape, rate) prior + the total of n exponential observations
    -> Gamma posterior."""

    param: str
    shape: float
    rate: float
    n: int
    nodes: int = RULE_NODES

    def simulate(self, cols, seed: SeedSpec) -> dict:
        # the total of n Exponential(rate) observations is Gamma(n, rate)
        rate = np.asarray(cols[self.param], dtype=float)
        return {"obs_total": seed.generator().gamma(self.n, 1.0, rate.shape) / rate}

    def posterior_params(self, dataset):
        total = np.asarray(dataset["obs_total"], dtype=float)
        return self.shape + self.n, self.rate + total

    def nodes_and_weights(self, dataset, stage: str):
        x, weights = _gamma_rule(*self.posterior_params(dataset), self.nodes)
        return {self.param: x}, weights

    def exact_means(self, dataset) -> dict[str, np.ndarray]:
        a, b = self.posterior_params(dataset)
        return {self.param: np.atleast_1d(a / b)}

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        a, b = self.posterior_params(dataset)
        b = np.atleast_1d(b)
        return {self.param: gen.gamma(a, 1.0, b.shape + (M,)) / b[..., None]}


@dataclass(frozen=True)
class NullUpdate(_Count):
    """Binomial(n, 1/2) counts that carry no information; the posterior is
    the prior of `param` itself."""

    param: str
    prior: object
    n: int
    nodes: int = RULE_NODES

    def simulate(self, cols, seed: SeedSpec) -> dict:
        rows = len(next(iter(cols.values())))
        return {"x": seed.generator().binomial(self.n, 0.5, rows).astype(float)}

    def posterior_params(self, dataset):
        rows = len(next(iter(dataset.values())))
        return tuple(np.full(rows, p) for p in self.prior.params)

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

    def exact_means(self, dataset) -> dict[str, np.ndarray]:
        return {self.param: np.full(len(next(iter(dataset.values()))), self.prior.mean())}

    def draw(self, dataset, M, gen) -> dict[str, np.ndarray]:
        k = len(next(iter(dataset.values())))
        return {self.param: self.prior.sample_with(gen, k * M).reshape(k, M)}


# The two-arm trial's rule: 12 nodes a side for the nested oracle's inner
# means, taken in blocks of distinct datasets, and the Newton search for each
# posterior mode.
_NESTED_NODES = 12
_TWO_ARM_BLOCK = 4096
_NEWTON_STEPS = 50
_NEWTON_HALVINGS = 40
# below this squared Newton decrement (about the squared distance to the mode
# in posterior standard deviations) a full step is taken without a line
# search, whose comparison of log densities would be lost in their rounding
_NEWTON_FULL_STEP = 1e-8
_NEWTON_TOL = 1e-14


@dataclass(frozen=True)
class TwoArmTrialUpdate:
    """Beta(a_pc, b_pc) prior on Pc, Normal(or_mean, 1 / or_prec) prior on the
    log odds ratio + dc and dt events out of n per arm -> the posterior of
    x = (logit Pc, log OR), with Pc = expit(x0) and Pt = expit(x0 + x1).

    The posterior has no closed form.  Its log density is concave, so Newton
    steps reach its mode, and it is near normal there: the adaptive rule,
    centred at the mode and scaled by the inverse Hessian, takes its means to
    1e-7 with 12 x 12 nodes; with 24 x 24 nodes the estimator's sigma2 is
    within about 5e-4 of an 80 x 80 rule.  A dataset holds the counts under
    `dc` and `dt`, drawn from Pc and Pt; the parameter columns are `Pc`,
    `log_or` and `Pt`.
    """

    n: int
    a_pc: float
    b_pc: float
    or_mean: float
    or_prec: float
    nodes: int = RULE_NODES

    summary_names = ("dc", "dt")
    informed_params = ("Pc", "Pt")
    is_discrete_data = True

    def simulate(self, cols, seed: SeedSpec) -> dict:
        gen = seed.generator()
        return {"dc": gen.binomial(self.n, cols["Pc"]).astype(float),
                "dt": gen.binomial(self.n, cols["Pt"]).astype(float)}

    def summarize(self, dataset) -> np.ndarray:
        return np.column_stack([dataset["dc"], dataset["dt"]])

    def log_density(self, x0, x1, dc, dt):
        # log_expit(-x) = log_expit(x) - x folds each arm's failure terms
        # into its success term
        n = self.n
        xt = x0 + x1
        lp = (self.a_pc + self.b_pc + n) * log_expit(x0) - (self.b_pc + n - dc) * x0
        lp += n * log_expit(xt) - (n - dt) * xt
        lp -= 0.5 * self.or_prec * (x1 - self.or_mean) ** 2
        return lp

    def derivatives(self, x0, x1, dc, dt):
        """The gradient (g0, g1) and Hessian (h00, h01, h11) of `log_density`."""
        total = self.a_pc + self.b_pc + self.n
        xt = x0 + x1
        pc, pt = expit(x0), expit(xt)
        resid_t = dt - self.n * pt
        curv_c = total * pc * expit(-x0)
        curv_t = self.n * pt * expit(-xt)
        g0 = self.a_pc + dc - total * pc + resid_t
        g1 = resid_t - self.or_prec * (x1 - self.or_mean)
        return g0, g1, -(curv_c + curv_t), -curv_t, -(curv_t + self.or_prec)

    def mode(self, dc, dt, rows, stage):
        """Each dataset's posterior mode, by Newton steps from the empirical
        logits, halved until the density does not fall.

        A dataset converges on its own, so its mode does not depend on the
        others.  A failure raises `ComputationError(stage)` naming the
        dataset's index in `rows`.
        """
        n = self.n
        x0 = logit((self.a_pc + dc) / (self.a_pc + self.b_pc + n))
        x1 = logit((dt + 0.5) / (n + 1.0)) - x0
        active = np.arange(len(dc))
        for _ in range(_NEWTON_STEPS):
            if active.size == 0:
                return x0, x1
            a0, a1, c, t = x0[active], x1[active], dc[active], dt[active]
            g0, g1, h00, h01, h11 = self.derivatives(a0, a1, c, t)
            det = h00 * h11 - h01 * h01
            d0 = (h01 * g1 - h11 * g0) / det
            d1 = (h01 * g0 - h00 * g1) / det
            decrement = g0 * d0 + g1 * d1
            bad = ~np.isfinite(decrement)
            if np.any(bad):
                raise ComputationError(
                    stage, f"non-finite Newton step to the two-arm posterior mode of "
                    f"dataset {rows[active[bad][0]]}")
            new0, new1 = a0 + d0, a1 + d1
            lp = self.log_density(a0, a1, c, t)
            short = np.flatnonzero((decrement >= _NEWTON_FULL_STEP)
                                   & ~(self.log_density(new0, new1, c, t) >= lp))
            step = 1.0
            for _ in range(_NEWTON_HALVINGS):
                if short.size == 0:
                    break
                step *= 0.5
                new0[short] = a0[short] + step * d0[short]
                new1[short] = a1[short] + step * d1[short]
                rises = self.log_density(new0[short], new1[short], c[short], t[short]) >= lp[short]
                short = short[~rises]
            x0[active], x1[active] = new0, new1
            active = active[decrement >= _NEWTON_TOL]
        if active.size:
            raise ComputationError(
                stage, f"Newton steps to the two-arm posterior mode did not converge in "
                f"{_NEWTON_STEPS} steps for dataset {rows[active[0]]}")
        return x0, x1

    def rule(self, dc, dt, rows, k, stage):
        """(x0, x1, weights), each (datasets, k * k): a k x k Gauss-Hermite
        rule in the frame of the mode and the Cholesky factor of the inverse
        negative Hessian, each node weighted by exp(log density - Laplace log
        density).  A dataset's weights are scaled so that the largest is 1,
        not normalised, so that `means` can keep dividing by their sum after
        summing, and with it the rounding of the nested oracle's outputs."""
        x0, x1 = self.mode(dc, dt, rows, stage)
        _, _, h00, h01, h11 = self.derivatives(x0, x1, dc, dt)
        det = h00 * h11 - h01 * h01
        l00 = np.sqrt(-h11 / det)
        l10 = (h01 / det) / l00
        l11 = np.sqrt(-h00 / det - l10 * l10)
        u, w = hermite_nodes(k)
        z0, z1 = (np.sqrt(2.0) * v.ravel() for v in np.meshgrid(u, u, indexing="ij"))
        log_w = np.log(np.outer(w, w).ravel()) + 0.5 * (z0 * z0 + z1 * z1)
        p0 = x0[:, None] + l00[:, None] * z0
        p1 = x1[:, None] + l10[:, None] * z0 + l11[:, None] * z1
        lw = self.log_density(p0, p1, dc[:, None], dt[:, None]) + log_w
        return p0, p1, np.exp(lw - lw.max(axis=1, keepdims=True))

    def means(self, dc, dt, rows, k=_NESTED_NODES):
        """E[Pc] and E[Pt] per dataset by the k x k `rule`."""
        p0, p1, weights = self.rule(dc, dt, rows, k, "nested")
        total = weights.sum(axis=1)
        return ((weights * expit(p0)).sum(axis=1) / total,
                (weights * expit(p0 + p1)).sum(axis=1) / total)

    def nodes_and_weights(self, dataset, stage: str):
        dc, dt = dataset["dc"], dataset["dt"]
        x0, x1, weights = self.rule(dc, dt, np.arange(len(dc)), self.nodes, stage)
        # the derived Pt is handed in for the fit on (Pc, Pt); the net
        # benefit recomputes it from Pc and log_or
        return {"Pc": expit(x0), "log_or": x1, "Pt": expit(x0 + x1)}, weights

    def exact_means(self, dataset) -> dict[str, np.ndarray]:
        """E[Pc] and E[Pt] per dataset, by one `means` per distinct (dc, dt)
        pair, in blocks of _TWO_ARM_BLOCK pairs; the complex keys sort by
        dc, then dt."""
        dc = np.asarray(dataset["dc"], dtype=float)
        dt = np.asarray(dataset["dt"], dtype=float)
        keys, first, inverse = np.unique(dc + 1j * dt, return_index=True, return_inverse=True)
        e_pc, e_pt = np.empty(len(keys)), np.empty(len(keys))
        for lo in range(0, len(keys), _TWO_ARM_BLOCK):
            block = slice(lo, lo + _TWO_ARM_BLOCK)
            e_pc[block], e_pt[block] = self.means(keys[block].real, keys[block].imag,
                                                  first[block])
        return {"Pc": e_pc[inverse], "Pt": e_pt[inverse]}


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
