"""Deterministic, stream-splittable random numbers and the distribution kit.

Every stochastic routine in the package draws from a stream identified by a
(master_seed, stream_id) pair.  Streams derived with :meth:`SeedSpec.derive`
are statistically independent and bit-reproducible regardless of execution
order, which is what makes chunk-parallel sampling and per-quadrature-point
posterior runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special, stats

from .util import gauss_hermite_expectation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """Identifier of one reproducible random stream.

    Distinct (master_seed, stream_id) pairs give independent streams; the
    same pair gives a bit-identical sequence on every run and thread layout.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed <= _MASK64):
            raise ValueError("master_seed must fit in 64 bits")
        if not (0 <= self.stream_id <= _MASK64):
            raise ValueError("stream_id must fit in 64 bits")

    def derive(self, index: int) -> "SeedSpec":
        """Child stream `index`; collision-free in practice via 64-bit mixing."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64((index + 1) & _MASK64))
        return SeedSpec(self.master_seed, mixed)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def as_dict(self) -> dict:
        return {"master_seed": self.master_seed, "stream_id": self.stream_id}


class Family(str, Enum):
    UNIFORM = "uniform"
    BETA = "beta"
    GAMMA = "gamma"
    NORMAL = "normal"
    EXPONENTIAL = "exponential"
    BINOMIAL = "binomial"
    LOGIT_NORMAL = "logit_normal"
    LOG_NORMAL = "log_normal"


_PARAM_COUNT = {f: 2 for f in Family}
_PARAM_COUNT[Family.EXPONENTIAL] = 1


@dataclass(frozen=True)
class DistSpec:
    """A validated distribution: family plus family-specific parameters.

    Parameter conventions:
      uniform(lo, hi), beta(alpha, beta), gamma(shape, rate),
      normal(mean, variance), exponential(rate), binomial(n, p),
      logit_normal(mean, variance) and log_normal(mean, variance) with the
      two moments referring to the underlying normal.
    """

    family: Family
    params: tuple

    def __init__(self, family, *params):
        object.__setattr__(self, "family", Family(family))
        object.__setattr__(self, "params", tuple(float(p) for p in params))
        self._validate()

    def _validate(self):
        f, p = self.family, self.params
        if len(p) != _PARAM_COUNT[f]:
            raise ValueError(f"{f.value} takes {_PARAM_COUNT[f]} parameters, got {len(p)}")
        if f is Family.UNIFORM and not p[0] < p[1]:
            raise ValueError("uniform requires lo < hi")
        if f is Family.BETA and not (p[0] > 0 and p[1] > 0):
            raise ValueError("beta requires alpha > 0 and beta > 0")
        if f is Family.GAMMA and not (p[0] > 0 and p[1] > 0):
            raise ValueError("gamma requires shape > 0 and rate > 0")
        if f in (Family.NORMAL, Family.LOGIT_NORMAL, Family.LOG_NORMAL) and not p[1] > 0:
            raise ValueError(f"{f.value} requires variance > 0")
        if f is Family.EXPONENTIAL and not p[0] > 0:
            raise ValueError("exponential requires rate > 0")
        if f is Family.BINOMIAL:
            n, prob = p
            if n < 0 or n != int(n):
                raise ValueError("binomial requires integer n >= 0")
            if not 0.0 <= prob <= 1.0:
                raise ValueError("binomial requires 0 <= p <= 1")

    # -- sampling ---------------------------------------------------------

    def sample_with(self, gen: np.random.Generator, n: int) -> np.ndarray:
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return gen.uniform(p[0], p[1], n)
        if f is Family.BETA:
            return gen.beta(p[0], p[1], n)
        if f is Family.GAMMA:
            return gen.gamma(p[0], 1.0 / p[1], n)
        if f is Family.NORMAL:
            return gen.normal(p[0], np.sqrt(p[1]), n)
        if f is Family.EXPONENTIAL:
            return gen.exponential(1.0 / p[0], n)
        if f is Family.BINOMIAL:
            return gen.binomial(int(p[0]), p[1], n).astype(float)
        if f is Family.LOGIT_NORMAL:
            return special.expit(gen.normal(p[0], np.sqrt(p[1]), n))
        if f is Family.LOG_NORMAL:
            return gen.lognormal(p[0], np.sqrt(p[1]), n)
        raise AssertionError(f)

    # -- analytic structure -------------------------------------------------

    def _frozen(self):
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return stats.uniform(p[0], p[1] - p[0])
        if f is Family.BETA:
            return stats.beta(p[0], p[1])
        if f is Family.GAMMA:
            return stats.gamma(p[0], scale=1.0 / p[1])
        if f is Family.NORMAL:
            return stats.norm(p[0], np.sqrt(p[1]))
        if f is Family.EXPONENTIAL:
            return stats.expon(scale=1.0 / p[0])
        if f is Family.BINOMIAL:
            return stats.binom(int(p[0]), p[1])
        if f is Family.LOG_NORMAL:
            return stats.lognorm(np.sqrt(p[1]), scale=np.exp(p[0]))
        raise AssertionError(f)

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile requires 0 < p < 1")
        if self.family is Family.LOGIT_NORMAL:
            m, v = self.params
            return float(special.expit(stats.norm.ppf(p, m, np.sqrt(v))))
        return float(self._frozen().ppf(p))

    def cdf(self, x) -> float:
        if self.family is Family.LOGIT_NORMAL:
            m, v = self.params
            return float(stats.norm.cdf(special.logit(x), m, np.sqrt(v)))
        return float(self._frozen().cdf(x))

    def mean(self) -> float:
        if self.family is Family.LOGIT_NORMAL:
            m, v = self.params
            return float(gauss_hermite_expectation(special.expit, m, v))
        return float(self._frozen().mean())

    def variance(self) -> float:
        if self.family is Family.LOGIT_NORMAL:
            m, v = self.params
            mu = self.mean()
            second = float(gauss_hermite_expectation(lambda z: special.expit(z) ** 2, m, v))
            return second - mu * mu
        return float(self._frozen().var())

    def support(self) -> tuple[float, float]:
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return p[0], p[1]
        if f in (Family.BETA, Family.LOGIT_NORMAL):
            return 0.0, 1.0
        if f in (Family.GAMMA, Family.EXPONENTIAL, Family.LOG_NORMAL):
            return 0.0, np.inf
        if f is Family.BINOMIAL:
            return 0.0, p[0]
        return -np.inf, np.inf

    @property
    def is_discrete(self) -> bool:
        return self.family is Family.BINOMIAL

    def as_dict(self) -> dict:
        return {"family": self.family.value, "params": list(self.params)}
