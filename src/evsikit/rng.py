"""Deterministic, stream-splittable random numbers and the prior families.

Every stochastic routine in the package draws from a stream identified by a
(master_seed, stream_id) pair.  Streams derived with :meth:`SeedSpec.derive`
are statistically independent and bit-reproducible regardless of execution
order, which is what makes chunked PSA sampling deterministic.  The
datasets of all the points of a quadrature plan are one batch from one stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

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


@dataclass(frozen=True)
class DistSpec:
    """A validated distribution: family plus two family-specific parameters.

    Parameter conventions:
      uniform(lo, hi), beta(alpha, beta), gamma(shape, rate),
      normal(mean, variance).
    """

    family: Family
    params: tuple

    def __init__(self, family, *params):
        object.__setattr__(self, "family", Family(family))
        object.__setattr__(self, "params", tuple(float(p) for p in params))
        self._validate()

    def _validate(self):
        f, p = self.family, self.params
        if len(p) != 2:
            raise ValueError(f"{f.value} takes 2 parameters, got {len(p)}")
        if f is Family.UNIFORM and not p[0] < p[1]:
            raise ValueError("uniform requires lo < hi")
        if f is Family.BETA and not (p[0] > 0 and p[1] > 0):
            raise ValueError("beta requires alpha > 0 and beta > 0")
        if f is Family.GAMMA and not (p[0] > 0 and p[1] > 0):
            raise ValueError("gamma requires shape > 0 and rate > 0")
        if f is Family.NORMAL and not p[1] > 0:
            raise ValueError("normal requires variance > 0")

    def sample_with(self, gen: np.random.Generator, n: int) -> np.ndarray:
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return gen.uniform(p[0], p[1], n)
        if f is Family.BETA:
            return gen.beta(p[0], p[1], n)
        if f is Family.GAMMA:
            return gen.gamma(p[0], 1.0 / p[1], n)
        return gen.normal(p[0], np.sqrt(p[1]), n)

    def mean(self) -> float:
        # each expression rounds as scipy.stats' location-scale form does,
        # so the means agree with the frozen distributions to the last bit
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return 0.5 * (p[1] - p[0]) + p[0]
        if f is Family.BETA:
            return p[0] / (p[0] + p[1])
        if f is Family.GAMMA:
            return p[0] * (1.0 / p[1])
        return p[0]

    def support(self) -> tuple[float, float]:
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return p[0], p[1]
        if f is Family.BETA:
            return 0.0, 1.0
        if f is Family.GAMMA:
            return 0.0, np.inf
        return -np.inf, np.inf
