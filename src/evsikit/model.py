"""Decision-model layer: priors, net benefit, PSA generation, INB and EVPI.

A :class:`DecisionModel` bundles independent named priors with a registered,
deterministic net-benefit function that maps parameter draws to one monetary
value per treatment.  All downstream estimators consume the simulation
containers produced here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .rng import DistSpec, SeedSpec
from .util import SchemaError, require_finite

_CHUNK = 1 << 16


@dataclass(frozen=True)
class DecisionModel:
    """Priors plus a pure net-benefit map.

    `net_benefit` takes a dict of named columns (prior draws plus any derived
    columns) and returns an (S, 2) array: the comparator's net benefit, then
    the new treatment's, so that INB = NB[:, 1] - NB[:, 0] is positive when
    the new treatment pays.
    """

    name: str
    priors: dict[str, DistSpec]
    net_benefit: Callable[[dict[str, np.ndarray]], np.ndarray]
    derived: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]] | None = None
    params: dict = field(default_factory=dict)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(self.priors)

    def all_columns(self, prior_cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Input columns plus any derived columns not already supplied."""
        cols = dict(prior_cols)
        if self.derived is not None:
            for key, value in self.derived(cols).items():
                cols.setdefault(key, value)
        return cols


@dataclass
class PsaSamples:
    """S joint prior draws with named columns, plus any derived columns."""

    columns: dict[str, np.ndarray]
    param_names: tuple[str, ...]
    seed: SeedSpec

    def __post_init__(self):
        sizes = {v.shape[0] for v in self.columns.values()}
        if len(sizes) != 1:
            raise SchemaError("all columns must share one length")
        if self.n_draws < 2:
            raise SchemaError("PSA requires at least 2 draws")

    @property
    def n_draws(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; have {sorted(self.columns)}") from None

    def matrix(self, names) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])


@dataclass
class InbSamples:
    """Per-draw incremental net benefit, and the net benefits it came from."""

    inb_theta: np.ndarray
    net_benefits: np.ndarray | None = None

    @classmethod
    def from_values(cls, values) -> "InbSamples":
        return cls(inb_theta=np.asarray(values, dtype=float))


def run_psa(model: DecisionModel, S: int, seed: SeedSpec, columns=None) -> PsaSamples:
    """S independent joint draws from the priors.

    Generation is chunked with per-(column, chunk) derived streams, so each
    chunk's draws depend only on its column, its position and the seed.
    `columns`, names of priors, draws only those, from their own streams, so
    they equal the full draw's columns; the derived columns need every
    prior, and are left out.
    """
    if S < 2:
        raise ValueError("S must be >= 2")
    names = model.param_names if columns is None else tuple(columns)
    unknown = [name for name in names if name not in model.priors]
    if unknown:
        raise SchemaError(f"no priors named {unknown}; have {list(model.param_names)}")
    out = {name: np.empty(S) for name in names}
    for name in names:
        col_seed = seed.derive(model.param_names.index(name))
        for c, lo in enumerate(range(0, S, _CHUNK)):
            hi = min(lo + _CHUNK, S)
            out[name][lo:hi] = model.priors[name].sample_with(col_seed.derive(c).generator(),
                                                              hi - lo)

    psa = PsaSamples(columns=model.all_columns(out) if columns is None else out,
                     param_names=names, seed=seed)
    _check_support(model, psa)
    return psa


def _check_support(model: DecisionModel, psa: PsaSamples):
    for name in psa.param_names:
        lo, hi = model.priors[name].support()
        col = psa.column(name)
        if col.min() < lo or col.max() > hi:
            raise SchemaError(f"column {name!r} violates its prior support")


def compute_inb(model: DecisionModel, psa: PsaSamples) -> InbSamples:
    """INB per draw, the new treatment's net benefit less the comparator's;
    deterministic given psa."""
    missing = [n for n in model.param_names if n not in psa.columns]
    if missing:
        raise SchemaError(f"psa columns missing parameters {missing}")
    nb = np.asarray(model.net_benefit(psa.columns), dtype=float)
    if nb.shape != (psa.n_draws, 2):
        raise SchemaError(f"net_benefit returned shape {nb.shape}, expected {(psa.n_draws, 2)}")
    finite = np.isfinite(nb)
    if not np.all(finite):
        raise SchemaError(f"net_benefit returned {int(nb.size - finite.sum())} non-finite value(s)")
    return InbSamples(inb_theta=nb[:, 1] - nb[:, 0], net_benefits=nb)


class Voi(NamedTuple):
    """A value-of-information estimate: `value` is `raw` floored at zero."""

    value: float
    se: float
    raw: float


def _voi_terms(x: np.ndarray, weights: np.ndarray | None = None, out=None):
    """(mean(max(0, x)) - max(0, mean(x)), mean(x), max(0, x)), the means
    taken along the last axis, weighted by `weights` when given.  max(0, x)
    is written to `out` if given, which may be x itself."""
    if weights is None:
        def mean(v):
            return np.mean(v, axis=-1)
    else:
        total = np.sum(weights)

        def mean(v):
            return v @ weights / total
    grand = mean(x)
    positive = np.maximum(x, 0.0, out=out)  # after the mean, as out may be x
    return mean(positive) - np.maximum(grand, 0.0), grand, positive


def voi_stack(x: np.ndarray, weights: np.ndarray | None = None, out=None) -> np.ndarray:
    """`voi(s).raw` of each sample s along the last axis of `x`, where each
    value stands for `weights` equal values of the sample when they are
    given; without the finite check, the floor and the standard error, for
    bootstrap replicates of values already known to be finite.  `out`, if
    given, receives max(0, x) and may be x itself."""
    return _voi_terms(x, weights, out)[0]


def voi(x) -> Voi:
    """mean(max(0, x)) - max(0, mean(x)) for a sample of (conditional) INB values.

    The EVPI, EVPPI and EVSI are all this functional of a different sample.
    `value` is floored at zero against roundoff; `se` is the Monte Carlo
    standard error of the sample average of max(0, x) - max(0, mean(x)),
    taken with the sign of the mean as known.  A non-finite value raises, since
    max(0, nan) is 0 and would pass for a plausible number.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("value of information requires a nonempty sample")
    require_finite("voi", {"the INB sample": x})
    raw, grand, positive = _voi_terms(x)
    raw, grand = float(raw), float(grand)
    integrand = positive - x if grand > 0 else positive
    se = float(np.std(integrand, ddof=1) / np.sqrt(x.size)) if x.size > 1 else float("nan")
    return Voi(max(0.0, raw), se, raw)


def evpi(inb) -> float:
    """Expected value of perfect information for a two-option comparison.

    mean(max(0, INB)) - max(0, mean(INB)); zero when the INB sign is certain.
    """
    return voi(inb.inb_theta if isinstance(inb, InbSamples) else inb).value


def write_psa_csv(path, psa: PsaSamples, inb: InbSamples | None = None):
    """Parameter columns, one row per draw, then NB and INB columns."""
    headers = list(psa.param_names)
    cols = [psa.column(n) for n in psa.param_names]
    if inb is not None and inb.net_benefits is not None:
        for t in range(inb.net_benefits.shape[1]):
            headers.append(f"NB{t + 1}")
            cols.append(inb.net_benefits[:, t])
        headers.append("INB")
        cols.append(inb.inb_theta)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for row in zip(*cols):
            writer.writerow([repr(float(v)) for v in row])
