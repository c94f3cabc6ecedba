"""Nonparametric estimation of E[INB | focal parameters] and the EVPPI.

The conditional mean is fitted with penalized cubic regression splines:
B-spline bases with interior knots at empirical quantiles, a second-order
difference penalty on the coefficients, and the penalty weight chosen by
generalized cross-validation.  Dimensions 2 and 3 use tensor-product bases
with additive per-dimension penalties.

Two exact properties of this fit are load-bearing downstream: the fitted
values preserve the response mean (the constant function lies in the basis
span and in the penalty nullspace) and never exceed the response variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.interpolate import BSpline
from scipy.linalg import solve_triangular

from .model import InbSamples, voi
from .util import SchemaError, UnsupportedDimensionError

_ROW_CHUNK = 1 << 17


@dataclass(frozen=True)
class SplineSpec:
    """Basis options; knots per dimension defaults shrink with dimension."""

    n_knots: int | None = None
    degree: int = 3
    lambda_grid: tuple = tuple(np.logspace(-6.0, 9.0, 46))

    def knots_for_dim(self, d: int) -> int:
        if self.n_knots is not None:
            return self.n_knots
        return {1: 10, 2: 10, 3: 5}[d]


@dataclass
class RegressionFit:
    basis: str
    knots: list[np.ndarray]
    degree: int
    penalty_weight: float
    fitted: np.ndarray
    r_squared: float
    coefficients: np.ndarray = field(repr=False, default=None)

    def diagnostics(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "knots": [list(map(float, k)) for k in self.knots],
            "penalty_weight": self.penalty_weight,
            "r_squared": self.r_squared,
        }


def _interior_knots(x: np.ndarray, n_knots: int, name: str) -> np.ndarray:
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        raise SchemaError(f"focal column {name} is constant; cannot place knots")
    qs = np.quantile(x, np.arange(1, n_knots + 1) / (n_knots + 1))
    qs = np.unique(qs[(qs > lo) & (qs < hi)])
    return qs


def _knot_vector(x: np.ndarray, interior: np.ndarray, degree: int) -> np.ndarray:
    lo, hi = float(np.min(x)), float(np.max(x))
    return np.r_[[lo] * (degree + 1), interior, [hi] * (degree + 1)]


def _design_1d(x: np.ndarray, t: np.ndarray, degree: int):
    """(values, indices) per row; each row has exactly degree+1 active bases."""
    lo, hi = t[degree], t[-degree - 1]
    xc = np.clip(x, lo, hi)
    dm = BSpline.design_matrix(xc, t, degree).tocsr()
    p = len(t) - degree - 1
    vals = dm.data.reshape(len(x), degree + 1)
    idx = dm.indices.reshape(len(x), degree + 1)
    return vals, idx, p


def _difference_penalty(p: int, order: int = 2) -> np.ndarray:
    d = np.diff(np.eye(p), n=order, axis=0)
    return d.T @ d


class _TensorDesign:
    """Row-sparse tensor-product B-spline design built chunk by chunk."""

    def __init__(self, phi: np.ndarray, spec: SplineSpec, names):
        self.degree = spec.degree
        self.dims = phi.shape[1]
        self.knots = []
        self.t_vectors = []
        sizes = []
        for j in range(self.dims):
            interior = _interior_knots(phi[:, j], spec.knots_for_dim(self.dims), names[j])
            t = _knot_vector(phi[:, j], interior, spec.degree)
            self.knots.append(interior)
            self.t_vectors.append(t)
            sizes.append(len(t) - spec.degree - 1)
        self.dim_sizes = sizes
        self.n_basis = int(np.prod(sizes))
        self.phi = phi

    def chunk(self, lo: int, hi: int) -> sparse.csr_matrix:
        k1 = self.degree + 1
        vals, idx = None, None
        for j in range(self.dims):
            v, i, _ = _design_1d(self.phi[lo:hi, j], self.t_vectors[j], self.degree)
            if vals is None:
                vals, idx = v, i
            else:
                stride = self.dim_sizes[j]
                vals = (vals[:, :, None] * v[:, None, :]).reshape(hi - lo, -1)
                idx = (idx[:, :, None] * stride + i[:, None, :]).reshape(hi - lo, -1)
        nnz = vals.shape[1]
        indptr = np.arange(hi - lo + 1) * nnz
        return sparse.csr_matrix(
            (vals.ravel(), idx.ravel(), indptr), shape=(hi - lo, self.n_basis)
        )

    def penalty(self) -> np.ndarray:
        total = np.zeros((self.n_basis, self.n_basis))
        for j in range(self.dims):
            pj = _difference_penalty(self.dim_sizes[j])
            left = int(np.prod(self.dim_sizes[:j])) if j > 0 else 1
            right = int(np.prod(self.dim_sizes[j + 1:])) if j < self.dims - 1 else 1
            total += np.kron(np.eye(left), np.kron(pj, np.eye(right)))
        return total


def _solve_gcv(xtx, xty, yty, n, penalty, lambda_grid):
    """Demmler-Reinsch reparametrisation; returns (beta, lambda, rss, edf)."""
    scale = np.trace(xtx) / max(np.trace(penalty), 1e-300)
    try:
        r = np.linalg.cholesky(xtx + 1e-10 * np.trace(xtx) / xtx.shape[0] * np.eye(xtx.shape[0]))
    except np.linalg.LinAlgError:
        dead = [int(i) for i in np.flatnonzero(np.diag(xtx) <= 1e-12 * np.trace(xtx))]
        raise SchemaError(f"rank-deficient spline design; degenerate basis columns {dead}") from None
    # transform the penalty into the cholesky coordinates
    tmp = solve_triangular(r, penalty, lower=True)
    p_tilde = solve_triangular(r, tmp.T, lower=True)
    p_tilde = (p_tilde + p_tilde.T) / 2.0
    eigvals, u = np.linalg.eigh(p_tilde)
    eigvals = np.maximum(eigvals, 0.0)
    c = u.T @ solve_triangular(r, xty, lower=True)

    best = None
    for lam in lambda_grid:
        lam_s = lam * scale
        shrink = 1.0 / (1.0 + lam_s * eigvals)
        d = c * shrink
        rss = max(yty - 2.0 * np.dot(c, d) + np.dot(d, d), 0.0)
        edf = float(np.sum(shrink))
        if n - edf <= 0:
            continue
        gcv = n * rss / (n - edf) ** 2
        if best is None or gcv < best[0]:
            best = (gcv, lam_s, d, rss, edf)
    if best is None:
        raise SchemaError("GCV search failed: saturated fit at every penalty")
    _, lam_s, d, rss, edf = best
    beta = solve_triangular(r.T, u @ d, lower=False)
    return beta, lam_s, rss, edf


def fit_conditional_mean(
    inb: InbSamples,
    phi_columns: np.ndarray,
    spec: SplineSpec | None = None,
    names=None,
    sample_weight: np.ndarray | None = None,
    penalty_weight: float | None = None,
) -> RegressionFit:
    """Fit E[INB | phi] by penalized splines and attach the fitted values.

    `phi_columns` is (S,) or (S, d) with d <= 3.  Populates `inb.inb_phi`
    for unweighted fits.  `sample_weight` supports bootstrap reweighting and
    `penalty_weight` pins the penalty instead of re-running the GCV search.
    """
    spec = spec or SplineSpec()
    y = np.asarray(inb.inb_theta, dtype=float)
    phi = np.asarray(phi_columns, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    if phi.shape[0] != y.shape[0]:
        raise SchemaError("phi rows must match INB samples")
    d = phi.shape[1]
    if not 1 <= d <= 3:
        raise UnsupportedDimensionError(f"focal dimension {d} unsupported (1..3)")
    if names is None:
        names = [f"phi{j + 1}" for j in range(d)]

    design = _TensorDesign(phi, spec, names)
    n = y.shape[0]
    if n < 10 * design.n_basis:
        raise SchemaError(
            f"need at least {10 * design.n_basis} draws for {design.n_basis} basis "
            f"functions, got {n}"
        )

    w = None if sample_weight is None else np.asarray(sample_weight, dtype=float)
    p = design.n_basis
    xtx = np.zeros((p, p))
    xty = np.zeros(p)
    for lo in range(0, n, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, n)
        xc = design.chunk(lo, hi)
        if w is None:
            xtx += (xc.T @ xc).toarray()
            xty += xc.T @ y[lo:hi]
        else:
            xw = xc.multiply(w[lo:hi, None]).tocsr()
            xtx += (xc.T @ xw).toarray()
            xty += xc.T @ (w[lo:hi] * y[lo:hi])
    yty = float(np.dot(y, y) if w is None else np.dot(w * y, y))
    n_eff = n if w is None else float(np.sum(w))

    if penalty_weight is None:
        beta, lam, _, _ = _solve_gcv(xtx, xty, yty, n_eff, design.penalty(), spec.lambda_grid)
    else:
        lam = float(penalty_weight)
        ridge = 1e-10 * np.trace(xtx) / p * np.eye(p)
        beta = np.linalg.solve(xtx + ridge + lam * design.penalty(), xty)

    fitted = np.empty(n)
    for lo in range(0, n, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, n)
        fitted[lo:hi] = design.chunk(lo, hi) @ beta

    tss = float(np.sum((y - np.mean(y)) ** 2))
    rss = float(np.sum((y - fitted) ** 2))
    r2 = 0.0 if tss == 0 else min(max(1.0 - rss / tss, 0.0), 1.0)

    fit = RegressionFit(
        basis="polynomial_spline" if d == 1 else "tensor_product_spline",
        knots=design.knots,
        degree=spec.degree,
        penalty_weight=float(lam),
        fitted=fitted,
        r_squared=r2,
        coefficients=beta,
    )
    if w is None:
        inb.attach_phi(fitted, names=names)
    return fit


def evppi(fit: RegressionFit) -> float:
    """Expected value of resolving the focal parameters exactly."""
    return voi(fit.fitted).value
