"""Nonparametric estimation of E[INB | focal parameters].

The conditional mean is fitted with penalized cubic regression splines:
B-spline bases with interior knots at empirical quantiles, a second-order
difference penalty on the coefficients, and the penalty weight chosen by
generalized cross-validation.  Dimensions 2 and 3 use tensor-product bases
with additive per-dimension penalties.

Two exact properties of this fit are load-bearing downstream: the fitted
values preserve the response mean (the constant function lies in the basis
span and in the penalty nullspace) and never exceed the response variance.

`SplineDesign` builds the design once, over the distinct rows of the focal
or summary matrix, and fits it any number of times.  A design row depends
only on the row's values, so rows with equal values enter the normal
equations through per-group sums of weights and weighted responses.  Data
summaries are often discrete (50 distinct values in 1e5 draws for a binomial
count), and the regression-on-summaries oracle refits one design 20 times
under bootstrap weights.  Building the B-spline design once per distinct row,
instead of twice per row in every fit, removes most of the oracle's time.
Continuous inputs, whose rows are all distinct, keep their order and give
bit-identical fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.interpolate import BSpline
from scipy.linalg import solve_triangular

from .model import InbSamples
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


def _tensor_penalty(sizes) -> np.ndarray:
    """Additive second-difference penalty over the tensor-product coefficients."""
    n_basis = int(np.prod(sizes))
    total = np.zeros((n_basis, n_basis))
    for j, size in enumerate(sizes):
        left = int(np.prod(sizes[:j]))
        right = int(np.prod(sizes[j + 1:]))
        total += np.kron(np.eye(left), np.kron(_difference_penalty(size), np.eye(right)))
    return total


def _group_rows(phi: np.ndarray):
    """(first row of each group of equal rows, group of each row), or None
    when every row is distinct.

    Columns are coded one at a time with 1-D `np.unique`, several times faster
    than `np.unique(axis=0)`; the running key is recoded after each column, so
    it stays below n * n.
    """
    n = phi.shape[0]
    key = np.zeros(n, dtype=np.intp)
    for col in phi.T:
        levels, code = np.unique(col, return_inverse=True)
        if levels.size == n:
            return None
        _, first, key = np.unique(key * levels.size + code,
                                  return_index=True, return_inverse=True)
    return first, key


class SplineDesign:
    """Tensor-product B-spline design over the distinct rows of `phi_columns`.

    `phi_columns` is (S,) or (S, d) with d <= 3.  Knots are placed at
    quantiles of all S rows.  The design is built once and `fit` can be
    called any number of times, with other weights or a pinned penalty:
    the regression-on-summaries oracle runs its GCV fit and all bootstrap
    refits from one design.

    Rows with equal values share one design row.  The normal equations take
    per-group sums of the weights and of the weighted response, and fitted
    values are expanded back by group; this is exact up to summation order.
    When every row is distinct, rows keep their order and each fit is the
    row-by-row one, bit for bit.
    """

    def __init__(self, phi_columns: np.ndarray, spec: SplineSpec | None = None, names=None):
        spec = spec or SplineSpec()
        phi = np.asarray(phi_columns, dtype=float)
        if phi.ndim == 1:
            phi = phi[:, None]
        d = phi.shape[1]
        if not 1 <= d <= 3:
            raise UnsupportedDimensionError(f"focal dimension {d} unsupported (1..3)")
        if names is None:
            names = [f"phi{j + 1}" for j in range(d)]
        self.names = tuple(names)
        for name, col in zip(self.names, phi.T):
            bad = int(np.count_nonzero(~np.isfinite(col)))
            if bad:
                raise SchemaError(f"focal column {name} has {bad} non-finite values")
        self.degree = spec.degree
        self.lambda_grid = spec.lambda_grid
        self.knots = []
        self._t_vectors = []
        for j in range(d):
            interior = _interior_knots(phi[:, j], spec.knots_for_dim(d), self.names[j])
            self.knots.append(interior)
            self._t_vectors.append(_knot_vector(phi[:, j], interior, spec.degree))
        self._sizes = [len(t) - spec.degree - 1 for t in self._t_vectors]
        self.n_basis = int(np.prod(self._sizes))
        self.n_rows = phi.shape[0]
        if self.n_rows < 10 * self.n_basis:
            raise SchemaError(
                f"need at least {10 * self.n_basis} draws for {self.n_basis} basis "
                f"functions, got {self.n_rows}"
            )
        self.penalty = _tensor_penalty(self._sizes)
        groups = _group_rows(phi)
        if groups is None:
            self._rows, self._inverse = phi, None
        else:
            first, self._inverse = groups
            self._rows = phi[first]
        # a design of one chunk is kept; a longer one is rebuilt chunk by chunk
        # on every pass, so memory stays at one chunk of rows
        n_design = self._rows.shape[0]
        self._kept = self._chunk(0, n_design) if n_design <= _ROW_CHUNK else None

    def _chunk(self, lo: int, hi: int) -> sparse.csr_matrix:
        vals, idx = None, None
        for j, t in enumerate(self._t_vectors):
            v, i, _ = _design_1d(self._rows[lo:hi, j], t, self.degree)
            if vals is None:
                vals, idx = v, i
            else:
                vals = (vals[:, :, None] * v[:, None, :]).reshape(hi - lo, -1)
                idx = (idx[:, :, None] * self._sizes[j] + i[:, None, :]).reshape(hi - lo, -1)
        nnz = vals.shape[1]
        indptr = np.arange(hi - lo + 1) * nnz
        return sparse.csr_matrix(
            (vals.ravel(), idx.ravel(), indptr), shape=(hi - lo, self.n_basis)
        )

    def _chunks(self):
        if self._kept is not None:
            yield 0, self._kept.shape[0], self._kept
            return
        n_design = self._rows.shape[0]
        for lo in range(0, n_design, _ROW_CHUNK):
            hi = min(lo + _ROW_CHUNK, n_design)
            yield lo, hi, self._chunk(lo, hi)

    def fit(self, y: np.ndarray, weights: np.ndarray | None = None,
            penalty: float | None = None) -> RegressionFit:
        """Fit E[y | phi]; `y` has one value per row of `phi_columns`.

        `weights` are per-row sample weights (bootstrap counts); `penalty`
        pins the penalty weight instead of running the GCV search.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_rows,):
            raise SchemaError("phi rows must match INB samples")
        wy = y if weights is None else weights * y
        if self._inverse is None:
            row_w, row_y = weights, wy
        else:
            n_groups = self._rows.shape[0]
            row_w = np.bincount(self._inverse, weights, n_groups).astype(float)
            row_y = np.bincount(self._inverse, wy, n_groups)

        p = self.n_basis
        xtx = np.zeros((p, p))
        xty = np.zeros(p)
        for lo, hi, xc in self._chunks():
            if row_w is None:
                xtx += (xc.T @ xc).toarray()
            else:
                # every row holds the same number of entries, so repeating each
                # row's weight that many times scales the data array row by row
                row_nnz = xc.indptr[1]
                xw = sparse.csr_matrix(
                    (xc.data * np.repeat(row_w[lo:hi], row_nnz), xc.indices, xc.indptr),
                    shape=xc.shape,
                )
                xtx += (xc.T @ xw).toarray()
            xty += xc.T @ row_y[lo:hi]
        yty = float(np.dot(wy, y))
        n_eff = self.n_rows if weights is None else float(np.sum(weights))

        if penalty is None:
            beta, lam, _, _ = _solve_gcv(xtx, xty, yty, n_eff, self.penalty, self.lambda_grid)
        else:
            lam = float(penalty)
            ridge = 1e-10 * np.trace(xtx) / p * np.eye(p)
            beta = np.linalg.solve(xtx + ridge + lam * self.penalty, xty)

        fitted = np.empty(self._rows.shape[0])
        for lo, hi, xc in self._chunks():
            fitted[lo:hi] = xc @ beta
        if self._inverse is not None:
            fitted = fitted[self._inverse]

        tss = float(np.sum((y - np.mean(y)) ** 2))
        rss = float(np.sum((y - fitted) ** 2))
        r2 = 0.0 if tss == 0 else min(max(1.0 - rss / tss, 0.0), 1.0)
        return RegressionFit(
            basis="polynomial_spline" if len(self.knots) == 1 else "tensor_product_spline",
            knots=self.knots,
            degree=self.degree,
            penalty_weight=float(lam),
            fitted=fitted,
            r_squared=r2,
            coefficients=beta,
        )


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
) -> RegressionFit:
    """Fit E[INB | phi] by penalized splines and attach the fitted values.

    `phi_columns` is (S,) or (S, d) with d <= 3.  Populates `inb.inb_phi`.
    Refits of one design under other weights or a pinned penalty go through
    `SplineDesign.fit`.
    """
    y = np.asarray(inb.inb_theta, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise SchemaError(f"INB has {bad} non-finite values")
    if np.shape(phi_columns)[0] != y.shape[0]:
        raise SchemaError("phi rows must match INB samples")
    design = SplineDesign(phi_columns, spec, names)
    fit = design.fit(y)
    inb.attach_phi(fit.fitted, names=design.names)
    return fit
