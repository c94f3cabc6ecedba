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
or summary matrix, and fits it any number of times: data summaries are often
discrete (50 distinct values in 1e5 draws for a binomial count), and the
regression-on-summaries oracle refits one design 20 times under bootstrap
weights.  A row's nonzero B-splines are the (degree+1)^d consecutive ones of
its knot interval in each dimension, so the design is stored dense, sorted by
that cell of intervals, and X'WX takes one small matrix product per
non-empty cell (at most 11, 121 and 216 at the default knots).  The sums
equal the row-by-row ones up to summation order.

Every pass over rows is bounded, and none computes what its caller does not
read:

* the design finds each distinct row's cell by counting the knots at or
  below it, sorts the rows by cell, and only then runs the basis recursion,
  8192 rows at a time into one contiguous row per basis function,
  transposed into the row-major values that the per-cell products read;
* a fit forms [W X | W y] over runs of whole cells of at least 8192 rows,
  not over the whole design;
* `RegressionFit.evaluate` runs the same recursion on new points, 8192 at a
  time, and contracts the per-basis rows with the coefficients;
* a refit at a pinned penalty (`SplineDesign.refit`) returns the fitted
  values alone, without the sums that only the GCV search and r-squared use.

Each of these computes every value with the same operations on the same
operands as the straightforward whole-array code, so the results are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .model import InbSamples
from .util import SchemaError, UnsupportedDimensionError


_DEGREE = 3
_KNOTS = {1: 10, 2: 10, 3: 5}  # interior knots per dimension, by focal dimension
_LAMBDA_GRID = tuple(np.logspace(-6.0, 9.0, 46))
# rows per pass of the basis recursion, so that its temporaries stay in
# cache (whole-array passes over 1e5 rows take about twice as long), and the
# least rows per [W X | W y] buffer of a fit
_ROWS_PER_PASS = 8192


@dataclass
class RegressionFit:
    basis: str
    knots: list[np.ndarray]
    degree: int
    penalty_weight: float
    fitted: np.ndarray
    r_squared: float
    coefficients: np.ndarray = field(repr=False, default=None)
    edf: float | None = None                    # effective degrees of freedom (GCV fits)
    penalty_at_grid_edge: bool | None = None    # GCV chose the first or last grid point
    knot_vectors: list[np.ndarray] = field(repr=False, default=None)  # full, per dimension

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The fitted conditional mean at new points, (n,) or (n, d).

        Each coordinate is clipped to its boundary knots, as the fit's basis
        is, so a finite point beyond the fitted range gets the boundary value.
        A point with an infinite or NaN coordinate raises `SchemaError`.
        """
        x = np.asarray(points, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[1] != len(self.knot_vectors):
            raise SchemaError(f"points of shape {np.shape(points)} for a "
                              f"{len(self.knot_vectors)}-dimensional fit")
        bad = int(np.count_nonzero(~np.isfinite(x).all(axis=1)))
        if bad:
            raise SchemaError(f"{bad} of {x.shape[0]} points to evaluate are not finite")
        sizes = [len(t) - _DEGREE - 1 for t in self.knot_vectors]
        offsets = _local_offsets(sizes)
        beta = self.coefficients
        out = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], _ROWS_PER_PASS):
            factors, first = [], 0
            for col, t, size in zip(x[lo:lo + _ROWS_PER_PASS].T, self.knot_vectors, sizes):
                v, i0 = _design_1d(col, t)
                factors.append(v)
                first = first * size + i0
            values = _tensor_values(factors)
            part = out[lo:lo + _ROWS_PER_PASS]
            np.multiply(values[0], beta[first + offsets[0]], out=part)
            for k in range(1, len(offsets)):
                part += values[k] * beta[first + offsets[k]]
        return out

    def diagnostics(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "knots": [list(map(float, k)) for k in self.knots],
            "penalty_weight": self.penalty_weight,
            "r_squared": self.r_squared,
            "edf": self.edf,
            "penalty_at_grid_edge": self.penalty_at_grid_edge,
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


def _first_basis(xc: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Index of the first of the degree+1 B-splines that are nonzero at each
    clamped point: the number of interior knots at or below it, so that the
    last interval is closed.

    With at most 10 interior knots, counting takes half the time of
    `searchsorted` on unsorted points, with the same integers.  The knots
    from `_interior_knots` are unique and strictly inside (lo, hi), so every
    interval is non-empty and no denominator of `_bspline_values` is zero.
    """
    first = np.zeros(xc.shape, dtype=np.intp)
    for knot in t[_DEGREE + 1:-_DEGREE - 1]:
        first += xc >= knot
    return first


def _bspline_values(xc: np.ndarray, first: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(degree+1, n): the B-splines first .. first + degree at each clamped
    point, one contiguous row per basis function.

    Cox-de Boor recursion (de Boor, A Practical Guide to Splines, 1978) with
    the operations in the order of scipy's `_deBoor_D`, so the values equal
    `scipy.interpolate.BSpline.design_matrix` to the bit.
    """
    ell = first + _DEGREE
    knot = {m: t[ell + m] for m in range(1 - _DEGREE, _DEGREE + 1)}
    h = [1.0]
    for j in range(1, _DEGREE + 1):
        new = [0.0] + [None] * j
        for n in range(1, j + 1):
            w = h[n - 1] / (knot[n] - knot[n - j])
            new[n - 1] = new[n - 1] + w * (knot[n] - xc)
            new[n] = w * (xc - knot[n - j])
        h = new
    return np.stack(h)


def _clamp(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.clip(x, t[_DEGREE], t[-_DEGREE - 1])


def _design_1d(x: np.ndarray, t: np.ndarray):
    """(values, first): `_bspline_values` and `_first_basis` at the points x,
    clamped to the boundary knots [t[degree], t[-degree - 1]]."""
    xc = _clamp(x, t)
    first = _first_basis(xc, t)
    return _bspline_values(xc, first, t), first


def _tensor_values(factors) -> np.ndarray:
    """(m, n): the tensor product of per-dimension (degree+1, n) basis values,
    the last dimension's index running fastest."""
    values = factors[0]
    for v in factors[1:]:
        values = (values[:, None, :] * v[None, :, :]).reshape(-1, v.shape[1])
    return values


def _local_offsets(sizes) -> np.ndarray:
    """Global index of each of a cell's (degree+1)^d bases less that of its first."""
    offsets = np.zeros(1, dtype=np.intp)
    for size in sizes:
        offsets = (offsets[:, None] * size + np.arange(_DEGREE + 1)).ravel()
    return offsets


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


def _group_rows(phi: np.ndarray, sorted_columns):
    """(a row of each group of equal rows, group of each row), or None when
    every row is distinct.  `sorted_columns` are the columns of `phi`, sorted.

    A column of distinct values, the continuous case, shows in its sorted
    copy; only otherwise are the columns coded, one at a time with 1-D
    `np.unique`, several times faster than `np.unique(axis=0)`.  The running
    key is recoded after each column, so it stays below n * n.
    """
    if any(np.all(col[1:] != col[:-1]) for col in sorted_columns):
        return None
    _, key = np.unique(phi[:, 0], return_inverse=True)
    for col in phi.T[1:]:
        levels, code = np.unique(col, return_inverse=True)
        _, key = np.unique(key * levels.size + code, return_inverse=True)
    # the rows of a group are equal, so any of them stands for it
    row = np.empty(key.max() + 1, dtype=np.intp)
    row[key] = np.arange(key.size)
    return row, key


class SplineDesign:
    """Tensor-product B-spline design over the distinct rows of `phi_columns`.

    `phi_columns` is (S,) or (S, d) with d <= 3.  Knots are placed at
    quantiles of all S rows.  The design is built once and `fit` can be
    called any number of times, with other weights or a pinned penalty:
    the regression-on-summaries oracle runs its GCV fit and all bootstrap
    refits (`refit`, the fitted values alone) from one design.

    Rows with equal values share one design row, which enters the normal
    equations through per-group sums of the weights and weighted responses.
    The design keeps each design row's (degree+1)^d local basis values,
    sorted by cell, and each cell's global coefficient indices.
    """

    def __init__(self, phi_columns: np.ndarray, names=None):
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
        # one sort per column gives its quantiles, several times faster than
        # on the unsorted column, and shows whether its values are distinct
        sorted_columns = [np.sort(col) for col in phi.T]
        self.knots = [_interior_knots(col, _KNOTS[d], name)
                      for col, name in zip(sorted_columns, self.names)]
        self.knot_vectors = [_knot_vector(col, k, _DEGREE)
                             for col, k in zip(sorted_columns, self.knots)]
        sizes = [len(t) - _DEGREE - 1 for t in self.knot_vectors]
        self.n_basis = int(np.prod(sizes))
        self.n_rows = phi.shape[0]
        if self.n_rows < 10 * self.n_basis:
            raise SchemaError(
                f"need at least {10 * self.n_basis} draws for {self.n_basis} basis "
                f"functions, got {self.n_rows}"
            )
        self.penalty = _tensor_penalty(sizes)

        groups = _group_rows(phi, sorted_columns)
        del sorted_columns  # freed before the design values are allocated
        rows = phi if groups is None else phi[groups[0]]
        n_design = rows.shape[0]
        # each row's cell first, then the basis on the rows sorted by cell,
        # so that no unsorted copy of the design is held
        clamped = [_clamp(col, t) for col, t in zip(rows.T, self.knot_vectors)]
        first = 0
        for xc, t, size in zip(clamped, self.knot_vectors, sizes):
            first = first * size + _first_basis(xc, t)
        # the narrowest key type that holds every index lets numpy radix-sort
        order = np.argsort(first.astype(np.min_scalar_type(self.n_basis)), kind="stable")
        first = first[order]
        clamped = [xc[order] for xc in clamped]
        offsets = _local_offsets(sizes)
        strides = [int(np.prod(sizes[j + 1:])) for j in range(d)]
        self._values = np.empty((n_design, offsets.size))
        for lo in range(0, n_design, _ROWS_PER_PASS):
            cell = first[lo:lo + _ROWS_PER_PASS]
            factors = [_bspline_values(xc[lo:lo + _ROWS_PER_PASS], cell // stride % size, t)
                       for xc, t, size, stride in zip(clamped, self.knot_vectors, sizes, strides)]
            self._values[lo:lo + _ROWS_PER_PASS] = _tensor_values(factors).T
        rank = np.empty(n_design, dtype=np.intp)
        rank[order] = np.arange(n_design)
        self._inverse = rank if groups is None else rank[groups[1]]  # design row of each row

        starts = np.flatnonzero(np.r_[True, first[1:] != first[:-1]])
        self._cells = list(zip(starts.tolist(), np.r_[starts[1:], n_design].tolist()))
        self._cell_coefs = first[starts][:, None] + offsets
        # flat positions in the p x (p+1) matrix [X'WX | X'Wy] of each cell's block
        p = self.n_basis
        columns = np.c_[self._cell_coefs, np.full(len(starts), p)]
        self._scatter = (self._cell_coefs[:, :, None] * (p + 1) + columns[:, None, :]).ravel()
        # (rows lo:hi, cells c0:c1): runs of whole cells of at least
        # _ROWS_PER_PASS rows, over which a fit forms [W X | W y]
        self._spans = []
        lo = c0 = 0
        for c, (_, hi) in enumerate(self._cells):
            if hi - lo >= _ROWS_PER_PASS or c == len(self._cells) - 1:
                self._spans.append((lo, hi, c0, c + 1))
                lo, c0 = hi, c + 1
        self._span_rows = max(hi - lo for lo, hi, _, _ in self._spans)

    def _response(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_rows,):
            raise SchemaError("phi rows must match INB samples")
        return y

    def _normal_equations(self, wy: np.ndarray, weights: np.ndarray | None):
        """(X'WX, X'Wy) from one matrix product per cell."""
        n_design, m = self._values.shape
        row_w = np.bincount(self._inverse, weights, n_design).astype(float)
        row_y = np.bincount(self._inverse, wy, n_design)
        rhs = np.empty((self._span_rows, m + 1))
        blocks = np.empty((len(self._cells), m, m + 1))
        for lo, hi, c0, c1 in self._spans:
            # [W X | W y] over the span: each cell's product with it gives the
            # cell's blocks of X'WX and X'Wy
            if m == _DEGREE + 1:
                # in 1-D, column by column: numpy's loop over rows of 4 values
                # takes twice as long
                for k in range(m):
                    np.multiply(self._values[lo:hi, k], row_w[lo:hi], out=rhs[:hi - lo, k])
            else:
                np.multiply(self._values[lo:hi], row_w[lo:hi, None], out=rhs[:hi - lo, :m])
            rhs[:hi - lo, m] = row_y[lo:hi]
            for (clo, chi), block in zip(self._cells[c0:c1], blocks[c0:c1]):
                np.matmul(self._values[clo:chi].T, rhs[clo - lo:chi - lo], out=block)
        p = self.n_basis
        sums = np.bincount(self._scatter, blocks.ravel(), p * (p + 1)).reshape(p, p + 1)
        return sums[:, :p], sums[:, p]

    def _fitted(self, beta: np.ndarray) -> np.ndarray:
        fitted = np.empty(self._values.shape[0])
        for (lo, hi), coef in zip(self._cells, beta[self._cell_coefs]):
            np.matmul(self._values[lo:hi], coef, out=fitted[lo:hi])
        return fitted[self._inverse]

    def fit(self, y: np.ndarray, weights: np.ndarray | None = None,
            penalty: float | None = None) -> RegressionFit:
        """Fit E[y | phi]; `y` has one value per row of `phi_columns`.

        `weights` are per-row sample weights (bootstrap counts); `penalty`
        pins the penalty weight instead of running the GCV search.
        """
        y = self._response(y)
        wy = y if weights is None else weights * y
        xtx, xty = self._normal_equations(wy, weights)
        if penalty is None:
            yty = float(np.dot(wy, y))
            n_eff = self.n_rows if weights is None else float(np.sum(weights))
            beta, lam, edf, at_edge = _solve_gcv(xtx, xty, yty, n_eff, self.penalty,
                                                 _LAMBDA_GRID)
        else:
            lam, edf, at_edge = float(penalty), None, None
            beta = _penalized_solve(xtx, xty, lam, self.penalty)
        fitted = self._fitted(beta)

        tss = float(np.sum((y - np.mean(y)) ** 2))
        rss = float(np.sum((y - fitted) ** 2))
        r2 = 0.0 if tss == 0 else min(max(1.0 - rss / tss, 0.0), 1.0)
        return RegressionFit(
            basis="polynomial_spline" if len(self.knots) == 1 else "tensor_product_spline",
            knots=self.knots,
            degree=_DEGREE,
            penalty_weight=float(lam),
            fitted=fitted,
            r_squared=r2,
            coefficients=beta,
            edf=edf,
            penalty_at_grid_edge=at_edge,
            knot_vectors=self.knot_vectors,
        )

    def refit(self, y: np.ndarray, weights: np.ndarray, penalty: float) -> np.ndarray:
        """`fit(y, weights=weights, penalty=penalty).fitted`, and nothing else:
        no r-squared and no `RegressionFit`, for bootstrap refits that read
        only the fitted values."""
        y = self._response(y)
        xtx, xty = self._normal_equations(weights * y, weights)
        return self._fitted(_penalized_solve(xtx, xty, float(penalty), self.penalty))


def _penalized_solve(xtx, xty, lam, penalty):
    """Coefficients at penalty weight `lam`, with a 1e-10 relative ridge."""
    p = xtx.shape[0]
    return np.linalg.solve(xtx + 1e-10 * np.trace(xtx) / p * np.eye(p) + lam * penalty, xty)


def _solve_gcv(xtx, xty, yty, n, penalty, lambda_grid):
    """GCV search by the Demmler-Reinsch reparametrisation; returns (beta,
    lambda, edf, whether lambda is the first or last grid point).

    beta is solved at the chosen lambda, not back-transformed: the
    reparametrisation amplifies round-off when X'WX is ill-conditioned.
    """
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
    for k, lam in enumerate(lambda_grid):
        lam_s = lam * scale
        shrink = 1.0 / (1.0 + lam_s * eigvals)
        d = c * shrink
        rss = max(yty - 2.0 * np.dot(c, d) + np.dot(d, d), 0.0)
        edf = float(np.sum(shrink))
        if n - edf <= 0:
            continue
        gcv = n * rss / (n - edf) ** 2
        if best is None or gcv < best[0]:
            best = (gcv, lam_s, edf, k)
    if best is None:
        raise SchemaError("GCV search failed: saturated fit at every penalty")
    _, lam_s, edf, k = best
    return _penalized_solve(xtx, xty, lam_s, penalty), lam_s, edf, k in (0, len(lambda_grid) - 1)


def fit_conditional_mean(
    inb: InbSamples,
    phi_columns: np.ndarray,
    names=None,
) -> RegressionFit:
    """Fit E[INB | phi] by penalized splines and attach the fitted values.

    `phi_columns` is (S,) or (S, d) with d <= 3.  Populates `inb.inb_phi`
    and `inb.phi_fit`.
    Refits of one design under other weights or a pinned penalty go through
    `SplineDesign.fit`.
    """
    y = np.asarray(inb.inb_theta, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise SchemaError(f"INB has {bad} non-finite values")
    if np.shape(phi_columns)[0] != y.shape[0]:
        raise SchemaError("phi rows must match INB samples")
    design = SplineDesign(phi_columns, names)
    fit = design.fit(y)
    inb.attach_phi(fit.fitted, names=design.names, fit=fit)
    return fit
