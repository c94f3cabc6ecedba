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
or summary matrix (a binomial count takes 50 distinct values in 1e5 draws),
and fits it any number of times.  A row's nonzero B-splines are the
(degree+1)^d consecutive ones of its knot interval in each dimension, so the
design is stored dense and sorted by that cell of intervals (at most 11, 121
and 216 non-empty cells at the default knots).

The design and its evaluation are bit-identical to the straightforward
whole-array code, as each pass runs the same operations on the same operands:

* each column is sorted once, and its knots are read off the sorted copy
  by numpy's linear quantile rule, without partitioning it again;
* the design finds each distinct row's cell by counting the knots at or
  below it, sorts the rows by cell, and only then runs the basis recursion,
  8192 rows at a time.  In cell order the first dimension's knot interval
  is constant over runs of rows, so its recursion runs once per run with
  scalar knots; the other dimensions' gather their knots;
* the penalty matrix is built once per basis size and shared, read-only;
* `RegressionFit.evaluate` runs the same recursion on new points, 8192 at a
  time, and contracts the per-basis rows with the coefficients.

The sums are not.  X'WX, X'Wy and the fitted values have one
implementation, for a block of b sets of design-row weights: a fit is a
block of one, and the bootstrap replicates (`SplineDesign.bootstrap_voi`)
are refitted in blocks of several resamples.  Over each piece of design
rows the block's weighted design [W X | W y]' is formed once, and one
matrix product per cell gives the cell's sums for the whole block.  A
piece holds at most _PIECE_BYTES and may cut a cell, whose sums then add up
over the pieces, so the order of summation depends on the block size: a
replicate equals the fit at its counts, and a fit the row-by-row sums, to
round-off.  A block's temporaries take at most _BLOCK_BYTES.

The GCV search takes the penalty into the coordinates of the Cholesky factor
R of X'WX through one `np.linalg.inv(R)`: numpy has no triangular solve, and
at 196 basis functions the inverse costs 0.7 ms more than scipy.linalg's
three triangular solves, where three general solves would cost 1.9 ms more.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .model import InbSamples, voi_stack
from .util import DegenerateModelError, SchemaError, UnsupportedDimensionError


_DEGREE = 3
_KNOTS = {1: 10, 2: 10, 3: 5}  # interior knots per dimension, by focal dimension
_LAMBDA_GRID = tuple(np.logspace(-6.0, 9.0, 46))
# rows per pass of the basis recursion, so that its temporaries stay in
# cache (whole-array passes over 1e5 rows take about twice as long)
_ROWS_PER_PASS = 8192
# bytes of the temporaries of one block of bootstrap refits, and of a
# block's weighted design over one piece of rows, which stays in cache
_BLOCK_BYTES = 1 << 22
_PIECE_BYTES = 1 << 20


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


def _interior_knots(sorted_x: np.ndarray, n_knots: int, name: str) -> np.ndarray:
    """The distinct quantiles k/(n_knots+1) strictly inside the range of a
    sorted column.

    They are read off the sorted column with numpy's default (linear) rule,
    the same operations as `np.quantile`, which would partition the column
    again: the virtual index (n - 1) q, and `_lerp` of the values either
    side of it, from the right one when the fraction is at least 1/2.
    """
    lo, hi = float(sorted_x[0]), float(sorted_x[-1])
    if lo == hi:
        raise SchemaError(f"focal column {name} is constant; cannot place knots")
    index = (sorted_x.size - 1) * (np.arange(1, n_knots + 1) / (n_knots + 1))
    below = np.floor(index)
    gamma = index - below
    # q < 1, so index < n - 1 and both neighbours exist
    i = below.astype(np.intp)
    a, b = sorted_x[i], sorted_x[i + 1]
    diff = b - a
    qs = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
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


def _bspline_values(xc: np.ndarray, first, t: np.ndarray, out=None) -> np.ndarray:
    """(degree+1, n): the B-splines first .. first + degree at each clamped
    point, one contiguous row per basis function, written to `out` if given.
    `first` is an array, or one index for every point.

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
    return np.stack(h, out=out)


def _bspline_runs(xc: np.ndarray, cell: np.ndarray, stride: int, t: np.ndarray) -> np.ndarray:
    """`_bspline_values(xc, cell // stride, t)` for non-decreasing `cell`.

    The first basis index `cell // stride` is constant over runs of rows,
    found by bisection, and the recursion runs once per run with scalar
    knots in place of the gathered ones: the same operations on the same
    values, so the same bits, without gathering six knot arrays.
    """
    values = np.empty((_DEGREE + 1, xc.size))
    n_intervals = len(t) - 2 * _DEGREE - 1
    ends = np.searchsorted(cell, np.arange(1, n_intervals + 1) * stride).tolist()
    lo = 0
    for first, hi in enumerate(ends):
        if hi > lo:
            _bspline_values(xc[lo:hi], first, t, out=values[:, lo:hi])
        lo = hi
    return values


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


@functools.lru_cache(maxsize=8)
def _tensor_penalty(sizes: tuple[int, ...]) -> np.ndarray:
    """Additive second-difference penalty over the tensor-product coefficients.

    Built once per basis size and shared, so it is read-only.
    """
    n_basis = int(np.prod(sizes))
    total = np.zeros((n_basis, n_basis))
    for j, size in enumerate(sizes):
        left = int(np.prod(sizes[:j]))
        right = int(np.prod(sizes[j + 1:]))
        total += np.kron(np.eye(left), np.kron(_difference_penalty(size), np.eye(right)))
    total.flags.writeable = False
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

    `phi_columns` is (S,) or (S, d) with d <= 3, and `names`, if given, has
    one name per column.  Knots are placed at quantiles of all S rows.  The
    design is built once; `fit`, with any weights or a pinned penalty, and
    `bootstrap_voi` run from it any number of times.

    Rows with equal values share one design row, which enters the sums
    through its weight and weighted response.  The design keeps each design
    row's (degree+1)^d local basis values, sorted by cell, each cell's
    global coefficient indices, and their places in a normal system.
    """

    def __init__(self, phi_columns: np.ndarray, names=None):
        phi = np.asarray(phi_columns, dtype=float)
        if phi.ndim == 1:
            phi = phi[:, None]
        d = phi.shape[1]
        if not 1 <= d <= 3:
            raise UnsupportedDimensionError(f"focal dimension {d} unsupported (1..3)")
        self.names = tuple(f"phi{j + 1}" for j in range(d)) if names is None else tuple(names)
        if len(self.names) != d:
            raise SchemaError(f"{len(self.names)} names for {d} focal columns")
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
        self.penalty = _tensor_penalty(tuple(sizes))

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
            # sorted by cell, the first dimension's interval is constant over
            # runs of rows; the others change from row to row
            factors = [_bspline_runs(clamped[0][lo:lo + _ROWS_PER_PASS], cell, strides[0],
                                     self.knot_vectors[0])]
            factors += [_bspline_values(xc[lo:lo + _ROWS_PER_PASS], cell // stride % size, t)
                        for xc, t, size, stride in zip(clamped[1:], self.knot_vectors[1:],
                                                       sizes[1:], strides[1:])]
            self._values[lo:lo + _ROWS_PER_PASS] = _tensor_values(factors).T
        rank = np.empty(n_design, dtype=np.intp)
        rank[order] = np.arange(n_design)
        self._inverse = rank if groups is None else rank[groups[1]]  # design row of each row

        starts = np.flatnonzero(np.r_[True, first[1:] != first[:-1]])
        self._cells = list(zip(starts.tolist(), np.r_[starts[1:], n_design].tolist()))
        self._cell_coefs = first[starts][:, None] + offsets
        # flat places of each cell's (m + 1) x m sums [X'WX ; X'Wy'] in a
        # (p + 1) x p normal system
        p = self.n_basis
        self._places = (np.c_[self._cell_coefs, np.full(len(starts), p)][:, :, None] * p
                        + self._cell_coefs[:, None, :]).ravel()

    def _response(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_rows,):
            raise SchemaError("phi rows must match INB samples")
        return y

    def _buffers(self, block: int):
        """(a piece of the weighted design, each cell's sums) for `block` systems."""
        n_design, m = self._values.shape
        rows = max(1, min(n_design, _PIECE_BYTES // (8 * block * (m + 1))))
        return np.empty(block * (m + 1) * rows), np.empty((len(self._cells), block, m + 1, m))

    def _normal_systems(self, weights: np.ndarray, response: np.ndarray,
                        buffers=None) -> np.ndarray:
        """(b, p + 1, p): the normal system [X'WX ; X'Wy'] of each row of
        `weights`, (b, n_design), the weight of each design row.  `response`
        is the (b, n_design) sums of weighted responses over each design row,
        or the (n_design,) response at each, which the weights multiply.
        `buffers` from `_buffers` are reused; else they are allocated.  Each
        piece of design rows forms [W X | W y]' once, and one product per
        cell, or per part of a cell that the piece cuts, adds up its sums.
        """
        n_design, m = self._values.shape
        size, p = weights.shape[0], self.n_basis
        wx_buffer, cell_sums = buffers or self._buffers(size)
        rows = wx_buffer.size // (cell_sums.shape[1] * (m + 1))
        c = 0  # the first cell that ends after the piece's first row
        for lo in range(0, n_design, rows):
            hi = min(lo + rows, n_design)
            wx = wx_buffer[:size * (m + 1) * (hi - lo)].reshape(size, m + 1, hi - lo)
            np.multiply(weights[:, None, lo:hi], self._values[lo:hi].T, out=wx[:, :m])
            if response.ndim == 1:
                np.multiply(weights[:, lo:hi], response[lo:hi], out=wx[:, m])
            else:
                wx[:, m] = response[:, lo:hi]
            wx = wx.reshape(-1, hi - lo)
            while c < len(self._cells) and self._cells[c][0] < hi:
                a, z = self._cells[c]
                start, stop = max(a, lo), min(z, hi)
                part = np.matmul(wx[:, start - lo:stop - lo], self._values[start:stop],
                                 out=cell_sums[c, :size].reshape(-1, m) if a >= lo else None)
                if a < lo:  # the rest of a cell cut by a piece
                    cell_sums[c, :size] += part.reshape(size, m + 1, m)
                if z > hi:  # the cell goes on in the next piece
                    break
                c += 1
        normal = np.empty((size, p + 1, p))
        for b in range(size):
            normal[b].flat = np.bincount(self._places, cell_sums[:, b].ravel(), (p + 1) * p)
        return normal

    def _fitted_rows(self, beta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(b, n_design): the fitted values at the design rows of each row of `beta`, in `out`."""
        cell_beta = beta[:, self._cell_coefs]
        for c, (lo, hi) in enumerate(self._cells):
            np.matmul(cell_beta[:, c], self._values[lo:hi].T, out=out[:, lo:hi])
        return out

    def fit(self, y: np.ndarray, weights: np.ndarray | None = None,
            penalty: float | None = None) -> RegressionFit:
        """Fit E[y | phi]; `y` has one value per row of `phi_columns`.

        `weights` are per-row sample weights (bootstrap counts); `penalty`
        pins the penalty weight instead of running the GCV search.  The
        normal equations and the fitted values are a block of one of
        `_normal_systems` and `_fitted_rows`.
        """
        y = self._response(y)
        n_design, p = self._values.shape[0], self.n_basis
        wy = y if weights is None else weights * y
        # the design-row sums are freed before the fitted values, which outlive
        # the fit, are allocated; allocated while the sums were held, they made
        # glibc trim more heap after each ades estimate, faulted back in the next
        normal = self._normal_systems(
            np.bincount(self._inverse, weights, n_design).astype(float)[None],
            np.bincount(self._inverse, wy, n_design)[None])[0]
        xtx, xty = normal[:p], normal[p]
        if penalty is None:
            yty = float(np.dot(wy, y))
            n_eff = self.n_rows if weights is None else float(np.sum(weights))
            beta, lam, edf, at_edge = _solve_gcv(xtx, xty, yty, n_eff, self.penalty,
                                                 _LAMBDA_GRID)
        else:
            lam, edf, at_edge = float(penalty), None, None
            beta = _penalized_solve(xtx, xty, lam, self.penalty)
        fitted = self._fitted_rows(beta[None], np.empty((1, n_design)))[0][self._inverse]

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

    def bootstrap_voi(self, y: np.ndarray, penalty: float, gen: np.random.Generator,
                      n_replicates: int) -> np.ndarray:
        """`voi(self.fit(y, weights=w, penalty=penalty).fitted).raw` for each
        of `n_replicates` bootstrap resamples, drawn in turn from `gen`, where
        `w` counts how often each row is drawn (`_resample`).

        The replicates are refitted in blocks, from their counts of draws of
        each design row (and, for grouped designs, their sums of y over
        them): `_normal_systems` for the block, its systems solved as one
        stack, and `_fitted_rows`.  Each replicate is `voi_stack` of its
        fitted values at the design rows, weighted by group size.  Summed
        over shorter pieces in wider products than a fit's, a replicate
        equals the fit at its counts to round-off.
        """
        y = self._response(y)
        n_design, m = self._values.shape
        p, n_cells = self.n_basis, len(self._cells)
        distinct = n_design == self.n_rows
        if distinct:
            y_rows, sizes = np.empty(n_design), None
            y_rows[self._inverse] = y
        else:
            y_rows, sizes = None, np.bincount(self._inverse, minlength=n_design).astype(float)
        # per replicate: the counts, then the fitted values and their positive
        # parts in their place; the sums of y of a grouped design; the cell
        # sums; and the system and its copy in the solve
        per_replicate = 8 * (n_design * (2 - distinct) + n_cells * (m + 1) * m + 2 * p * p)
        block = max(1, min(n_replicates, _BLOCK_BYTES // per_replicate))
        # buffers reused by every block: arrays this large are mapped afresh
        # at each allocation, and the page faults would cost more than the sums
        counts = np.empty((block, n_design))
        row_y = None if distinct else np.empty((block, n_design))
        drawn = np.empty(self.n_rows, dtype=np.intp)
        buffers = self._buffers(block)
        out = np.empty(n_replicates)
        for b0 in range(0, n_replicates, block):
            size = min(block, n_replicates - b0)
            for b in range(size):
                counts[b], y_sums = _resample(gen, self._inverse, n_design,
                                              None if distinct else y, drawn)
                if row_y is not None:
                    row_y[b] = y_sums
            normal = self._normal_systems(counts[:size], y_rows if distinct else row_y[:size],
                                          buffers)
            beta = _penalized_solve(normal[:, :p], normal[:, p], float(penalty), self.penalty,
                                    overwrite=True)
            # the counts are read; their buffer takes the fitted values
            fitted = self._fitted_rows(beta, out=counts[:size])
            out[b0:b0 + size] = voi_stack(fitted, sizes, out=fitted)
        return out


def _resample(gen: np.random.Generator, inverse: np.ndarray, n_design: int, y=None,
              out=None):
    """One resample of the n rows with replacement, `gen.integers(0, n, n)`,
    as the number of draws of each design row (`inverse` gives each row's),
    which sum to n, and, when `y` is given, the sum of y over each design
    row's draws; else None.  `out`, if given, holds the design rows drawn."""
    draws = gen.integers(0, inverse.size, inverse.size)
    sums_of = None if y is None else y[draws]
    rows = np.take(inverse, draws, out=out, mode="clip")  # in range: no check
    counts = np.bincount(rows, minlength=n_design)
    return counts, None if y is None else np.bincount(rows, sums_of, n_design)


def _penalized_solve(xtx, xty, lam, penalty, overwrite=False):
    """Coefficients at penalty weight `lam`, with a 1e-10 relative ridge;
    `xtx` and `xty` may be stacks of systems.  With `overwrite`, the ridge
    and the penalty are added to `xtx` in place."""
    a = xtx if overwrite else np.array(xtx)
    diagonal = np.einsum("...ii->...i", a)
    diagonal += 1e-10 * np.trace(xtx, axis1=-2, axis2=-1)[..., None] / xtx.shape[-1]
    a += lam * penalty
    return np.linalg.solve(a, xty[..., None])[..., 0]


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
    r_inv = np.linalg.inv(r)
    p_tilde = r_inv @ penalty @ r_inv.T
    p_tilde = (p_tilde + p_tilde.T) / 2.0
    eigvals, u = np.linalg.eigh(p_tilde)
    eigvals = np.maximum(eigvals, 0.0)
    c = u.T @ (r_inv @ xty)

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


def check_fitted(y: np.ndarray, fitted: np.ndarray):
    """Refuse fitted values of `y` that lose its mean or exceed its variance,
    as no penalized spline fit's do beyond round-off."""
    m_y = float(np.mean(y))
    if abs(float(np.mean(fitted)) - m_y) > 1e-6 * (1.0 + abs(m_y)):
        raise SchemaError("fitted values do not preserve the INB mean")
    if np.var(fitted, ddof=1) > np.var(y, ddof=1) * (1.0 + 1e-6):
        raise SchemaError("fitted values exceed the INB variance")


def fit_conditional_mean(
    inb: InbSamples,
    phi_columns: np.ndarray,
    names=None,
) -> RegressionFit:
    """Fit E[INB | phi] by penalized splines; `inb` is left as it is.

    `phi_columns` is (S,) or (S, d) with d <= 3.  `fitted` holds g on the
    draws, checked by `check_fitted`, and `evaluate` gives g elsewhere.  A
    constant INB raises `DegenerateModelError`: its variance bound, 0,
    leaves no room for the fit's round-off.
    """
    y = np.asarray(inb.inb_theta, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise SchemaError(f"INB has {bad} non-finite values")
    if np.shape(phi_columns)[0] != y.shape[0]:
        raise SchemaError("phi rows must match INB samples")
    spline = SplineDesign(phi_columns, names)
    if y.min() == y.max():
        raise DegenerateModelError(f"the INB is constant ({y[0]:g} on every draw); nothing to fit")
    fit = spline.fit(y)
    check_fitted(y, fit.fitted)
    return fit
