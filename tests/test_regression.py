"""Penalized-spline conditional-mean and EVPPI tests.

The workhorse fixture is a two-parameter model whose conditional INB is
known in closed form by linearity: with a Beta(1, 4) focal input and an
independent Normal(-0.5, 1) nuisance, E[INB | focal] = 10000 * focal + 2500.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.interpolate import BSpline

from evsikit.casemodels import get_model
import evsikit.regression as regression
from evsikit.model import InbSamples, compute_inb, run_psa, voi
from evsikit.regression import (
    _DEGREE,
    _KNOTS,
    _LAMBDA_GRID,
    _ROWS_PER_PASS,
    RegressionFit,
    SplineDesign,
    _bspline_runs,
    _bspline_values,
    _clamp,
    _design_1d,
    _first_basis,
    _interior_knots,
    _knot_vector,
    _penalized_solve,
    _solve_gcv,
    _tensor_penalty,
    check_fitted,
    fit_conditional_mean,
)
from evsikit.rng import SeedSpec
from evsikit.util import DegenerateModelError, SchemaError, UnsupportedDimensionError

S = 20000


@pytest.fixture(scope="module")
def two_param():
    model = get_model("two_param_linear")
    psa = run_psa(model, S, SeedSpec(42))
    inb = compute_inb(model, psa)
    fit = fit_conditional_mean(inb, psa.column("response_rate"),
                               names=("response_rate",))
    return model, psa, inb, fit


class TestEvaluate:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reproduces_fitted_values_at_the_psa_rows(self, d):
        rng = np.random.default_rng(70 + d)
        phi = rng.beta(2.0, 3.0, size=(20000, d))
        y = np.sin(3.0 * phi).sum(axis=1) + phi.prod(axis=1) + rng.normal(0.0, 0.3, 20000)
        fit = SplineDesign(phi).fit(y)
        got = fit.evaluate(phi[:, 0] if d == 1 else phi)
        scale = np.max(np.abs(fit.fitted))
        assert np.max(np.abs(got - fit.fitted)) <= 1e-12 * scale

    def test_points_beyond_the_boundary_knots_take_the_boundary_value(self):
        rng = np.random.default_rng(74)
        phi = rng.uniform(1.0, 2.0, size=(5000, 2))
        fit = SplineDesign(phi).fit(phi[:, 0] ** 2 - phi[:, 1] + rng.normal(0.0, 0.1, 5000))
        lo, hi = phi.min(axis=0), phi.max(axis=0)
        inside = np.array([[1.5, 1.5], [lo[0], 1.5], [hi[0], hi[1]], [1.5, lo[1]]])
        outside = np.array([[1.5, 1.5], [lo[0] - 3.0, 1.5], [hi[0] + 1.0, hi[1] + 9.0],
                            [1.5, -100.0]])
        assert np.array_equal(fit.evaluate(outside), fit.evaluate(inside))

    @pytest.fixture(scope="class")
    def line_fit(self):
        rng = np.random.default_rng(75)
        x = rng.uniform(0.0, 1.0, 5000)
        return x, SplineDesign(x).fit(3.0 * x + rng.normal(0.0, 0.1, 5000))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_fail_loudly(self, line_fit, bad):
        _, fit = line_fit
        with pytest.raises(SchemaError, match="1 of 3 points to evaluate are not finite"):
            fit.evaluate([0.5, bad, 0.25])
        two = SplineDesign(np.random.default_rng(76).uniform(size=(5000, 2))).fit(
            np.random.default_rng(77).normal(size=5000))
        with pytest.raises(SchemaError, match="2 of 4 points"):
            two.evaluate([[0.5, 0.5], [bad, 0.5], [0.5, 0.5], [bad, bad]])

    def test_finite_points_beyond_the_range_clip_in_one_dimension(self, line_fit):
        x, fit = line_fit
        beyond = fit.evaluate([x.min() - 1e300, x.max() + 1e300, x.max() + 0.5])
        edges = fit.evaluate([x.min(), x.max(), x.max()])
        assert np.array_equal(beyond, edges)

    def test_fit_conditional_mean_leaves_inb_unchanged(self, two_param):
        model, psa, _, fit = two_param
        inb = compute_inb(model, psa)
        theta = inb.inb_theta.copy()
        again = fit_conditional_mean(inb, psa.column("response_rate"))
        assert set(vars(inb)) == {"inb_theta", "net_benefits"}
        assert np.array_equal(inb.inb_theta, theta)
        assert np.array_equal(again.fitted, fit.fitted)

    def test_dimension_mismatch_rejected(self, two_param):
        with pytest.raises(SchemaError):
            two_param[3].evaluate(np.zeros((10, 2)))


class TestConditionalMean:
    def test_recovers_linear_truth(self, two_param):
        # estimation noise is about sd(nuisance) * sqrt(edf / S) ~= 140,
        # an order of magnitude below the signal spread
        _, psa, _, fit = two_param
        truth = 10000.0 * psa.column("response_rate") + 2500.0
        rms = np.sqrt(np.mean((fit.fitted - truth) ** 2))
        assert rms <= 0.15 * np.std(truth)
        assert np.corrcoef(fit.fitted, truth)[0, 1] >= 0.99

    def test_mean_close_to_4500(self, two_param):
        # sd(INB) = 10000 * sqrt(Var(Beta(1,4)) + 1) ~= 10132
        _, _, _, fit = two_param
        se = 10132.0 / np.sqrt(S)
        assert abs(np.mean(fit.fitted) - 4500.0) <= 4 * se

    def test_focal_measurable_response_recovered(self):
        # no nuisance: the conditional mean of f(phi) is f(phi) itself
        gen = np.random.default_rng(3)
        phi = gen.beta(2, 2, 5000)
        y = np.sin(3 * phi) * 100 + 50 * phi**2
        inb = InbSamples.from_values(y)
        fit = fit_conditional_mean(inb, phi)
        rms = np.sqrt(np.mean((fit.fitted - y) ** 2))
        assert rms <= 0.01 * np.std(y)

    def test_pure_nuisance_flattens(self):
        gen = np.random.default_rng(4)
        phi = gen.beta(1, 4, 5000)
        y = gen.normal(-0.5, 1, 5000)
        inb = InbSamples.from_values(y)
        fit = fit_conditional_mean(inb, phi)
        assert np.var(fit.fitted) / np.var(y) <= 0.01

    def test_fitted_values_pass_the_checks(self, two_param):
        _, _, inb, fit = two_param
        check_fitted(inb.inb_theta, fit.fitted)


class TestCheckFitted:
    """The fitted values of a spline fit keep the response's mean and do not
    exceed its variance; values that break either are refused."""

    y = np.random.default_rng(80).normal(3.0, 2.0, 2000)

    def test_lost_mean_refused(self):
        with pytest.raises(SchemaError, match="do not preserve the INB mean"):
            check_fitted(self.y, self.y + 1e-3)

    def test_excess_variance_refused(self):
        with pytest.raises(SchemaError, match="exceed the INB variance"):
            check_fitted(self.y, 1.01 * (self.y - self.y.mean()) + self.y.mean())

    def test_the_inb_itself_and_its_mean_pass(self):
        check_fitted(self.y, self.y)
        check_fitted(self.y, np.full_like(self.y, self.y.mean()))

    def test_fit_conditional_mean_refuses_a_bad_fit(self, monkeypatch):
        # a fit that doubles the spread of its values about their mean
        fitted = SplineDesign._fitted_rows

        def doubled(self, beta, out):
            values = fitted(self, beta, out)
            return 2.0 * values - values.mean(axis=1, keepdims=True)

        monkeypatch.setattr(SplineDesign, "_fitted_rows", doubled)
        phi = np.random.default_rng(81).uniform(size=2000)
        with pytest.raises(SchemaError, match="exceed the INB variance"):
            fit_conditional_mean(InbSamples.from_values(np.sin(3.0 * phi)), phi)


class TestFitInvariants:
    def test_variance_reduction(self, two_param):
        _, _, inb, fit = two_param
        assert np.var(fit.fitted, ddof=1) <= np.var(inb.inb_theta, ddof=1) * (1 + 1e-6)

    def test_mean_preservation(self, two_param):
        _, _, inb, fit = two_param
        m = np.mean(inb.inb_theta)
        assert abs(np.mean(fit.fitted) - m) <= 1e-6 * (1 + abs(m))

    def test_idempotent_on_fitted_values(self, two_param):
        _, psa, _, fit = two_param
        again = InbSamples.from_values(fit.fitted.copy())
        refit = fit_conditional_mean(again, psa.column("response_rate"))
        rms = np.sqrt(np.mean((refit.fitted - fit.fitted) ** 2))
        assert rms < 1e-6 * np.std(fit.fitted)

    def test_r_squared_in_unit_interval(self, two_param):
        assert 0.0 <= two_param[3].r_squared <= 1.0

    def test_gcv_diagnostics_at_the_largest_penalty(self):
        # a constant plus noise orthogonal to every basis column: the
        # unpenalized and fully penalized fits leave the same residuals, so
        # GCV, which falls with the effective degrees of freedom, picks the
        # last grid point, where only the 2 unpenalized directions remain
        gen = np.random.default_rng(6)
        phi = gen.beta(2, 2, 5000)
        t = _knot_vector(phi, _interior_knots(np.sort(phi), _KNOTS[1], "x"), 3)
        vals, first = _design_1d(phi, t)
        x = np.zeros((phi.size, len(t) - 4))
        np.put_along_axis(x, first[:, None] + np.arange(4), vals.T, axis=1)
        noise = gen.normal(0.0, 1.0, phi.size)
        noise -= x @ np.linalg.lstsq(x, noise, rcond=None)[0]
        diag = SplineDesign(phi).fit(5.0 + noise).diagnostics()
        assert diag["penalty_at_grid_edge"] is True
        assert diag["edf"] == pytest.approx(2.0, abs=1e-3)
        curved = SplineDesign(phi).fit(np.sin(6.0 * phi) + 0.1 * noise).diagnostics()
        assert curved["penalty_at_grid_edge"] is False
        assert curved["edf"] > 4.0

    def test_tensor_product_two_dims(self):
        gen = np.random.default_rng(5)
        x = gen.uniform(0, 1, (8000, 2))
        y = 100 * x[:, 0] * x[:, 1] + gen.normal(0, 5, 8000)
        inb = InbSamples.from_values(y)
        fit = fit_conditional_mean(inb, x)
        assert fit.basis == "tensor_product_spline"
        truth = 100 * x[:, 0] * x[:, 1]
        assert np.sqrt(np.mean((fit.fitted - truth) ** 2)) <= 0.05 * np.std(truth)


def _row_by_row_fit(phi, y, weights=None, penalty=None):
    """Reference: the fit accumulated over every row, one design row per draw."""
    n, d = phi.shape
    vals, idx, sizes = np.ones((n, 1)), np.zeros((n, 1), dtype=int), []
    for col in phi.T:
        t = _knot_vector(col, _interior_knots(np.sort(col), _KNOTS[d], "x"), _DEGREE)
        v, first = _design_1d(col, t)
        p = len(t) - _DEGREE - 1
        i = first[:, None] + np.arange(_DEGREE + 1)
        vals = (vals[:, :, None] * v.T[:, None, :]).reshape(n, -1)
        idx = (idx[:, :, None] * p + i[:, None, :]).reshape(n, -1)
        sizes.append(p)
    p = int(np.prod(sizes))
    x = sparse.csr_matrix((vals.ravel(), idx.ravel(), np.arange(n + 1) * vals.shape[1]),
                          shape=(n, p))
    if weights is None:
        xtx, xty, yty, n_eff = (x.T @ x).toarray(), x.T @ y, float(np.dot(y, y)), n
    else:
        xtx = (x.T @ x.multiply(weights[:, None]).tocsr()).toarray()
        xty, yty, n_eff = x.T @ (weights * y), float(np.dot(weights * y, y)), float(weights.sum())
    penalty_matrix = _tensor_penalty(tuple(sizes))
    if penalty is None:
        beta, penalty, _, _ = _solve_gcv(xtx, xty, yty, n_eff, penalty_matrix, _LAMBDA_GRID)
    else:
        ridge = 1e-10 * np.trace(xtx) / p * np.eye(p)
        beta = np.linalg.solve(xtx + ridge + penalty * penalty_matrix, xty)
    return x @ beta, penalty


def _phi_and_response(kind, d, n=6000):
    gen = np.random.default_rng(11 + d)
    if kind == "discrete":
        phi = gen.binomial(12, 0.4, (n, d)).astype(float)
    elif kind == "gap":
        # 600 rows at 0.5 between two continuous stretches: the 5/11 quantile
        # knot falls between 0.4 and 0.5 and the 6/11 one at 0.5, so the knot
        # interval between them holds no row
        phi = np.concatenate([gen.uniform(0.0, 0.4, 2727), np.full(600, 0.5),
                              gen.uniform(0.6, 1.0, n - 3327)])[:, None]
    else:
        phi = gen.beta(2.0, 3.0, (n, d))
    y = 300.0 * np.sin(2.0 * phi.sum(axis=1) / phi.max()) + gen.normal(0.0, 50.0, n)
    return phi, y


class TestGroupedDesign:
    """The design over distinct rows against the row-by-row accumulation.

    The per-cell sums differ from the row-by-row ones in summation order
    only, so the fits agree to round-off.  The discrete cases have 13 levels
    per column and no more basis functions than those levels identify (4
    knots per dimension in 2-D); they keep a looser bound, since with more
    knots than levels X'WX is singular but for the 1e-10 ridge.
    """

    @pytest.mark.parametrize("d, kind", [
        (1, "discrete"), (1, "continuous"), (1, "gap"),
        (2, "discrete"), (2, "continuous"), (3, "continuous"),
    ])
    def test_matches_row_by_row_fit(self, kind, d, monkeypatch):
        phi, y = _phi_and_response(kind, d, n=8000 if d == 3 else 6000)
        if d == 2:
            monkeypatch.setitem(_KNOTS, 2, 4)
        design = SplineDesign(phi)
        assert (design._values.shape[0] < y.size) == (kind != "continuous")
        if kind == "gap":
            assert len(design._cells) == len(design.knots[0])
        fit = design.fit(y)
        ref_fitted, ref_penalty = _row_by_row_fit(phi, y)
        weights = np.random.default_rng(5).multinomial(y.size, np.full(y.size, 1.0 / y.size))
        weights = weights.astype(float)
        boot = design.fit(y, weights=weights, penalty=fit.penalty_weight)
        ref_boot, _ = _row_by_row_fit(phi, y, weights, fit.penalty_weight)
        rel = 1e-8 if kind == "discrete" else 1e-10
        assert fit.penalty_weight == pytest.approx(ref_penalty, rel=rel)
        for got, ref in ((fit.fitted, ref_fitted), (boot.fitted, ref_boot)):
            assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))

    def test_refits_reuse_one_design(self):
        phi, y = _phi_and_response("discrete", 2)
        design = SplineDesign(phi)
        first = design.fit(y)
        assert np.array_equal(design.fit(y).fitted, first.fitted)
        assert np.array_equal(fit_conditional_mean(InbSamples.from_values(y), phi).fitted,
                              first.fitted)


def _plain_design(phi, knot_vectors):
    """Reference for `SplineDesign`: every distinct row's `_design_1d` tensor
    product in row order, then stable-sorted by cell.  Returns the sorted
    values, the cells, the design row of each row and the sorted first
    global index of each design row."""
    n = phi.shape[0]
    rows, inverse = np.unique(phi, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    if rows.shape[0] == n:
        rows, inverse = phi, np.arange(n)
    values, first = _plain_basis(rows, knot_vectors)
    order = np.argsort(first, kind="stable")
    first = first[order]
    starts = np.flatnonzero(np.r_[True, first[1:] != first[:-1]])
    cells = list(zip(starts.tolist(), np.r_[starts[1:], first.size].tolist()))
    rank = np.empty(first.size, dtype=np.intp)
    rank[order] = np.arange(first.size)
    return values[order], cells, rank[inverse], first


def _plain_basis(rows, knot_vectors):
    """(n, m) row-major tensor-product values and each row's first global index."""
    values = np.ones((rows.shape[0], 1))
    first = np.zeros(rows.shape[0], dtype=np.intp)
    for col, t in zip(rows.T, knot_vectors):
        v, i0 = _design_1d(col, t)
        values = (values[:, :, None] * v.T[:, None, :]).reshape(rows.shape[0], -1)
        first = first * (len(t) - _DEGREE - 1) + i0
    return values, first


def _plain_offsets(knot_vectors):
    sizes = [len(t) - _DEGREE - 1 for t in knot_vectors]
    local = np.indices((_DEGREE + 1,) * len(sizes)).reshape(len(sizes), -1)
    return np.ravel_multi_index(local, sizes)


def _pass_case(d, grouped):
    """More than _ROWS_PER_PASS design rows, with the columns strongly
    correlated so that the cells on the diagonal each hold more rows than a
    pass.  Grouped cases draw integers from a range wide enough that most
    rows, but not all, are distinct."""
    gen = np.random.default_rng(40 + 2 * d + grouped)
    n = {1: 300000, 2: 120000, 3: 60000}[d]
    if grouped:
        base = gen.integers(0, 10**6 if d > 1 else 2 * 10**5, n)
        cols = [base] + [base + gen.integers(0, 2, n) for _ in range(d - 1)]
    else:
        base = gen.beta(2.0, 3.0, n)
        cols = [base] + [base + gen.normal(0.0, 0.002, n) for _ in range(d - 1)]
    phi = np.column_stack(cols).astype(float)
    y = 300.0 * np.sin(4.0 * phi.mean(axis=1) / phi.max()) + gen.normal(0.0, 50.0, n)
    return phi, y


class TestSortedPasses:
    """`SplineDesign` evaluates the basis after the sort in passes of rows;
    `evaluate` builds coordinate-major values in passes too.  Both equal a
    plain build to the bit, and so does a fit whose weighted design covers
    every design row in one piece."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("grouped", [False, True], ids=["continuous", "grouped"])
    def test_design_fit_and_evaluate_equal_a_plain_build(self, d, grouped, monkeypatch):
        phi, y = _pass_case(d, grouped)
        design = SplineDesign(phi)
        values, cells, inverse, first = _plain_design(phi, design.knot_vectors)
        n_design, m = values.shape
        assert (n_design < phi.shape[0]) == grouped and n_design > _ROWS_PER_PASS
        assert max(hi - lo for lo, hi in cells) > _ROWS_PER_PASS
        assert np.array_equal(design._values, values)
        assert design._cells == cells
        assert np.array_equal(design._inverse, inverse)

        # normal equations from one [W X | W y]' of the design's full size:
        # one product per cell, added into place cell by cell
        monkeypatch.setattr(regression, "_PIECE_BYTES", 8 * (m + 1) * n_design)
        weights = np.random.default_rng(d).poisson(1.0, y.size).astype(float)
        row_w = np.bincount(inverse, weights, n_design)
        row_y = np.bincount(inverse, weights * y, n_design)
        wx = np.ascontiguousarray(np.r_[values.T * row_w, row_y[None]])
        p = design.n_basis
        offsets = _plain_offsets(design.knot_vectors)
        normal = np.zeros((p + 1, p))
        for lo, hi in cells:
            coefs = first[lo] + offsets
            normal[np.ix_(np.r_[coefs, p], coefs)] += wx[:, lo:hi] @ values[lo:hi]
        beta = _penalized_solve(normal[:p], normal[p], 3.0, design.penalty)
        fitted = np.empty((1, n_design))
        for lo, hi in cells:
            fitted[:, lo:hi] = beta[None, first[lo] + offsets] @ values[lo:hi].T
        pinned = design.fit(y, weights=weights, penalty=3.0)
        assert np.array_equal(pinned.coefficients, beta)
        assert np.array_equal(pinned.fitted, fitted[0, inverse])

        gen = np.random.default_rng(9)
        lo, hi = phi.min(axis=0), phi.max(axis=0)
        points = np.r_[phi[::7], gen.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo),
                                             (3000, d))]
        point_values, point_first = _plain_basis(points, design.knot_vectors)
        expected = point_values[:, 0] * beta[point_first + offsets[0]]
        for k in range(1, offsets.size):
            expected += point_values[:, k] * beta[point_first + offsets[k]]
        assert np.array_equal(pinned.evaluate(points), expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("grouped", [False, True], ids=["continuous", "grouped"])
    def test_pieces_that_cut_cells_give_the_uncut_fit(self, d, grouped, monkeypatch):
        """A fit's weighted design formed for 37 design rows, or a seventh of
        them, at a time: the pieces cut cells, whose sums then add up over
        pieces, and the fit equals one whose single piece cuts none.  The
        grouped cases take integers with several distinct rows per cell."""
        phi, y = _phi_and_response("continuous", d, n=8000 if d == 3 else 6000)
        if grouped:
            levels = {1: 1500, 2: 40, 3: 12}[d]
            phi = np.random.default_rng(d).integers(0, levels, phi.shape).astype(float)
        design = SplineDesign(phi)
        n_design, m = design._values.shape
        assert (n_design < y.size) == grouped
        monkeypatch.setattr(regression, "_PIECE_BYTES", 8 * (m + 1) * n_design)
        whole = design.fit(y)
        for rows in (37, n_design // 7):
            assert any(lo // rows != (hi - 1) // rows for lo, hi in design._cells)
            monkeypatch.setattr(regression, "_PIECE_BYTES", 8 * (m + 1) * rows)
            cut = design.fit(y)
            assert cut.penalty_weight == pytest.approx(whole.penalty_weight, rel=1e-12)
            for got, ref in ((cut.coefficients, whole.coefficients), (cut.fitted, whole.fitted)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))



def _replicates_by_full_fits(design, y, lam, gen, n_replicates):
    """Reference for `SplineDesign.bootstrap_voi`: each replicate from a full
    fit at the counts of its resample, `gen.integers(0, n, n)` in turn."""
    reps = []
    for _ in range(n_replicates):
        w = np.bincount(gen.integers(0, y.size, y.size), minlength=y.size).astype(float)
        reps.append(voi(design.fit(y, weights=w, penalty=lam).fitted).raw)
    return np.array(reps)


def _centred(phi_y):
    """The response less its mean.  A replicate is mean(max(0, f)) -
    max(0, mean(f)); with a response far from zero it is a small difference
    of large means, and summing in another order moves it by their rounding.
    Centred, the value is of the order of the response's spread."""
    phi, y = phi_y
    return phi, y - np.mean(y)


class TestBootstrapReplicates:
    """`SplineDesign.bootstrap_voi` refits blocks of bootstrap resamples at
    once, from their counts of draws of each design row.  Its sums run in
    another order than a fit's, so each replicate equals the full fit at its
    resample's counts up to round-off."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_replicates_equal_full_fits(self, d, kind):
        phi, y = _centred(_phi_and_response(kind, d, n=8000 if d == 3 else 6000))
        design = SplineDesign(phi)
        assert (design._values.shape[0] < y.size) == (kind == "discrete")
        lam = design.fit(y).penalty_weight
        got = design.bootstrap_voi(y, lam, np.random.default_rng(d), 5)
        ref = _replicates_by_full_fits(design, y, lam, np.random.default_rng(d), 5)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d, kind", [(1, "continuous"), (1, "discrete"),
                                         (2, "continuous"), (2, "discrete")])
    def test_blocks_and_pieces(self, d, kind, monkeypatch):
        """Blocks of 3 replicates for 7, and the weighted design formed for a
        fifth of the design rows at a time, so that pieces cut cells."""
        phi, y = _centred(_phi_and_response(kind, d, n=20000 if kind == "discrete" else 6000))
        design = SplineDesign(phi)
        lam = design.fit(y).penalty_weight
        whole = design.bootstrap_voi(y, lam, np.random.default_rng(5), 7)

        n_design, m = design._values.shape
        p, distinct = design.n_basis, n_design == y.size
        rows = max(2, n_design // 5)
        assert n_design > 2 * rows
        assert any(lo // rows != (hi - 1) // rows for lo, hi in design._cells)
        per_replicate = 8 * (n_design * (2 - distinct) + len(design._cells) * (m + 1) * m
                             + 2 * p * p)
        monkeypatch.setattr(regression, "_BLOCK_BYTES", 3 * per_replicate)
        monkeypatch.setattr(regression, "_PIECE_BYTES", 8 * 3 * (m + 1) * rows)
        blocks = []
        solve = regression._penalized_solve

        def recording_solve(xtx, *args, **kwargs):
            blocks.append(xtx.shape[0])
            return solve(xtx, *args, **kwargs)

        monkeypatch.setattr(regression, "_penalized_solve", recording_solve)
        got = design.bootstrap_voi(y, lam, np.random.default_rng(5), 7)
        assert blocks == [3, 3, 1]
        ref = _replicates_by_full_fits(design, y, lam, np.random.default_rng(5), 7)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0)

    def test_stacked_solve_equals_one_system_at_a_time(self):
        gen = np.random.default_rng(3)
        a = gen.normal(size=(5, 9, 9))
        xtx = a @ a.transpose(0, 2, 1)
        xty = gen.normal(size=(5, 9))
        penalty = _tensor_penalty((9,))
        stacked = _penalized_solve(xtx, xty, 0.5, penalty)
        for k in range(5):
            assert np.array_equal(stacked[k], _penalized_solve(xtx[k], xty[k], 0.5, penalty))
        in_place = xtx.copy()
        assert np.array_equal(_penalized_solve(in_place, xty, 0.5, penalty, overwrite=True),
                              stacked)
        assert not np.array_equal(in_place, xtx)


def _plain_penalty(sizes):
    """Reference for `_tensor_penalty`: the sum over dimensions of the
    Kronecker product of identities with that dimension's difference penalty."""
    total = 0.0
    for j, size in enumerate(sizes):
        d = np.diff(np.eye(size), n=2, axis=0)
        term = np.ones((1, 1))
        for k, other in enumerate(sizes):
            term = np.kron(term, d.T @ d if k == j else np.eye(other))
        total = total + term
    return total


class TestExactCuts:
    """The design's knots, its first dimension's basis and its penalty come
    from shortcuts that give the bits of the straightforward code."""

    @pytest.mark.parametrize("kind", ["short", "discrete", "continuous"])
    def test_knots_equal_the_filtered_quantiles(self, kind):
        gen = np.random.default_rng(sum(map(ord, kind)))
        for case in range(300):
            if kind == "short":
                x = gen.normal(size=int(gen.integers(2, 60)))
                if case % 2:
                    x = np.round(x)
            else:
                n = int(np.exp(gen.uniform(np.log(20), np.log(2e5))))
                x = (gen.integers(0, 40, n) * 0.37 if kind == "discrete"
                     else gen.lognormal(0.0, 1.5, n))
            for n_knots in (1, 5, 10):
                if x.min() == x.max():
                    with pytest.raises(SchemaError, match="constant"):
                        _interior_knots(np.sort(x), n_knots, "x")
                    continue
                qs = np.quantile(x, np.arange(1, n_knots + 1) / (n_knots + 1))
                expected = np.unique(qs[(qs > x.min()) & (qs < x.max())])
                assert np.array_equal(_interior_knots(np.sort(x), n_knots, "x"), expected), \
                    (case, x.size, n_knots)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_run_wise_basis_equals_the_gathers(self, stride):
        # `cell // stride` is the first dimension's interval of a design
        # whose other dimensions have `stride` cells between them
        gen = np.random.default_rng(stride)
        x = np.sort(gen.beta(2.0, 3.0, 20000))
        t = _knot_vector(x, _interior_knots(x, _KNOTS[1], "x"), _DEGREE)
        xc = _clamp(x, t)
        cell = np.sort(_first_basis(xc, t) * stride + gen.integers(0, stride, x.size))
        for lo, hi in [(0, x.size), (0, 1), (5000, 5001), (3000, 3500), (2000, 12000)]:
            assert np.array_equal(_bspline_runs(xc[lo:hi], cell[lo:hi], stride, t),
                                  _bspline_values(xc[lo:hi], cell[lo:hi] // stride, t))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["continuous", "discrete", "single_cell"])
    def test_design_equals_a_plain_build(self, d, kind):
        gen = np.random.default_rng(d)
        n = 30000
        if kind == "single_cell":
            # two levels per column: no interior knot, so one cell
            phi = gen.binomial(1, 0.3, (n, d)) * 2.5
        elif kind == "discrete":
            phi = gen.binomial(40, 0.3, (n, d)).astype(float)
        else:
            phi = gen.beta(2.0, 3.0, (n, d))
        design = SplineDesign(phi)
        assert (len(design._cells) == 1) == (kind == "single_cell")
        values, cells, inverse, _ = _plain_design(phi, design.knot_vectors)
        assert np.array_equal(design._values, values)
        assert design._cells == cells
        assert np.array_equal(design._inverse, inverse)

    def test_penalty_is_built_once_per_size_and_read_only(self):
        for sizes in [(5,), (14,), (14, 14), (6, 9), (9, 9, 9)]:
            cached = _tensor_penalty(sizes)
            assert _tensor_penalty(sizes) is cached
            assert np.array_equal(cached, _plain_penalty(sizes))
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0
        design = SplineDesign(np.random.default_rng(0).uniform(size=(5000, 2)))
        assert design.penalty is _tensor_penalty((14, 14))


class TestEvppi:
    def test_all_negative_fitted(self):
        fit = RegressionFit("polynomial_spline", [], 3, 0.0,
                            np.array([-3.0, -3.0]), 1.0)
        assert voi(fit.fitted).value == 0.0

    def test_symmetric_two_point(self):
        fit = RegressionFit("polynomial_spline", [], 3, 0.0,
                            np.array([-2.0, 2.0]), 1.0)
        assert voi(fit.fitted).value == pytest.approx(1.0)

    def test_two_param_against_nested_oracle(self, two_param):
        # outer loop over focal draws with the closed-form inner mean;
        # all conditional means are positive, so the truth is exactly zero
        _, _, _, fit = two_param
        gen = SeedSpec(77).generator()
        phi = gen.beta(1, 4, 10**4)
        inner = 10000.0 * phi + 2500.0
        oracle = np.mean(np.maximum(inner, 0)) - max(0.0, np.mean(inner))
        assert oracle == pytest.approx(0.0, abs=1e-9)
        se = np.std(inner) / 100
        assert abs(voi(fit.fitted).value - oracle) <= 3 * se

    def test_evppi_not_above_evpi(self, two_param):
        _, _, inb, fit = two_param
        evpi_val = np.mean(np.maximum(inb.inb_theta, 0)) - max(0, np.mean(inb.inb_theta))
        paired = np.maximum(fit.fitted, 0) - np.maximum(inb.inb_theta, 0)
        tol = 3 * np.std(paired, ddof=1) / np.sqrt(paired.size)
        assert voi(fit.fitted).value <= evpi_val + tol


class TestErrors:
    def test_constant_inb_is_degenerate(self):
        # var(y) is 0, so any round-off in the fitted values would exceed it
        y = InbSamples.from_values(np.full(2000, -2500.0))
        phi = np.random.default_rng(4).uniform(size=2000)
        with pytest.raises(DegenerateModelError, match="the INB is constant"):
            fit_conditional_mean(y, phi)

    def test_dimension_cap(self):
        y = InbSamples.from_values(np.zeros(50000))
        with pytest.raises(UnsupportedDimensionError):
            fit_conditional_mean(y, np.random.default_rng(0).uniform(size=(50000, 4)))

    def test_constant_column_named(self):
        y = InbSamples.from_values(np.random.default_rng(1).normal(size=1000))
        with pytest.raises(SchemaError, match="rate"):
            fit_conditional_mean(y, np.ones(1000), names=("rate",))

    def test_too_few_rows_for_basis(self):
        y = InbSamples.from_values(np.random.default_rng(2).normal(size=60))
        with pytest.raises(SchemaError, match="draws"):
            fit_conditional_mean(y, np.random.default_rng(3).uniform(size=60))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_focal_column_named_with_count(self, bad):
        phi = np.random.default_rng(3).uniform(size=(1000, 2))
        phi[[4, 70], 1] = bad
        y = InbSamples.from_values(np.random.default_rng(1).normal(size=1000))
        with pytest.raises(SchemaError, match="rate has 2 non-finite"):
            fit_conditional_mean(y, phi, names=("cost", "rate"))

    def test_non_finite_inb_counted(self):
        values = np.random.default_rng(1).normal(size=1000)
        values[9] = np.nan
        with pytest.raises(SchemaError, match="INB has 1 non-finite"):
            fit_conditional_mean(InbSamples.from_values(values),
                                 np.random.default_rng(3).uniform(size=1000))

    def test_row_count_mismatch(self):
        y = InbSamples.from_values(np.zeros(100))
        with pytest.raises(SchemaError):
            fit_conditional_mean(y, np.zeros(99))

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
    def test_names_must_match_the_columns(self, names):
        # a NaN in the second column, which too few names would leave unread
        phi = np.random.default_rng(5).uniform(size=(1000, 2))
        phi[3, 1] = np.nan
        with pytest.raises(SchemaError, match=f"{len(names)} names for 2 focal columns"):
            SplineDesign(phi, names=names)


class TestDesign1d:
    """The Cox-de Boor basis equals scipy's `BSpline.design_matrix` to the bit;
    scipy.interpolate is a test-only oracle here."""

    @staticmethod
    def _assert_equals_scipy(x, n_knots):
        t = _knot_vector(x, _interior_knots(np.sort(x), n_knots, "x"), _DEGREE)
        lo, hi = t[_DEGREE], t[-_DEGREE - 1]
        tt = t[_DEGREE:-_DEGREE]
        # the data, every knot, one ulp either side of it, and points out of range
        points = np.r_[x, tt, np.nextafter(tt, -np.inf), np.nextafter(tt, np.inf),
                       lo - 1.0, hi + 1.0, lo - 1e300, hi + 1e300, -np.inf, np.inf]
        vals, first = _design_1d(points, t)
        dm = BSpline.design_matrix(np.clip(points, lo, hi), t, _DEGREE).tocsr()
        n = points.size
        assert len(t) - _DEGREE - 1 == dm.shape[1]
        assert np.array_equal(vals.T, dm.data.reshape(n, _DEGREE + 1))
        assert np.array_equal(first[:, None] + np.arange(_DEGREE + 1),
                              dm.indices.reshape(n, _DEGREE + 1))

    @pytest.mark.parametrize("n_knots", range(1, 11))
    def test_continuous(self, n_knots):
        gen = np.random.default_rng(n_knots)
        for x in (gen.normal(3.0, 2.0, 3000), gen.beta(0.5, 2.0, 3000),
                  gen.lognormal(0.0, 1.5, 3000)):
            assert _interior_knots(np.sort(x), n_knots, "x").size == n_knots
            self._assert_equals_scipy(x, n_knots)

    @pytest.mark.parametrize("levels", [2, 3, 5, 8, 14])
    def test_discrete(self, levels):
        gen = np.random.default_rng(levels)
        x = gen.binomial(levels - 1, 0.3, 3000) * 0.37
        for n_knots in range(1, 11):
            self._assert_equals_scipy(x, n_knots)
