"""Quadrature plan and expected-posterior-variance tests."""

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

from evsikit.casemodels import (
    ConjugateToy,
    ades_net_benefit,
    analytic_preposterior,
    build_quadratic_normal,
    get_design,
    get_model,
)
from evsikit.model import PsaSamples, compute_inb, run_psa
from evsikit.momentmatch import EvsiOptions, estimate_evsi
from evsikit.posterior import NormalNormalUpdate, TwoArmTrialUpdate
from evsikit.preposterior import (
    _DATASET_SUB,
    _plan_scores,
    build_plan,
    expected_posterior_variance,
    run_posterior,
)
from evsikit.regression import fit_conditional_mean
from evsikit.rng import SeedSpec
from evsikit.util import ComputationError, gauss_hermite_expectation


def _axis_0_plan_scores(psa, names):
    """Reference for `_plan_scores`: the moments by axis-0 reductions over
    the (S, d) matrix of the columns."""
    z = psa.matrix(names)
    if len(names) == 1:
        return z[:, 0]
    z = (z - z.mean(axis=0)) / z.std(axis=0, ddof=1)
    _, eigvecs = np.linalg.eigh((z.T @ z) / (z.shape[0] - 1))
    pc1 = eigvecs[:, -1]
    if pc1[np.argmax(np.abs(pc1))] < 0:
        pc1 = -pc1
    return z @ pc1


class TestBuildPlan:
    def test_quantile_rows_of_uniform_column(self):
        model = get_model("beta_binomial")
        psa = run_psa(model, 1000, SeedSpec(1))
        plan = build_plan(psa, ("p_success",), 3, SeedSpec(2))
        sorted_col = np.sort(psa.column("p_success"))
        # nearest-rank indices 250, 500, 750
        assert plan.phi_points[:, 0] == pytest.approx(
            [sorted_col[249], sorted_col[499], sorted_col[749]]
        )

    def test_single_point_is_median_row(self):
        model = get_model("beta_binomial")
        psa = run_psa(model, 1001, SeedSpec(3))
        plan = build_plan(psa, ("p_success",), 1, SeedSpec(4))
        assert plan.phi_points[0, 0] == np.sort(psa.column("p_success"))[500]

    def test_ades_pse_points_nondecreasing(self):
        psa = run_psa(get_model("ades"), 5000, SeedSpec(5))
        plan = build_plan(psa, ("Pse",), 30, SeedSpec(6))
        assert np.all(np.diff(plan.phi_points[:, 0]) >= 0)

    def test_multidim_points_are_actual_rows(self):
        psa = run_psa(get_model("ades"), 5000, SeedSpec(7))
        plan = build_plan(psa, ("Pc", "Pt"), 10, SeedSpec(8))
        assert plan.spacing == "pca_rank"
        matrix = psa.matrix(("Pc", "Pt"))
        for q in range(10):
            assert np.array_equal(plan.phi_points[q], matrix[plan.row_indices[q]])

    @pytest.mark.parametrize("kind", ["continuous", "discrete", "discrete_2d", "pca_2d"])
    def test_rows_equal_the_stable_sort(self, kind):
        # ties at the selected ranks resolve to the lowest index first, as in
        # a stable sort; discrete columns put ties on most selected ranks
        rng = np.random.default_rng(sum(map(ord, kind)))
        for case in range(50):
            S = int(rng.integers(40, 3000))
            levels = int(rng.integers(2, 51))
            if kind == "continuous":
                cols = {"a": rng.normal(size=S)}
            elif kind == "discrete":
                cols = {"a": rng.integers(0, levels, S).astype(float)}
            elif kind == "discrete_2d":
                cols = {"a": rng.integers(0, levels, S).astype(float),
                        "b": rng.integers(0, 3, S).astype(float)}
            else:
                a = rng.normal(size=S)
                cols = {"a": a, "b": a + rng.normal(size=S)}
            psa = PsaSamples(columns=cols, param_names=tuple(cols), seed=SeedSpec(0))
            scores, _ = _plan_scores(psa, tuple(cols))
            for Q in (1, int(rng.integers(2, 40)), 40):
                plan = build_plan(psa, tuple(cols), Q, SeedSpec(1))
                ranks = np.array([min(max(int(np.floor(S * q / (Q + 1) + 0.5)), 1), S)
                                  for q in range(1, Q + 1)])
                expected = np.argsort(scores, kind="stable")[ranks - 1]
                assert np.array_equal(plan.row_indices, expected), (case, S, Q)

    @pytest.mark.parametrize("kind", ["continuous", "discrete", "discrete_2d", "pca_2d", "ades"])
    def test_rows_equal_those_of_axis_0_moments(self, kind):
        # the plan takes each column's mean and SD from cumulative sums, in
        # place of axis-0 reductions over the (S, d) matrix; discrete columns
        # tie at most ranks, so a change in the last bits would show
        rng = np.random.default_rng(sum(map(ord, kind)) + 1)
        model = get_model("ades")
        for case in range(50):
            if kind == "ades":
                psa = run_psa(model, 20000, SeedSpec(case))
                names = ("Pc", "Pt")
            else:
                S = int(rng.integers(40, 3000))
                levels = int(rng.integers(2, 51))
                if kind == "continuous":
                    cols = {"a": rng.normal(size=S)}
                elif kind == "discrete":
                    cols = {"a": rng.integers(0, levels, S).astype(float)}
                elif kind == "discrete_2d":
                    cols = {"a": rng.integers(0, levels, S).astype(float),
                            "b": rng.integers(0, 3, S).astype(float)}
                else:
                    a = rng.normal(size=S)
                    cols = {"a": a, "b": a + rng.normal(size=S)}
                psa = PsaSamples(columns=cols, param_names=tuple(cols), seed=SeedSpec(0))
                names = tuple(cols)
            scores = _axis_0_plan_scores(psa, names)
            S = psa.n_draws
            for Q in (1, 10, 30, 40):
                plan = build_plan(psa, names, Q, SeedSpec(1))
                ranks = np.array([min(max(int(np.floor(S * q / (Q + 1) + 0.5)), 1), S)
                                  for q in range(1, Q + 1)])
                expected = np.argsort(scores, kind="stable")[ranks - 1]
                assert np.array_equal(plan.row_indices, expected), (case, S, Q)

    def test_q_exceeding_draws_rejected(self):
        psa = run_psa(get_model("beta_binomial"), 50, SeedSpec(9))
        with pytest.raises(ValueError):
            build_plan(psa, ("p_success",), 51, SeedSpec(10))

    def test_q_must_be_positive(self):
        psa = run_psa(get_model("beta_binomial"), 50, SeedSpec(9))
        with pytest.raises(ValueError):
            build_plan(psa, ("p_success",), 0, SeedSpec(10))


class TestRunPosterior:
    def test_conjugate_beta_binomial_run(self):
        # Beta(4, 8) by the 24-node rule in the logit frame
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        dataset = {"x": np.array([3.0])}
        nodes, weights = design.recipe.nodes_and_weights(dataset, "posterior")
        nodes = nodes["p_success"]
        assert nodes.shape == weights.shape == (1, 24)
        assert weights @ nodes[0] / weights.sum() == pytest.approx(1 / 3, rel=1e-8)
        # INB = 20000 p - 10000, so the posterior INB variance is 4e8 Var(p);
        # the rule's Var(p) is about 1e-8 off here
        variance = run_posterior(design, dataset, model)
        assert variance == pytest.approx(4e8 * 32.0 / 1872.0, rel=1e-7)

    @pytest.mark.parametrize("model_name, design_name", [
        ("ades", "study1"), ("ades", "study2"), ("exp_gamma", "trial"),
        ("two_param_linear", "null"),
    ])
    def test_conjugate_batch_equals_point_by_point_runs(self, model_name, design_name):
        # one rule over all points gives each point exactly what
        # run_posterior gives it alone
        model = get_model(model_name)
        design = get_design(model, design_name)
        psa = run_psa(model, 5000, SeedSpec(24))
        inb = compute_inb(model, psa)
        fit = fit_conditional_mean(inb, psa.matrix(design.recipe.informed_params))
        plan = build_plan(psa, design.recipe.informed_params, 5, SeedSpec(25))
        ve = expected_posterior_variance(plan, design, model, fit.fitted, fit)
        batch = design.simulate_batch(plan.rows(), plan.seed.derive(_DATASET_SUB))
        for q in range(plan.Q):
            dataset = {k: v[q : q + 1] for k, v in batch.items()}
            assert run_posterior(design, dataset, model, fit) == ve.per_point[q]
            nodes, weights = design.recipe.nodes_and_weights(dataset, "posterior")
            assert weights.shape == (1, 24)
            assert set(nodes) == set(design.recipe.informed_params)
        assert ve.posterior_method == {"method": "gauss_hermite", "k": 24}


@pytest.fixture(scope="module")
def quadratic_setup():
    model = build_quadratic_normal()
    design = get_design(model, "trial")
    psa = run_psa(model, 10000, SeedSpec(13))
    inb = compute_inb(model, psa)
    return model, design, psa, inb


class TestExpectedPosteriorVariance:
    def test_normal_normal_per_point_variance_constant(self):
        # the posterior variance never depends on the simulated data here
        model = get_model("normal_normal", k=10000.0)
        design = get_design(model, "trial", n=9)
        psa = run_psa(model, 20000, SeedSpec(14))
        inb = compute_inb(model, psa)
        plan = build_plan(psa, design.recipe.informed_params, 10, SeedSpec(15))
        ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
        exact = 10000.0**2 * 0.1
        assert np.all(np.abs(ve.per_point / exact - 1.0) <= 0.06)
        assert np.std(ve.per_point) / np.mean(ve.per_point) <= 0.05
        # closed-form sigma2 = k^2 * 0.9 up to sampling error in both terms
        assert ve.sigma2 == pytest.approx(10000.0**2 * 0.9, rel=0.02)

    def test_quadratic_sigma2_tracks_closed_form(self):
        # per-replicate sigma2 carries sampling noise of roughly +-2.4 from
        # the prior-variance estimate, so compare the replicate mean against
        # the closed form (plus the small upward spacing bias at Q=50)
        model = build_quadratic_normal()
        design = get_design(model, "trial")
        truth = analytic_preposterior(ConjugateToy("quadratic_normal", 10)).variance
        values = []
        for r in range(10):
            seed = SeedSpec(160 + r)
            psa = run_psa(model, 10000, seed.derive(0))
            inb = compute_inb(model, psa)
            plan = build_plan(psa, design.recipe.informed_params, 50, seed.derive(1))
            ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
            values.append(ve.sigma2)
        assert truth - 2.5 <= np.mean(values) <= truth * 1.06 + 2.5
        assert not ve.clamped

    def test_per_point_below_prior_variance_when_inb_linear(self):
        # contraction carries over to the INB only when the INB is linear in
        # the updated parameter (a squared effect can magnify extreme data)
        model = get_model("normal_normal", k=10000.0)
        design = get_design(model, "trial", n=9)
        psa = run_psa(model, 20000, SeedSpec(17))
        inb = compute_inb(model, psa)
        plan = build_plan(psa, design.recipe.informed_params, 30, SeedSpec(170))
        ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
        prior = np.var(inb.inb_theta, ddof=1)
        mc_se = ve.per_point * np.sqrt(2.0 / 1999)
        assert np.all(ve.per_point <= prior + 4 * mc_se)

    def test_sigma2_bounded_by_conditional_variance(self, quadratic_setup):
        model, design, psa, inb = quadratic_setup
        plan = build_plan(psa, design.recipe.informed_params, 30, SeedSpec(18))
        ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
        # single-parameter model: the conditional INB is the INB itself
        assert ve.sigma2 <= np.var(inb.inb_theta, ddof=1) * 1.05

    def test_more_points_reduce_error_on_average(self):
        # replicate seeds; the Q=100 spacing covers the distribution better
        model = build_quadratic_normal()
        design = get_design(model, "trial")
        reference = 35.20
        errs = {10: [], 100: []}
        for r in range(20):
            seed = SeedSpec(100 + r)
            psa = run_psa(model, 10000, seed.derive(0))
            inb = compute_inb(model, psa)
            for Q in (10, 100):
                plan = build_plan(psa, design.recipe.informed_params, Q, seed.derive(Q))
                ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
                errs[Q].append(abs(ve.sigma2 - reference))
        assert np.mean(errs[100]) < np.mean(errs[10])

    def test_clamped_when_study_uninformative(self):
        # null data keep the posterior equal to the prior, so the raw
        # difference is pure noise; this seed lands on the negative side
        model = get_model("beta_binomial")
        design = get_design(model, "null")
        psa = run_psa(model, 2000, SeedSpec(4))
        inb = compute_inb(model, psa)
        plan = build_plan(psa, design.recipe.informed_params, 5, SeedSpec(1004))
        with pytest.warns(UserWarning, match="clamped"):
            ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
        assert ve.clamped and ve.sigma2 == 0.0

    def test_metadata_for_reporting(self, quadratic_setup):
        model, design, psa, inb = quadratic_setup
        plan = build_plan(psa, design.recipe.informed_params, 5, SeedSpec(19))
        ve = expected_posterior_variance(plan, design, model, inb.inb_theta)
        assert len(ve.dataset_summaries) == 5
        assert ve.phi_points.shape == (5, 1)
        assert ve.phi_names == ("effect",)

    @pytest.mark.parametrize("design_name", ["study3", "study4"])
    def test_batched_posteriors_equal_point_by_point_runs(self, design_name):
        # one rule over all points must give each point exactly what
        # run_posterior gives it alone
        model = get_model("ades")
        design = get_design(model, design_name)
        psa = run_psa(model, 5000, SeedSpec(20))
        inb = compute_inb(model, psa)
        fit = fit_conditional_mean(inb, psa.matrix(design.recipe.informed_params))
        plan = build_plan(psa, design.recipe.informed_params, 5, SeedSpec(21))
        ve = expected_posterior_variance(plan, design, model, fit.fitted, fit)
        batch = design.simulate_batch(plan.rows(), plan.seed.derive(_DATASET_SUB))
        variances = []
        for q in range(plan.Q):
            dataset = {k: v[q : q + 1] for k, v in batch.items()}
            variances.append(run_posterior(design, dataset, model, fit))
            nodes, weights = design.recipe.nodes_and_weights(dataset, "posterior")
            assert weights.shape == (1, 24 * 24)
            assert set(nodes) == {"Pc", "log_or", "Pt"}
        assert np.array_equal(ve.per_point, variances)
        assert ve.posterior_method == {"method": "gauss_hermite", "k": 24}

    def test_datasets_are_one_batch_from_one_stream(self, monkeypatch):
        # the Q datasets are the rows of one simulate call on the plan's seed
        model = get_model("ades")
        design = get_design(model, "study3")
        psa = run_psa(model, 5000, SeedSpec(26))
        fit = fit_conditional_mean(compute_inb(model, psa), psa.matrix(design.recipe.informed_params))
        plan = build_plan(psa, design.recipe.informed_params, 30, SeedSpec(27))
        seeds = []
        generator = SeedSpec.generator

        def counted(self):
            seeds.append(self)
            return generator(self)

        monkeypatch.setattr(SeedSpec, "generator", counted)
        ve = expected_posterior_variance(plan, design, model, fit.fitted, fit)
        assert seeds == [plan.seed.derive(_DATASET_SUB)]
        batch = design.simulate_batch(plan.rows(), plan.seed.derive(_DATASET_SUB))
        assert ve.dataset_summaries == [f"dc={dc:g} dt={dt:g}"
                                        for dc, dt in zip(batch["dc"], batch["dt"])]

    def test_a_failed_batch_is_named(self):
        # no single point can be named when the one simulate call fails
        model = get_model("normal_normal")
        design = get_design(model, "trial")
        psa = run_psa(model, 2000, SeedSpec(28))
        plan = build_plan(psa, design.recipe.informed_params, 4, SeedSpec(29))

        def fail(*args):
            raise RuntimeError("boom")

        for broken, what in ((dataclasses.replace(design, simulate_batch=fail), "datasets"),
                             (dataclasses.replace(design, recipe=None), "posteriors")):
            with pytest.raises(ComputationError, match=rf"^\[posterior_variance\] the {what} "
                                                       r"of the 4 quadrature points failed: "):
                expected_posterior_variance(plan, broken, model, compute_inb(model, psa).inb_theta)

    def test_inb_needs_draws_of_every_parameter(self):
        # without a fit, g is the INB, and study3's posterior leaves Pse and
        # logit_qe undrawn
        model = get_model("ades")
        design = get_design(model, "study3")
        psa = run_psa(model, 5000, SeedSpec(20))
        plan = build_plan(psa, design.recipe.informed_params, 2, SeedSpec(21))
        with pytest.raises(ComputationError, match=r"no posterior draws of \['Pse', 'logit_qe'\]"):
            expected_posterior_variance(plan, design, model, compute_inb(model, psa).inb_theta)


class TestConjugateNodeCount:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("design_name", ["study1", "study2"])
    def test_shipped_nodes_agree_with_128_on_sigma2(self, design_name, seed):
        # the fitted spline as g, as the estimator runs it
        model = get_model("ades")
        design = get_design(model, design_name)
        finer = dataclasses.replace(design, recipe=dataclasses.replace(design.recipe, nodes=128))
        psa = run_psa(model, 20000, SeedSpec(seed))
        inb = compute_inb(model, psa)
        fit = fit_conditional_mean(inb, psa.matrix(design.recipe.informed_params))
        plan = build_plan(psa, design.recipe.informed_params, 30, SeedSpec(seed).derive(1))
        got, want = (expected_posterior_variance(plan, d, model, fit.fitted, fit)
                     for d in (design, finer))
        assert got.posterior_method == {"method": "gauss_hermite", "k": 24}
        assert want.posterior_method == {"method": "gauss_hermite", "k": 128}
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-4)


def _nan_draw_at_point(monkeypatch, recipe_cls, point):
    """Patch `recipe_cls` so the nodes of quadrature point `point` hold one
    NaN: a recipe returns the nodes of all points in one call, as rows of
    each column."""
    original = recipe_cls.nodes_and_weights

    def nodes_and_weights(self, dataset, stage):
        nodes, weights = original(self, dataset, stage)
        next(iter(nodes.values()))[point - 1, 7] = np.nan
        return nodes, weights

    monkeypatch.setattr(recipe_cls, "nodes_and_weights", nodes_and_weights)


class TestNonFinitePosteriorDraws:
    @pytest.mark.parametrize("model_name, design_name, recipe_cls", [
        ("normal_normal", "trial", NormalNormalUpdate),
        ("ades", "study3", TwoArmTrialUpdate),
    ])
    def test_nan_draw_names_the_point(self, monkeypatch, model_name, design_name, recipe_cls):
        model = get_model(model_name)
        design = get_design(model, design_name)
        psa = run_psa(model, 5000, SeedSpec(22))
        plan = build_plan(psa, design.recipe.informed_params, 4, SeedSpec(23))
        _nan_draw_at_point(monkeypatch, recipe_cls, 3)
        with pytest.raises(ComputationError,
                           match=r"^\[posterior\] 1 non-finite value\(s\) of .* point 3/4$"):
            expected_posterior_variance(plan, design, model, compute_inb(model, psa).inb_theta)


class _TrialMean:
    """The exact conditional mean of the ades INB given (Pc, Pt), which is
    linear in them, in the place of a fit."""

    def __init__(self, model):
        p = self.params = model.params
        self.e_pse = p["pse_alpha"] / (p["pse_alpha"] + p["pse_beta"])
        self.e_qe = float(gauss_hermite_expectation(expit, p["logit_qe_mean"],
                                                    p["logit_qe_var"]))

    def evaluate(self, points):
        nb1, nb2 = ades_net_benefit(points[:, 0], self.e_pse, points[:, 1], self.e_qe,
                                    self.params)
        return nb2 - nb1


class TestTwoArmPosteriorVariance:
    """The ades two-arm trial's posterior variances of g, by the 24 x 24
    adaptive Gauss-Hermite rule over (logit Pc, log OR)."""

    @staticmethod
    def _grid_variance(model, design, g, dc, dt):
        """Var(g | dc, dt) on a 601 x 601 grid over the posterior mean +- 14 sd
        of (logit Pc, log OR), both read off a coarse grid first: no mode,
        Hessian or node rule."""
        posterior = design.recipe

        def weights(x0, x1):
            lp = posterior.log_density(x0.ravel(), x1.ravel(), dc, dt)
            w = np.exp(lp - lp.max())
            return x0.ravel(), x1.ravel(), w / w.sum()

        x0, x1, w = weights(*np.meshgrid(np.linspace(-12, 8, 801), np.linspace(-10, 10, 801)))
        axes = []
        for x in (x0, x1):
            mean = w @ x
            sd = np.sqrt(w @ (x - mean) ** 2)
            axes.append(np.linspace(mean - 14 * sd, mean + 14 * sd, 601))
        x0, x1, w = weights(*np.meshgrid(*axes))
        values = g.evaluate(np.column_stack([expit(x0), expit(x0 + x1)]))
        return w @ (values - w @ values) ** 2

    def test_variances_match_a_fine_grid(self):
        # with the exact conditional mean as g, whose variance is smooth in
        # the data; a fitted spline's knots and its clip at the boundary knots
        # leave the rule about 3e-3 from the grid per point at 24 nodes
        model = get_model("ades")
        design = get_design(model, "study3")
        g = _TrialMean(model)
        n = float(design.recipe.n)
        psa = run_psa(model, 4, SeedSpec(51))
        ds = design.simulate(psa.columns, SeedSpec(52))
        pairs = list(zip(ds["dc"], ds["dt"])) + [(0.0, 0.0), (0.0, n), (n, 0.0), (n, n)]
        for dc, dt in pairs:
            got = run_posterior(design, {"dc": np.array([dc]), "dt": np.array([dt])}, model, g)
            want = self._grid_variance(model, design, g, dc, dt)
            assert got == pytest.approx(want, rel=1e-6), (dc, dt)

    @pytest.mark.parametrize("seed", [3, 9, 15])
    def test_24_nodes_agree_with_48_on_sigma2(self, seed):
        model = get_model("ades")
        design = get_design(model, "study3")
        finer = dataclasses.replace(design, recipe=dataclasses.replace(design.recipe, nodes=48))
        psa = run_psa(model, 20000, SeedSpec(seed))
        inb = compute_inb(model, psa)
        fit = fit_conditional_mean(inb, psa.matrix(design.recipe.informed_params))
        plan = build_plan(psa, design.recipe.informed_params, 30, SeedSpec(seed).derive(1))
        got, want = (expected_posterior_variance(plan, d, model, fit.fitted, fit)
                     for d in (design, finer))
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-3)
        assert not np.array_equal(got.per_point, want.per_point)
        assert want.posterior_method == {"method": "gauss_hermite", "k": 48}

    @pytest.mark.parametrize("design_name", ["study3", "study4"])
    def test_outputs_do_not_depend_on_m_burn_in_or_posterior_seeds(self, design_name):
        # no recipe draws, so none has a posterior seed either
        model = get_model("ades")
        design = get_design(model, design_name)
        psa = run_psa(model, 5000, SeedSpec(53))

        def run(M, burn_in):
            result = estimate_evsi(model, design, psa,
                                   EvsiOptions(Q=5, M=M, burn_in=burn_in, seed=SeedSpec(54)))
            return result.to_json_dict(), result.rescaled

        want, rescaled = run(1500, 500)
        assert want["posterior_method"] == {"method": "gauss_hermite", "k": 24}
        for M, burn_in in ((1500, 500), (1, 0), (20000, 5000)):
            got, got_rescaled = run(M, burn_in)
            assert got == want
            assert np.array_equal(got_rescaled, rescaled)
