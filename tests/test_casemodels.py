"""Built-in models, study designs, and closed-form preposterior values."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import expit, logit

from evsikit.casemodels import (
    _REGISTRY,
    _ades_inb_at_means,
    _ades_prior_means,
    _exp_gamma_exact,
    _normal_normal_exact,
    _quadratic_normal_exact,
    _unit_leggauss,
    ConjugateToy,
    ades_net_benefit,
    analytic_preposterior,
    build_ades,
    build_exp_gamma,
    build_normal_normal,
    build_quadratic_normal,
    get_design,
    get_model,
    list_designs,
    list_models,
    quadratic_exact_evsi,
)
from evsikit.model import DecisionModel, compute_inb, run_psa
from evsikit.rng import SeedSpec
from evsikit.util import ComputationError, ConfigError, gauss_hermite_expectation


class TestAdesNetBenefit:
    def test_no_event_risk_standard_arm(self):
        nb1, _ = ades_net_benefit(pc=0.0, pse=0.0, pt=0.0, qe=0.5)
        assert nb1 == pytest.approx(2_250_000.0)

    def test_certain_event_full_quality(self):
        nb1, _ = ades_net_benefit(pc=1.0, pse=0.0, pt=0.0, qe=1.0)
        assert nb1 == pytest.approx(2_050_000.0)

    def test_certain_side_effects_and_event(self):
        _, nb2 = ades_net_benefit(pc=0.0, pse=1.0, pt=1.0, qe=1.0)
        assert nb2 == pytest.approx(1_860_000.0)

    def test_vectorised(self):
        nb1, nb2 = ades_net_benefit(
            pc=np.array([0.0, 1.0]),
            pse=np.zeros(2),
            pt=np.zeros(2),
            qe=np.array([0.5, 1.0]),
        )
        assert nb1 == pytest.approx([2_250_000.0, 2_050_000.0])
        assert nb2.shape == (2,)


class TestFutureData:
    def test_no_side_effects_gives_zero_count(self):
        design = get_design(get_model("ades"), "study1")
        ds = design.simulate_batch({"Pse": np.array([0.0])}, SeedSpec(1))
        assert ds["x"][0] == 0.0

    def test_certain_events_fill_both_arms(self):
        design = get_design(get_model("ades"), "study3")
        ds = design.simulate_batch({"Pc": np.array([1.0]), "Pt": np.array([1.0])}, SeedSpec(2))
        assert ds["dc"][0] == 200.0 and ds["dt"][0] == 200.0

    def test_control_arm_count_mean(self):
        design = get_design(get_model("ades"), "study4")
        cols = {"Pc": np.full(10000, 0.15), "Pt": np.full(10000, 0.038)}
        ds = design.simulate_batch(cols, SeedSpec(3))
        se = np.sqrt(200 * 0.15 * 0.85 / 10000)
        assert abs(ds["dc"].mean() - 30.0) <= 4 * se

    def test_study2_response_shape(self):
        # one total of the 100 responses per row, not a (1, 100) array
        design = get_design(get_model("ades"), "study2")
        ds = design.simulate_batch({"logit_qe": np.array([0.6])}, SeedSpec(4))
        assert ds["response_total"].shape == (1,)
        assert design.recipe.n == 100
        assert design.summarize_batch(ds)[0, 0] == pytest.approx(ds["response_total"][0] / 100)

    def test_normal_total_law(self):
        # total of n Normal(mu, obs_var) observations: mean n*mu, variance n*obs_var
        n, mu, obs_var, rows = 100, 0.6, 2.0, 100_000
        design = get_design(get_model("ades", logit_qe_obs_var=obs_var), "study2", n=n)
        cols = {"logit_qe": np.full(rows, mu)}
        total = design.simulate_batch(cols, SeedSpec(5))["response_total"]
        var = n * obs_var
        assert abs(total.mean() - n * mu) <= 4 * np.sqrt(var / rows)
        # Var of the sample variance of normals is 2 var^2 / (rows - 1)
        assert abs(total.var(ddof=1) - var) <= 4 * var * np.sqrt(2.0 / (rows - 1))

    def test_exponential_total_law(self):
        n, rate, rows = 10, 4.0, 100_000
        design = get_design(get_model("exp_gamma"), "trial", n=n)
        cols = {"event_rate": np.full(rows, rate)}
        total = design.simulate_batch(cols, SeedSpec(6))["obs_total"]
        assert total.shape == (rows,)
        assert stats.kstest(total, stats.gamma(n, scale=1.0 / rate).cdf).pvalue > 1e-3


class TestAnalyticPreposterior:
    def test_flat_prior_binomial_single_patient(self):
        toy = ConjugateToy("beta_binomial_uniform", 1)
        summary = analytic_preposterior(toy)
        # independent enumeration: X in {0, 1}, each with probability 1/2
        mus = [20000 * (1 + x) / 3 - 10000 for x in (0, 1)]
        expected = sum(max(0.0, m) for m in mus) / 2 - max(0.0, 0.0)
        assert summary.evsi == pytest.approx(expected)
        assert summary.evsi == pytest.approx(5000.0 / 3.0)

    def test_flat_prior_variance_matches_enumeration(self):
        toy = ConjugateToy("beta_binomial_uniform", 7)
        summary = analytic_preposterior(toy)
        mus = np.array([20000 * (1 + x) / 9 - 10000 for x in range(8)])
        assert summary.variance == pytest.approx(np.var(mus))
        assert summary.mean == pytest.approx(np.mean(mus))

    def test_normal_normal_preposterior_variance(self):
        toy = ConjugateToy("normal_normal", 9, params={"k": 1.0})
        assert analytic_preposterior(toy).variance == pytest.approx(0.9)

    def test_exp_gamma_no_data_case(self):
        toy = ConjugateToy("exp_gamma", 0)
        summary = analytic_preposterior(toy)
        assert summary.mean == pytest.approx(900.0)
        assert summary.variance == 0.0
        assert summary.evsi == 0.0

    def test_exp_gamma_evsi_against_quadrature(self):
        # independent oracle: integrate the scaled-Beta law of the posterior
        # mean; INB | data has mean g * B - 1000 with B ~ Beta(alpha, N)
        for N in (5, 10, 20, 50):
            toy = ConjugateToy("exp_gamma", N)
            g = 200.0 * (5 + N) / 1.0

            def integrand(b):
                return max(0.0, g * b - 1000.0) * stats.beta.pdf(b, 5, N)

            expected, _ = integrate.quad(integrand, 0, 1, limit=200)
            assert analytic_preposterior(toy).evsi == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("k", [-200.0, 0.0])
    def test_exp_gamma_closed_form_refuses_k_at_most_0(self, k):
        # it returned EVSI -100 at k=-200, c0=-1000, N=10 (nested MC reads
        # about 96), and divided by zero at k=0
        for c0 in (-1000.0, 900.0):
            with pytest.raises(ConfigError, match="closed form needs k > 0"):
                analytic_preposterior(ConjugateToy("exp_gamma", 10, params={"k": k, "c0": c0}))

    def test_exp_gamma_certain_adoption_is_exactly_0(self):
        # c0 + c1 <= 0 with k > 0: the INB is positive on every draw; the
        # closed form used to return round-off such as -2.3e-13
        toy = ConjugateToy("exp_gamma", 7, params={"alpha": 1.3, "beta": 0.3, "c0": -900.0})
        assert analytic_preposterior(toy).evsi == 0.0
        for alpha, beta, c0, N in itertools.product((0.5, 1.3, 5.0), (0.3, 1.0, 3.0),
                                                    (-1500.0, -900.0, -100.0), (1, 7, 50)):
            params = {"alpha": alpha, "beta": beta, "c0": c0}
            assert analytic_preposterior(ConjugateToy("exp_gamma", N, params=params)).evsi == 0.0

    def test_exp_gamma_variance_against_beta_moments(self):
        toy = ConjugateToy("exp_gamma", 10)
        g = 200.0 * 15.0
        expected = g**2 * stats.beta.var(5, 10)
        assert analytic_preposterior(toy).variance == pytest.approx(expected, rel=1e-12)

    def test_flat_prior_evsi_nondecreasing_in_sample_size(self):
        values = [
            analytic_preposterior(ConjugateToy("beta_binomial_uniform", n)).evsi
            for n in (0, 1, 2, 5, 10, 50, 100)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(variant=st.sampled_from(["beta_binomial_uniform", "exp_gamma", "normal_normal",
                                    "quadratic_normal"]),
           shift=st.floats(-1.0, 1.0))
    def test_evsi_nondecreasing_in_sample_size_for_every_toy(self, variant, shift):
        # `shift` moves the cost across the decision threshold of each toy;
        # the quadratic toy has no cost, so it moves the prior variance
        params = {"beta_binomial_uniform": {"c": 10000.0 * (1.0 + shift)},
                  "exp_gamma": {"c0": 900.0 + 1000.0 * shift},
                  "normal_normal": {"c": 10000.0 * shift},
                  "quadratic_normal": {"prior_var": 5.0 + 4.0 * shift}}[variant]
        values = [analytic_preposterior(ConjugateToy(variant, n, params=params)).evsi
                  for n in (*range(0, 41), 100, 1000, 10000)]
        assert all(b >= a - 1e-9 * (1.0 + a) for a, b in zip(values, values[1:]))

    def test_normal_normal_variance_converges_to_prior_inb_variance(self):
        k, prior_var = 10000.0, 1.0
        values = [
            analytic_preposterior(
                ConjugateToy("normal_normal", n, params={"k": k})
            ).variance
            for n in (1, 2, 5, 10, 100, 1000, 100000)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(k**2 * prior_var, rel=1e-3)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            ConjugateToy("weird", 3)

    @pytest.mark.parametrize("name", [name for name, entry in _REGISTRY.items()
                                      if entry.toy_variant])
    def test_every_toy_variant_has_closed_forms_that_vanish_without_data(self, name):
        entry = _REGISTRY[name]
        assert entry.exact is not None
        summary = analytic_preposterior(ConjugateToy(entry.toy_variant, 0))
        assert summary.variance == 0.0
        assert summary.evsi == 0.0


class TestClosedFormsWithoutScipyStats:
    """The closed forms call scipy.special as scipy.stats does, so they equal
    the scipy.stats expressions they replace, restated here, to the bit."""

    N_VALUES = (0, 1, 3, 10, 100, 5000)

    def test_normal_normal(self):
        for theta0, prior_var, obs_var, k, c, N in itertools.product(
                (-1.0, 0.0, 0.3), (0.5, 1.0, 4.0), (0.5, 2.0), (1.0, 1e4), (-700.0, 0.0, 2500.0),
                self.N_VALUES):
            p = build_normal_normal(theta0, prior_var, obs_var, k, c).params
            m = p["k"] * p["theta0"] - p["c"]
            if N == 0:
                old = 0.0
            else:
                s = np.sqrt(p["k"] ** 2 * p["prior_var"] ** 2 / (p["obs_var"] / N + p["prior_var"]))
                value = s * stats.norm.pdf(m / s) + m * stats.norm.cdf(m / s)
                old = max(0.0, float(value) - max(0.0, m))
            assert _normal_normal_exact(p, N).evsi == old

    def test_quadratic_normal(self):
        for prior_var, obs_var, N in itertools.product((0.5, 5.0, 9.0), (1.0, 10.0, 100.0),
                                                       self.N_VALUES):
            p = build_quadratic_normal(prior_var, obs_var).params
            tau2 = p["prior_var"] - 1.0 / (1.0 / p["prior_var"] + N / p["obs_var"])
            old = float(tau2 * 2.0 * stats.norm.pdf(1.0))
            assert _quadratic_normal_exact(p, N).evsi == old

    def test_exp_gamma(self):
        betainc_cases = 0
        for alpha, beta, k, c0, N in itertools.product(
                (0.5, 2.0, 5.0), (0.5, 1.0, 3.0), (50.0, 200.0), (-1500.0, 0.0, 900.0, 5000.0),
                self.N_VALUES):
            p = build_exp_gamma(alpha, beta, k, c0, 100.0).params
            a, b = p["alpha"], p["beta"]
            c_total = p["c0"] + p["c1"]
            g = p["k"] * (a + N) / b
            prior_term = max(0.0, p["k"] * a / b - c_total)
            if N == 0 or c_total <= 0:
                # the INB is positive on every draw when c0 + c1 <= 0: exactly 0
                old = 0.0
            elif c_total / g >= 1.0:
                old = 0.0
            else:
                b_star = c_total / g
                value = (g * (a / (a + N)) * stats.beta.sf(b_star, a + 1, N)
                         - c_total * stats.beta.sf(b_star, a, N))
                old = max(0.0, float(value) - prior_term)
                betainc_cases += 1
            assert _exp_gamma_exact(p, N).evsi == old
        assert betainc_cases > 50

    # the log-form density's round-off grows with its log terms, so with a
    # Beta(200, 40) prior on Pc the two prior means agree to 7e-14 only
    @pytest.mark.parametrize("pc_alpha, pc_beta, rel", [
        (None, None, 1e-14), (1.0, 1.0, 1e-14), (0.6, 3.0, 1e-14), (50.0, 50.0, 1e-14),
        (200.0, 40.0, 1e-13)])
    def test_ades_prior_means_match_the_scipy_beta_pdf(self, pc_alpha, pc_beta, rel):
        overrides = {} if pc_alpha is None else {"pc_alpha": pc_alpha, "pc_beta": pc_beta}
        p = build_ades(**overrides).params
        nodes, weights = _unit_leggauss()
        dens = stats.beta.pdf(nodes, p["pc_alpha"], p["pc_beta"])
        inner = gauss_hermite_expectation(expit, logit(nodes) + p["log_or_mean"], p["log_or_var"])
        old_pt = float(np.sum(weights * dens * inner))
        assert _ades_prior_means(p)["Pt"] == pytest.approx(old_pt, rel=rel, abs=0.0)


class TestQuadraticModel:
    def test_exact_evsi_value(self):
        # tau^2 = 5 - 1/1.2 = 25/6; EVSI = tau^2 * 2 * pdf(1)
        model = build_quadratic_normal()
        assert quadratic_exact_evsi(model, 10) == pytest.approx(2.0164227, abs=1e-6)
        summary = analytic_preposterior(ConjugateToy("quadratic_normal", 10))
        assert summary.variance == pytest.approx(2.0 * (25.0 / 6.0) ** 2, rel=1e-12)
        assert summary.evsi == pytest.approx(2.0164227, abs=1e-6)

    def test_exact_evsi_against_direct_integration(self):
        model = build_quadratic_normal()
        tau2 = 5.0 - 1.0 / 1.2

        def integrand(z):
            return max(0.0, tau2 * (z * z - 1.0)) * stats.norm.pdf(z)

        expected, _ = integrate.quad(integrand, -np.inf, np.inf, limit=400)
        assert quadratic_exact_evsi(model, 10) == pytest.approx(expected, rel=1e-9)


class TestAdesInvariants:
    def test_treatment_probability_within_unit_interval(self):
        psa = run_psa(get_model("ades"), 10**6, SeedSpec(5))
        pt = psa.column("Pt")
        assert np.all((pt > 0.0) & (pt < 1.0))

    def test_inb_mean_reproducible(self):
        model = get_model("ades")
        a = compute_inb(model, run_psa(model, 100000, SeedSpec(6))).inb_theta
        b = compute_inb(model, run_psa(model, 100000, SeedSpec(6))).inb_theta
        assert np.isfinite(a.mean())
        assert np.array_equal(a, b)


class TestTwoArmInnerMeans:
    """The nested oracle's inner means for the ades two-arm trial, by
    adaptive Gauss-Hermite quadrature over the posterior of (logit Pc, log OR)."""

    N = 200
    CORNERS = [(0.0, 0.0), (0.0, 200.0), (200.0, 0.0), (200.0, 200.0)]

    @pytest.fixture(scope="class")
    def trial(self):
        model = get_model("ades")
        design = get_design(model, "study3", n=self.N)
        return model, design, design.recipe

    @staticmethod
    def _seeded_pairs(model, design, k=4):
        psa = run_psa(model, k, SeedSpec(41))
        ds = design.simulate(psa.columns, SeedSpec(42))
        return list(zip(ds["dc"], ds["dt"]))

    @staticmethod
    def _grid_means(posterior, dc, dt):
        """E[Pc] and E[Pt] on a 1201 x 1201 grid over the mean +- 14 sd, both
        read off a coarse grid first: no mode, Hessian or node rule."""

        def moments(x0, x1):
            states = np.column_stack([x0.ravel(), x1.ravel()])
            lp = posterior.log_density(states[:, 0], states[:, 1], dc, dt)
            w = np.exp(lp - lp.max())
            w /= w.sum()
            return states, w

        states, w = moments(*np.meshgrid(np.linspace(-12, 8, 801), np.linspace(-10, 10, 801)))
        mean = w @ states
        sd = np.sqrt(w @ (states - mean) ** 2)
        axes = [np.linspace(m - 14 * s, m + 14 * s, 1201) for m, s in zip(mean, sd)]
        states, w = moments(*np.meshgrid(*axes))
        return w @ expit(states[:, 0]), w @ expit(states[:, 0] + states[:, 1])

    def test_means_match_a_fine_grid(self, trial):
        model, design, posterior = trial
        for dc, dt in self._seeded_pairs(model, design) + self.CORNERS:
            e_pc, e_pt = posterior.means(np.array([dc]), np.array([dt]), np.array([0]))
            want_pc, want_pt = self._grid_means(posterior, dc, dt)
            assert e_pc[0] == pytest.approx(want_pc, rel=1e-6), (dc, dt)
            assert e_pt[0] == pytest.approx(want_pt, rel=1e-6), (dc, dt)

    def test_twelve_nodes_agree_with_twenty(self, trial):
        model, design, posterior = trial
        dc, dt = (np.array(v) for v in zip(*self._seeded_pairs(model, design, 50), *self.CORNERS))
        rows = np.arange(len(dc))
        for got, want in zip(posterior.means(dc, dt, rows), posterior.means(dc, dt, rows, k=20)):
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_design_reads_the_inb_at_the_means(self, trial):
        model, design, posterior = trial
        dc, dt = (np.array(v) for v in zip(*self.CORNERS, (30.0, 10.0)))
        e_pc, e_pt = posterior.means(dc, dt, np.arange(len(dc)))
        prior = _ades_prior_means(model.params)
        want = _ades_inb_at_means(e_pc, prior["Pse"], e_pt, prior["Qe"], model.params)
        assert np.array_equal(design.batch_inner_means({"dc": dc, "dt": dt}), want)

    def test_derivatives_match_central_differences(self, trial):
        _, _, posterior = trial
        gen = np.random.default_rng(43)
        x0, x1 = gen.uniform(-5, 2, 40), gen.uniform(-4, 3, 40)
        dc, dt = gen.integers(0, self.N + 1, (2, 40)).astype(float)
        g0, g1, h00, h01, h11 = posterior.derivatives(x0, x1, dc, dt)

        def lp(u0, u1):
            return posterior.log_density(u0, u1, dc, dt)

        h = 1e-5
        np.testing.assert_allclose(g0, (lp(x0 + h, x1) - lp(x0 - h, x1)) / (2 * h),
                                   rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(g1, (lp(x0, x1 + h) - lp(x0, x1 - h)) / (2 * h),
                                   rtol=1e-6, atol=1e-6)
        h = 1e-4
        centre = lp(x0, x1)
        for got, (e0, e1) in ((h00, (1, 0)), (h11, (0, 1))):
            want = (lp(x0 + e0 * h, x1 + e1 * h) - 2 * centre
                    + lp(x0 - e0 * h, x1 - e1 * h)) / h**2
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
        want = (lp(x0 + h, x1 + h) - lp(x0 + h, x1 - h) - lp(x0 - h, x1 + h)
                + lp(x0 - h, x1 - h)) / (4 * h**2)
        np.testing.assert_allclose(h01, want, rtol=1e-4, atol=1e-4)

    def test_study3_and_study4_read_the_same_means(self, trial):
        model, study3, _ = trial
        psa = run_psa(model, 500, SeedSpec(44))
        ds = study3.simulate(psa.columns, SeedSpec(45))
        study4 = get_design(model, "study4")
        assert np.array_equal(study3.batch_inner_means(ds), study4.batch_inner_means(ds))

    def test_blocks_change_nothing(self, trial, monkeypatch):
        model, design, _ = trial
        psa = run_psa(model, 500, SeedSpec(46))
        ds = design.simulate(psa.columns, SeedSpec(47))
        want = design.batch_inner_means(ds)
        # each distinct dataset is solved on its own, whatever else shares its block
        monkeypatch.setattr("evsikit.posterior._TWO_ARM_BLOCK", 7)
        assert np.array_equal(design.batch_inner_means(ds), want)
        one = {k: v[:1] for k, v in ds.items()}
        assert np.array_equal(design.batch_inner_means(one), want[:1])

    def test_unconverged_newton_search_names_the_dataset(self, trial, monkeypatch):
        _, design, _ = trial
        monkeypatch.setattr("evsikit.posterior._NEWTON_STEPS", 1)
        ds = {"dc": np.array([50.0, 40.0, 10.0, 30.0]), "dt": np.full(4, 12.0)}
        with pytest.raises(ComputationError, match=r"^\[nested\] .*not converge.* dataset 2$"):
            design.batch_inner_means(ds)

    def test_non_finite_mode_names_the_dataset(self, trial):
        _, design, _ = trial
        ds = {"dc": np.array([50.0, 40.0, 10.0, np.nan]), "dt": np.full(4, 12.0)}
        with pytest.raises(ComputationError, match=r"^\[nested\] non-finite .* dataset 3$") as err:
            design.batch_inner_means(ds)
        assert err.value.stage == "nested"


class TestRegistry:
    def test_required_models_registered(self):
        for name in ("ades", "beta_binomial", "exp_gamma", "normal_normal"):
            assert name in list_models()

    def test_unknown_model_lists_alternatives(self):
        with pytest.raises(ConfigError, match="ades"):
            get_model("nosuch")

    def test_parameter_override(self):
        model = get_model("beta_binomial", k=500.0, c=100.0)
        assert model.params["k"] == 500.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            get_model("ades", bogus=1.0)

    def test_design_listing(self):
        assert list_designs("ades") == ["study1", "study2", "study3", "study4"]
        assert "trial" in list_designs("beta_binomial")

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError, match="study"):
            get_design(get_model("ades"), "study9")

    def test_obs_var_only_for_designs_that_observe_one(self):
        # study2's observation variance is the ades parameter logit_qe_obs_var
        assert get_design(get_model("ades"), "study2").recipe.obs_var == 2.0
        model = get_model("ades", logit_qe_obs_var=50.0)
        assert get_design(model, "study2").recipe.obs_var == 50.0
        for name in ("normal_normal", "quadratic_normal", "beta_binomial"):
            with pytest.raises(ConfigError, match="logit_qe_obs_var"):
                get_model(name, logit_qe_obs_var=50.0)

    def test_designs_follow_the_model_name(self):
        # a model rebuilt by hand under a registered name gets that name's designs
        base = get_model("two_param_linear")
        rebuilt = DecisionModel(name="two_param_linear", priors=base.priors,
                                net_benefit=base.net_benefit, params=base.params)
        assert list_designs("two_param_linear") == ["trial", "null"]
        null = get_design(rebuilt, "null")
        assert null.sample_size == 30
        # prior-mean INB: k * (E[response_rate] - E[background]) - 2500
        assert null.batch_inner_means({"x": np.zeros(2)}) == pytest.approx([4500.0, 4500.0])
        with pytest.raises(ConfigError, match="unknown model"):
            get_design(DecisionModel(name="nosuch", priors=base.priors,
                                     net_benefit=base.net_benefit), "trial")

    def test_sample_size_override(self):
        design = get_design(get_model("ades"), "study1", n=120)
        assert design.sample_size == 120
        # numpy integers are sample sizes too
        assert get_design(get_model("ades"), "study3", n=np.int64(40)).sample_size == 40
        assert (analytic_preposterior(ConjugateToy("beta_binomial_uniform", np.int64(3)))
                == analytic_preposterior(ConjugateToy("beta_binomial_uniform", 3)))

    @pytest.mark.parametrize("n", [2.5, 3.0, True, -5, np.float64(10.0)])
    def test_sample_size_must_be_an_integer_of_at_least_0(self, n):
        # 2.5 drew binomial counts of 2 trials and updated the posterior
        # with 2.5, and -5 failed later as a computation error
        with pytest.raises(ConfigError, match="sample size must be an integer >= 0"):
            get_design(get_model("beta_binomial"), "trial", n=n)
        with pytest.raises(ConfigError, match="sample size must be an integer >= 0"):
            ConjugateToy("beta_binomial_uniform", n)
