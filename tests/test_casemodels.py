"""Built-in models, study designs, and closed-form preposterior values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from evsikit.casemodels import (
    ConjugateToy,
    ades_net_benefit,
    analytic_preposterior,
    build_quadratic_normal,
    get_design,
    get_model,
    list_designs,
    list_models,
    quadratic_exact_evsi,
)
from evsikit.model import DecisionModel, compute_inb, run_psa
from evsikit.rng import SeedSpec
from evsikit.util import ConfigError


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
        design = get_design(get_model("ades"), "study2")
        ds = design.simulate_batch({"logit_qe": np.array([0.6])}, SeedSpec(4))
        assert ds["responses"].shape == (1, 100)


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

    def test_exp_gamma_variance_against_beta_moments(self):
        toy = ConjugateToy("exp_gamma", 10)
        g = 200.0 * 15.0
        expected = g**2 * stats.beta.var(5, 10)
        assert analytic_preposterior(toy).variance == pytest.approx(expected, rel=1e-12)

    def test_enumeration_evsi_nondecreasing_in_sample_size(self):
        values = [
            analytic_preposterior(ConjugateToy("beta_binomial_uniform", n)).evsi
            for n in (0, 1, 2, 5, 10, 50, 100)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(variant=st.sampled_from(["beta_binomial_uniform", "exp_gamma", "normal_normal"]),
           shift=st.floats(-1.0, 1.0))
    def test_evsi_nondecreasing_in_sample_size_for_every_toy(self, variant, shift):
        # `shift` moves the cost across the decision threshold of each toy
        params = {"beta_binomial_uniform": {"c": 10000.0 * (1.0 + shift)},
                  "exp_gamma": {"c0": 900.0 + 1000.0 * shift},
                  "normal_normal": {"c": 10000.0 * shift}}[variant]
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


class TestQuadraticModel:
    def test_exact_evsi_value(self):
        # tau^2 = 5 - 1/1.2 = 25/6; EVSI = tau^2 * 2 * pdf(1)
        model = build_quadratic_normal()
        assert quadratic_exact_evsi(model, 10) == pytest.approx(2.0164227, abs=1e-6)

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
        model = get_model("ades")
        assert get_design(model, "study2").recipe.obs_var == 2.0
        assert get_design(model, "study2", obs_var=50.0).recipe.obs_var == 50.0
        for name, design in (("ades", "study1"), ("normal_normal", "trial"),
                             ("quadratic_normal", "trial"), ("beta_binomial", "null")):
            with pytest.raises(ConfigError, match="obs_var"):
                get_design(get_model(name), design, obs_var=50.0)

    def test_designs_follow_the_model_name(self):
        # a model rebuilt by hand under a registered name gets that name's designs
        base = get_model("two_param_linear")
        rebuilt = DecisionModel(name="two_param_linear", priors=base.priors, n_treatments=2,
                                net_benefit=base.net_benefit, params=base.params)
        assert list_designs("two_param_linear") == ["trial", "null"]
        null = get_design(rebuilt, "null")
        assert null.sample_size == 30
        # prior-mean INB: k * (E[response_rate] - E[background]) - 2500
        assert null.batch_inner_means({"x": np.zeros(2)}) == pytest.approx([4500.0, 4500.0])
        with pytest.raises(ConfigError, match="unknown model"):
            get_design(DecisionModel(name="nosuch", priors=base.priors, n_treatments=2,
                                     net_benefit=base.net_benefit), "trial")

    def test_sample_size_override(self):
        design = get_design(get_model("ades"), "study1", n=120)
        assert design.sample_size == 120
