"""Rescaling constants and the end-to-end EVSI estimator."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evsikit.casemodels import (
    ConjugateToy,
    analytic_preposterior,
    get_design,
    get_model,
    list_designs,
    list_models,
    quadratic_exact_evsi,
)
from evsikit.model import DecisionModel, InbSamples, compute_inb, run_psa, voi
from evsikit.momentmatch import EvsiOptions, compute_constants, conditional_inb, estimate_evsi
from evsikit.preposterior import run_posterior
from evsikit.regression import fit_conditional_mean
from evsikit.rng import DistSpec, SeedSpec
from evsikit.util import ComputationError, DegenerateModelError, SchemaError


_REGISTERED_PAIRS = [(m, d) for m in list_models() for d in list_designs(m)]


def _nan_every_1000th(model):
    """The same model with every 1000th treatment net benefit set to NaN."""
    base = model.net_benefit

    def net_benefit(cols):
        nb = np.array(base(cols), dtype=float)
        nb[::1000, 1] = np.nan
        return nb

    return dataclasses.replace(model, net_benefit=net_benefit)


def _standardised_inb(k=10000.0, n=50000, seed=0):
    """Synthetic INB samples with mean exactly 0 and variance exactly k^2."""
    x = SeedSpec(seed).generator().standard_normal(n)
    x = (x - x.mean()) / x.std(ddof=1) * k
    return InbSamples.from_values(x)


class TestComputeConstants:
    def test_no_information_collapses_to_prior_mean(self):
        inb = InbSamples.from_values([1.0, 3.0, 5.0])
        a, b = compute_constants(0.0, inb)
        assert a == 0.0 and b == pytest.approx(3.0)

    def test_full_information_is_identity(self):
        inb = _standardised_inb()
        a, b = compute_constants(np.var(inb.inb_theta, ddof=1), inb)
        assert a == pytest.approx(1.0) and b == pytest.approx(0.0, abs=1e-9)

    def test_normal_normal_closed_form_constants(self):
        # sigma2 = k^2 * 0.9 for a unit prior, unit data variance and N = 9
        inb = _standardised_inb(k=10000.0)
        a, b = compute_constants(0.9 * 10000.0**2, inb)
        assert a == pytest.approx(np.sqrt(0.9))
        assert b == pytest.approx(0.0, abs=1e-9)

    def test_structural_excess_scales_up(self):
        inb = _standardised_inb()
        var = np.var(inb.inb_theta, ddof=1)
        a, _ = compute_constants(var * 1.2, inb)
        assert a == pytest.approx(np.sqrt(1.2))

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateModelError):
            compute_constants(1.0, InbSamples.from_values([2.0, 2.0, 2.0]))


def _copy_fields(inb):
    return {k: None if v is None else np.array(v) for k, v in vars(inb).items()}


def _assert_fields_unchanged(inb, before):
    after = vars(inb)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is None if value is None else np.array_equal(after[key], value), key


class TestConditionalInb:
    def test_inb_itself_when_every_parameter_is_informed(self):
        model = get_model("exp_gamma")
        psa = run_psa(model, 2000, SeedSpec(40))
        inb = compute_inb(model, psa)
        g, fit = conditional_inb(model, psa, inb, ("event_rate",))
        assert g is inb.inb_theta and fit is None

    def test_fit_on_a_subset_gives_its_values(self):
        model = get_model("ades")
        psa = run_psa(model, 2000, SeedSpec(41))
        inb = compute_inb(model, psa)
        g, fit = conditional_inb(model, psa, inb, ("Pc", "Pt"))
        assert g is fit.fitted
        assert np.array_equal(g, fit_conditional_mean(inb, psa.matrix(("Pc", "Pt"))).fitted)


@pytest.mark.parametrize("model_name, design_name", [("exp_gamma", "trial"), ("ades", "study1")])
def test_the_callers_inb_is_left_unchanged(model_name, design_name):
    model = get_model(model_name)
    design = get_design(model, design_name)
    psa = run_psa(model, 5000, SeedSpec(49))
    inb = compute_inb(model, psa)
    before = _copy_fields(inb)
    g, _ = conditional_inb(model, psa, inb, design.informed_params)
    _assert_fields_unchanged(inb, before)
    result = estimate_evsi(model, design, psa, EvsiOptions(Q=5, seed=SeedSpec(50)), inb=inb)
    _assert_fields_unchanged(inb, before)
    assert np.array_equal(result.conditional_mean, g)


@pytest.mark.parametrize("model_name, design_name, sigma2_from", [
    ("exp_gamma", "trial", "net_benefit"),
    ("ades", "study1", "fitted_mean"),
    ("ades", "study3", "fitted_mean"),
])
def test_var_g_is_the_prior_variance(model_name, design_name, sigma2_from):
    # estimate_evsi reads Var(g) for a and the SE from the variance estimate;
    # it is the variance of g, whether g is the INB or the fit
    model = get_model(model_name)
    psa = run_psa(model, 5000, SeedSpec(47))
    result = estimate_evsi(model, get_design(model, design_name), psa,
                           EvsiOptions(Q=5, seed=SeedSpec(48)))
    ve = result.variance_estimate
    assert ve.sigma2_from == sigma2_from
    assert ve.prior_variance == float(np.var(result.conditional_mean, ddof=1))


class TestEvsiFromRescaled:
    def test_all_negative(self):
        assert voi(np.array([-5.0, -1.0])).value == 0.0

    def test_all_positive(self):
        assert voi(np.array([2.0, 4.0])).value == 0.0

    def test_symmetric_pair(self):
        assert voi(np.array([-1.0, 1.0])).value == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            voi(np.array([]))


class TestEstimateEvsi:
    def test_normal_normal_matches_closed_form(self):
        model = get_model("normal_normal", k=10000.0)
        design = get_design(model, "trial", n=9)
        psa = run_psa(model, 100000, SeedSpec(20))
        result = estimate_evsi(model, design, psa, EvsiOptions(Q=10, seed=SeedSpec(21)))
        oracle = analytic_preposterior(ConjugateToy("normal_normal", 9))
        tol = max(0.01 * oracle.evsi, 3 * result.evsi_se)
        assert abs(result.evsi - oracle.evsi) <= tol

    def test_beta_binomial_close_to_enumeration(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        psa = run_psa(model, 100000, SeedSpec(22))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small discrete study advisory
            result = estimate_evsi(model, design, psa,
                                   EvsiOptions(Q=30, seed=SeedSpec(23)))
        oracle = analytic_preposterior(ConjugateToy("beta_binomial_uniform", 10))
        assert abs(result.evsi - oracle.evsi) <= 0.02 * oracle.evsi

    def test_quadratic_model_upward_bias_band(self):
        model = get_model("quadratic_normal")
        design = get_design(model, "trial")
        psa = run_psa(model, 10000, SeedSpec(24))
        result = estimate_evsi(model, design, psa,
                               EvsiOptions(Q=30, seed=SeedSpec(25)))
        assert 1.9 <= result.evsi <= 2.25
        assert result.evsi >= 0.9 * quadratic_exact_evsi(model, 10)

    def test_small_discrete_study_warns(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=5)
        psa = run_psa(model, 5000, SeedSpec(26))
        with pytest.warns(UserWarning, match="discrete"):
            estimate_evsi(model, design, psa, EvsiOptions(Q=5, seed=SeedSpec(27)))

    def test_tiny_budget_keeps_a_within_unit_interval(self):
        # data depend only on the focal input here, so sigma2 comes from the
        # fitted mean and cannot exceed its variance; with sigma2 from the
        # INB, this budget and seed gave sigma2 beyond the conditional variance
        model = get_model("two_param_linear")
        design = get_design(model, "trial")
        psa = run_psa(model, 3000, SeedSpec(501))
        result = estimate_evsi(model, design, psa, EvsiOptions(Q=3, seed=SeedSpec(601)))
        assert result.variance_estimate.sigma2_from == "fitted_mean"
        assert 0.0 < result.a <= 1.0 and not result.a_clamped
        assert result.to_json_dict()["sigma2_from"] == "fitted_mean"

    def test_stage_label_on_model_failure(self):
        def broken(cols):
            raise RuntimeError("boom")

        model = DecisionModel(
            name="broken",
            priors={"x": DistSpec("uniform", 0, 1)},
                net_benefit=broken,
        )
        design = get_design(get_model("beta_binomial"), "trial", n=25)
        psa = run_psa(get_model("beta_binomial"), 1000, SeedSpec(28))
        psa.columns["x"] = psa.columns.pop("p_success")
        psa.param_names = ("x",)
        with pytest.raises(ComputationError, match="net_benefit"):
            estimate_evsi(model, design, psa, EvsiOptions(Q=2, seed=SeedSpec(29)))

    def test_nonfinite_net_benefit_fails_loudly(self):
        # max(0, nan) is 0, so NaN net benefits used to read as evsi=0.0
        model = _nan_every_1000th(get_model("normal_normal"))
        design = get_design(model, "trial", n=4)
        psa = run_psa(model, 10000, SeedSpec(30))
        with pytest.raises(SchemaError, match="non-finite"):
            compute_inb(model, psa)
        with pytest.raises(ComputationError, match=r"\[net_benefit\].*non-finite"):
            estimate_evsi(model, design, psa, EvsiOptions(Q=10, seed=SeedSpec(31)))

    def test_study3_sigma2_noise_reaches_se(self):
        # study3 reports its EVPPI on log_or, but its trial informs Pc too:
        # g is fitted on (Pc, Pt), sigma2 comes from g, and the sigma2 and
        # fit noise must reach the SE.  These inputs clamped a to 1 when
        # study3's sigma2 came from the INB
        model = get_model("ades")
        design = get_design(model, "study3")
        psa = run_psa(model, 20000, SeedSpec(3))
        inb = compute_inb(model, psa)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = estimate_evsi(model, design, psa,
                                   EvsiOptions(Q=10, seed=SeedSpec(103)),
                                   inb=inb)
        assert result.variance_estimate.sigma2_from == "fitted_mean"
        assert result.to_json_dict()["informed_params"] == ["Pc", "Pt"]
        assert result.evsi_se > 2.0 * voi(result.rescaled).se

    def test_nonfinite_posterior_inb_fails_loudly(self):
        # the INB at the first of the rule's 24 nodes is NaN
        model = _nan_every_1000th(get_model("normal_normal"))
        design = get_design(model, "trial", n=4)
        dataset = {"obs_total": np.zeros(1)}
        with pytest.raises(ComputationError, match=r"^\[posterior_variance\] 1 non-finite "
                           r"value\(s\) of g at quadrature point 1/1$"):
            run_posterior(design, dataset, model)


class TestInvariance:
    def _run(self, model, seed=30):
        design = get_design(get_model("normal_normal", k=model.params["k"]),
                            "trial", n=9)
        # rebuild the design against the modified model so recipes match
        design = get_design(model, "trial", n=9) if model.name == "normal_normal" else design
        psa = run_psa(model, 30000, SeedSpec(seed))
        return estimate_evsi(model, design, psa,
                             EvsiOptions(Q=10, seed=SeedSpec(seed + 1)))

    def test_common_offset_leaves_evsi_unchanged(self):
        base = get_model("normal_normal", k=10000.0, c=2000.0)
        result_base = self._run(base)

        offset = 777777.0
        shifted = DecisionModel(
            name="normal_normal",
            priors=base.priors,
                net_benefit=lambda cols: base.net_benefit(cols) + offset,
            params=base.params,
        )
        result_shifted = self._run(shifted)
        scale = 1.0 + abs(result_base.evsi)
        assert abs(result_shifted.evsi - result_base.evsi) <= 1e-9 * scale

    def test_positive_rescaling_scales_evsi_exactly(self):
        base = get_model("normal_normal", k=10000.0, c=2000.0)
        result_base = self._run(base)

        factor = 3.0
        scaled = DecisionModel(
            name="normal_normal",
            priors=base.priors,
                net_benefit=lambda cols: base.net_benefit(cols) * factor,
            params=base.params,
        )
        result_scaled = self._run(scaled)
        assert result_scaled.evsi == pytest.approx(factor * result_base.evsi, rel=1e-9)

    @pytest.mark.parametrize("model_name, design_name", _REGISTERED_PAIRS)
    @pytest.mark.parametrize("psa_seed, seed", [(3, 103), (9, 109)])
    def test_a_within_unit_interval_without_clamping(self, model_name, design_name,
                                                     psa_seed, seed):
        # with sigma2 from the INB, study3 clamped a to 1 on the first seeds
        # and read a = 1.2 on the second
        model = get_model(model_name)
        design = get_design(model, design_name)
        psa = run_psa(model, 20000, SeedSpec(psa_seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small discrete studies, sigma2 floored at 0
            result = estimate_evsi(model, design, psa,
                                   EvsiOptions(Q=10, seed=SeedSpec(seed)))
        assert 0.0 <= result.a <= 1.0
        assert not result.a_clamped

    def test_monotone_in_future_sample_size(self):
        model = get_model("beta_binomial")
        psa = run_psa(model, 50000, SeedSpec(33))
        estimates, ses = [], []
        for i, n in enumerate((10, 20, 50, 100)):
            design = get_design(model, "trial", n=n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = estimate_evsi(model, design, psa,
                                    EvsiOptions(Q=20, seed=SeedSpec(34 + i)))
            estimates.append(res.evsi)
            ses.append(res.evsi_se)
        for i in range(3):
            slack = 2 * np.hypot(ses[i], ses[i + 1])
            assert estimates[i + 1] >= estimates[i] - slack

    def test_moment_identities_of_rescaled_sample(self):
        model = get_model("exp_gamma")
        design = get_design(model, "trial", n=10)
        psa = run_psa(model, 20000, SeedSpec(38))
        result = estimate_evsi(model, design, psa,
                               EvsiOptions(Q=10, seed=SeedSpec(39)))
        inb = compute_inb(model, psa)
        m = np.mean(inb.inb_theta)
        assert abs(np.mean(result.rescaled) - m) <= 1e-6 * (1 + abs(m))
        s2 = result.variance_estimate.sigma2
        assert abs(np.var(result.rescaled, ddof=1) - s2) <= 1e-6 * (1 + s2)

    def test_ordering_against_analytic_values(self):
        # analytic EVSI never exceeds analytic EVPI for the toys
        for variant, N in (("beta_binomial_uniform", 10), ("exp_gamma", 20),
                           ("normal_normal", 9)):
            toy = ConjugateToy(variant, N)
            summary = analytic_preposterior(toy)
            assert summary.evsi >= 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    model_params=st.one_of(
        st.builds(lambda k, ratio: ("beta_binomial", {"k": k, "c": ratio * k}),
                  st.floats(1000.0, 50000.0), st.floats(0.05, 0.95)),
        # the prior-mean INB of two_param_linear crosses 0 at k = 3571
        st.builds(lambda k: ("two_param_linear", {"k": k}), st.floats(2500.0, 5000.0)),
    ),
    seed=st.integers(0, 10**6),
)
def test_evsi_within_evppi_within_evpi(model_params, seed):
    """0 <= EVSI <= EVPPI <= EVPI on random toy parameters at small S.

    voi(a*x + b) with the mean held fixed is convex in a and 0 at a = 0, so
    it is nondecreasing for a >= 0 and EVSI cannot exceed EVPPI when a <= 1.
    """
    name, params = model_params
    model = get_model(name, **params)
    design = get_design(model, "trial")
    psa = run_psa(model, 5000, SeedSpec(seed))
    inb = compute_inb(model, psa)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = estimate_evsi(model, design, psa,
                               EvsiOptions(Q=10, seed=SeedSpec(seed).derive(1)),
                               inb=inb)

    evpi_val = voi(inb.inb_theta).value
    g = result.conditional_mean
    evppi_val = voi(g).value
    paired = np.maximum(g, 0.0) - np.maximum(inb.inb_theta, 0.0)
    diff_se = float(np.std(paired, ddof=1)) / np.sqrt(paired.size)
    assert evppi_val <= evpi_val + 3.0 * diff_se + 1e-9 * (1.0 + evpi_val)
    assert result.evsi >= 0.0
    assert result.a <= 1.0
    assert result.evsi <= evppi_val * (1.0 + 1e-9)


class TestMonotoneInSampleSize:
    def test_normal_normal_evsi_rises_with_n(self):
        # with the PSA, the plan seed and the estimator seed fixed, only the
        # posterior variance moves with N; for normal_normal it does not
        # depend on the data, so sigma2, a and the EVSI rise with N exactly
        model = get_model("normal_normal")
        psa = run_psa(model, 20000, SeedSpec(40))
        inb = compute_inb(model, psa)
        options = EvsiOptions(Q=10, seed=SeedSpec(41))
        results = [estimate_evsi(model, get_design(model, "trial", n=n), psa, options, inb=inb)
                   for n in (1, 2, 5, 10, 50, 200)]
        sigma2 = [r.variance_estimate.sigma2 for r in results]
        evsi = [r.evsi for r in results]
        assert np.all(np.diff(sigma2) > 0)
        assert np.all(np.diff(evsi) >= 0)
        assert evsi[-1] > evsi[0]
