"""The exact references converge and agree with the program's oracles."""

import numpy as np
import pytest

import references as ref
import evsikit as ek
from evsikit.casemodels import ades_net_benefit, quadratic_exact_evsi


def test_inb_formula_matches_the_program():
    gen = np.random.default_rng(0)
    pc, pse, pt, qe = gen.random((4, 1000))
    nb1, nb2 = ades_net_benefit(pc, pse, pt, qe)
    np.testing.assert_allclose(ref.ades_inb(pc, pse, pt, qe), nb2 - nb1, rtol=1e-12, atol=1e-6)


def test_ades_values():
    assert ref.study1_evsi() == pytest.approx(5583.84, abs=0.005)
    assert ref.study2_evsi() == pytest.approx(1889.11, abs=0.005)
    assert ref.trial_evsi(120) == pytest.approx(4114.96, abs=0.005)


def test_quadratures_converge():
    assert ref.trial_evsi(60) == pytest.approx(ref.trial_evsi(120), rel=1e-9)
    assert ref.study2_evsi(n=200) == pytest.approx(ref.study2_evsi(n=400), rel=1e-12)
    for study in ("study1", "study2", "study3"):
        assert ref.ades_evppi(study, 80) == pytest.approx(ref.ades_evppi(study, 120), rel=1e-9)


def test_evsi_below_evppi_below_evpi():
    refs = ref.ades_references(100)
    model = ek.get_model("ades")
    psa = ek.run_psa(model, 400_000, ek.SeedSpec(11))
    theta = ek.compute_inb(model, psa).inb_theta
    evpi = ek.evpi(theta)
    for study in ("study1", "study2", "study3", "study4"):
        assert 0 < refs["evsi"][study] < refs["evppi"][study] < evpi
    for name, n in (("normal_normal", 4), ("beta_binomial", 50), ("exp_gamma", 20),
                    ("quadratic_normal", 10)):
        assert 0 < ref.toy_evsi(name, n) < ref.toy_evpi(name)


@pytest.mark.parametrize("study,n_outer", [("study1", 1_000_000), ("study2", 200_000),
                                           ("study3", 2000)])
def test_ades_values_agree_with_nested_oracle(study, n_outer):
    model = ek.get_model("ades")
    design = ek.get_design(model, study)
    oracle = ek.nested_mc_evsi(model, design, n_outer, n_inner=1000, inner_burn_in=500,
                               seed=ek.SeedSpec(2024))
    exact = ref.ades_references(100)["evsi"][study]
    assert abs(oracle.evsi - exact) < 4 * oracle.standard_error + 0.02 * exact


@pytest.mark.parametrize("N", [1, 4, 25])
def test_toys_agree_with_program_closed_forms(N):
    toys = {"normal_normal": "normal_normal", "beta_binomial": "beta_binomial_uniform",
            "exp_gamma": "exp_gamma"}
    for model_name, variant in toys.items():
        exact = ek.analytic_preposterior(ek.ConjugateToy(variant, N)).evsi
        assert ref.toy_evsi(model_name, N) == pytest.approx(exact, rel=1e-9)
    quad = ek.get_model("quadratic_normal")
    assert ref.toy_evsi("quadratic_normal", N) == pytest.approx(
        quadratic_exact_evsi(quad, N), rel=1e-12)


@pytest.mark.parametrize("name", ["normal_normal", "beta_binomial", "exp_gamma",
                                  "quadratic_normal"])
def test_toy_evpi_agrees_with_large_psa(name):
    model = ek.get_model(name)
    psa = ek.run_psa(model, 2_000_000, ek.SeedSpec(5))
    theta = ek.compute_inb(model, psa).inb_theta
    # every toy has a prior-mean INB of exactly zero, so EVPI = E[max(0, INB)]
    positive = np.maximum(theta, 0.0)
    se = np.std(positive) / np.sqrt(theta.size)
    assert abs(np.mean(positive) - ref.toy_evpi(name)) < 5 * se
