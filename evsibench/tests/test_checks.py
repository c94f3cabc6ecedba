"""The output checks accept sound results and reject broken ones."""

import dataclasses

import numpy as np

import evsikit as ek
import references as ref
from checks import check_estimate, check_replicates, voi_and_se


def _toy_estimate(seed=1):
    model = ek.get_model("normal_normal")
    design = ek.get_design(model, "trial", n=4)
    psa = ek.run_psa(model, 10_000, ek.SeedSpec(seed).derive(0))
    options = ek.EvsiOptions(Q=10, M=2000, burn_in=0, seed=ek.SeedSpec(seed).derive(1))
    result = ek.estimate_evsi(model, design, psa, options)
    return result, ek.compute_inb(model, psa).inb_theta


def test_sound_estimate_passes():
    result, theta = _toy_estimate()
    assert check_estimate(result, theta, ref.toy_evpi("normal_normal")) == []


def test_shifted_rescaled_sample_is_caught():
    result, theta = _toy_estimate()
    shifted = dataclasses.replace(result, rescaled=result.rescaled + 1.0)
    assert any("mean" in p for p in check_estimate(shifted, theta, ref.toy_evpi("normal_normal")))


def test_wrong_variance_is_caught():
    result, theta = _toy_estimate()
    mean = theta.mean()
    stretched = dataclasses.replace(result, rescaled=1.01 * (result.rescaled - mean) + mean)
    problems = check_estimate(stretched, theta, ref.toy_evpi("normal_normal"))
    assert any("variance" in p for p in problems)


def test_evsi_above_evppi_is_caught():
    result, theta = _toy_estimate()
    too_big = dataclasses.replace(result, evsi=2.0 * ref.toy_evpi("normal_normal"))
    assert any("evppi" in p for p in check_estimate(too_big, theta, ref.toy_evpi("normal_normal")))


def test_negative_evsi_and_nan_are_caught():
    result, theta = _toy_estimate()
    assert check_estimate(dataclasses.replace(result, evsi=-1.0), theta, 1e9)
    assert check_estimate(dataclasses.replace(result, evsi=float("nan")), theta, 1e9)


def test_voi_and_se():
    x = np.array([-1.0, 1.0, 3.0, -3.0])
    value, se = voi_and_se(x)
    assert value == 1.0 and se > 0


def test_evpi_bound_covers_a_zero_mean_kink():
    # exp-gamma has a prior-mean INB of exactly 0; at S=1e4 the PSA EVPI
    # varies by more than its integrand SE suggests
    model = ek.get_model("exp_gamma")
    worst = 0.0
    for seed in range(300):
        theta = ek.compute_inb(model, ek.run_psa(model, 10_000, ek.SeedSpec(seed))).inb_theta
        value, se = voi_and_se(theta)
        worst = max(worst, (ref.toy_evpi("exp_gamma") - value) / se)
    assert worst < 4.0


def test_replicate_mean_check():
    gen = np.random.default_rng(3)
    values = 100.0 + gen.normal(0.0, 1.0, 400)
    ses = np.ones(400)
    assert check_replicates(values, ses, 100.0, 0.0) == []
    assert check_replicates(values, ses, 101.0, 0.0) != []      # 20 SE away
    assert check_replicates(values, ses, 101.0, 0.02) == []     # inside a 2% bias
    # a reported SE far too small cannot hide a spread-out sample
    assert check_replicates(values + 1.0, 1e-6 * ses, 100.0, 0.0) != []
    assert check_replicates(100.0 + gen.normal(0.0, 1.0, 400), 1e-6 * ses, 100.0, 0.0) == []
