"""Distribution kit and stream-derivation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from evsikit.rng import DistSpec, SeedSpec


class TestSampling:
    def test_degenerate_binomial_all_successes(self):
        draws = DistSpec("binomial", 1, 1.0).sample_with(SeedSpec(1).generator(), 5)
        assert draws.tolist() == [1, 1, 1, 1, 1]

    def test_uniform_mean_clt_bound(self):
        draws = DistSpec("uniform", 0, 1).sample_with(SeedSpec(2).generator(), 10**6)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_beta_mean_clt_bound(self):
        # Beta(15, 85) has mean 15/100 = 0.15
        draws = DistSpec("beta", 15, 85).sample_with(SeedSpec(3).generator(), 10**6)
        assert abs(draws.mean() - 0.15) < 0.0011

    @pytest.mark.parametrize(
        "family,params",
        [
            ("beta", (0, 1)),
            ("beta", (1, -2)),
            ("gamma", (1, 0)),
            ("normal", (0, 0)),
            ("exponential", (-1,)),
            ("binomial", (-3, 0.5)),
            ("binomial", (10, 1.5)),
            ("uniform", (1, 1)),
            ("logit_normal", (0, -1)),
        ],
    )
    def test_invalid_parameters_raise_at_construction(self, family, params):
        with pytest.raises(ValueError):
            DistSpec(family, *params)


class TestQuantile:
    def test_uniform_quartile(self):
        assert DistSpec("uniform", 0, 1).quantile(0.25) == pytest.approx(0.25)

    def test_standard_normal_median_is_zero(self):
        assert DistSpec("normal", 0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_quantile_against_density_integration(self):
        # independent oracle: integrate the hand-written Gamma(5, 1) density
        v = DistSpec("gamma", 5, 1).quantile(0.9)

        def pdf(x):
            return x**4 * np.exp(-x) / 24.0

        mass, _ = integrate.quad(pdf, 0, v)
        assert abs(mass - 0.9) <= 1e-8

    def test_discrete_quantile_smallest_x(self):
        dist = DistSpec("binomial", 10, 0.5)
        v = dist.quantile(0.5)
        assert dist.cdf(v) >= 0.5
        assert dist.cdf(v - 1) < 0.5

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            DistSpec("normal", 0, 1).quantile(p)


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        spec = SeedSpec(master_seed=99, stream_id=5)
        a = DistSpec("gamma", 2, 3).sample_with(spec.generator(), 1000)
        b = DistSpec("gamma", 2, 3).sample_with(spec.generator(), 1000)
        assert np.array_equal(a, b)

    def test_derived_streams_differ(self):
        base = SeedSpec(7)
        children = {base.derive(i).stream_id for i in range(100)}
        assert len(children) == 100

    def test_derivation_is_path_dependent(self):
        base = SeedSpec(7)
        assert base.derive(0).derive(1) != base.derive(1).derive(0)

    def test_derived_streams_uncorrelated(self):
        base = SeedSpec(11)
        a = DistSpec("normal", 0, 1).sample_with(base.derive(0).generator(), 20000)
        b = DistSpec("normal", 0, 1).sample_with(base.derive(1).generator(), 20000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


_FAMILIES = [
    DistSpec("uniform", -1, 3),
    DistSpec("beta", 15, 85),
    DistSpec("beta", 3, 9),
    DistSpec("gamma", 5, 1),
    DistSpec("normal", -1.5, 1 / 3),
    DistSpec("exponential", 2.0),
    DistSpec("binomial", 60, 0.25),
    DistSpec("logit_normal", 0.6, 1 / 6),
    DistSpec("log_normal", -1.5, 1 / 3),
]


@pytest.mark.parametrize("dist", _FAMILIES, ids=lambda d: d.family.value)
def test_moments_within_four_standard_errors(dist):
    n = 10**6
    draws = dist.sample_with(SeedSpec(123).generator(), n)
    se_mean = np.sqrt(dist.variance() / n)
    assert abs(draws.mean() - dist.mean()) <= 4 * se_mean
    m4 = np.mean((draws - draws.mean()) ** 4)
    se_var = np.sqrt(max(m4 - np.var(draws) ** 2, 0) / n)
    assert abs(np.var(draws, ddof=1) - dist.variance()) <= 4 * se_var


@pytest.mark.parametrize(
    "dist",
    [d for d in _FAMILIES if d.family.value != "binomial"],
    ids=lambda d: d.family.value,
)
def test_quantile_cdf_round_trip(dist):
    for p in np.arange(0.01, 1.0, 0.01):
        assert abs(dist.cdf(dist.quantile(p)) - p) <= 1e-8


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.5, 50),
    beta=st.floats(0.5, 50),
    p=st.floats(0.01, 0.99),
)
def test_beta_quantile_round_trip_property(alpha, beta, p):
    dist = DistSpec("beta", alpha, beta)
    assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-8)

