"""Conjugate updaters and the Metropolis ensemble."""

import numpy as np
import pytest

from evsikit.posterior import (
    BetaBinomialUpdate,
    GammaExponentialUpdate,
    MetropolisUpdate,
    NormalNormalUpdate,
    NullUpdate,
    metropolis_ensemble,
)
from evsikit.rng import DistSpec, SeedSpec


class TestConjugates:
    def test_beta_binomial_update(self):
        recipe = BetaBinomialUpdate("p", 1.0, 1.0, 10, "x")
        ds = {"x": np.array([3.0])}
        assert recipe.posterior_params(ds) == (pytest.approx(4.0), pytest.approx(8.0))
        assert recipe.exact_means(ds)[0] == pytest.approx(1 / 3)
        draws = recipe.draw(ds, 200000, SeedSpec(1).generator())["p"]
        # Beta(4, 8): mean 1/3, variance 32/1872
        var = 32.0 / 1872.0
        assert abs(draws.mean() - 1 / 3) <= 4 * np.sqrt(var / draws.size)
        assert np.var(draws) == pytest.approx(var, rel=0.05)

    def test_normal_normal_posterior_variance_exact(self):
        recipe = NormalNormalUpdate("mu", 0.0, 1.0, 1.0, "obs")
        ds = {"obs": np.zeros((1, 9))}
        mean, var = recipe.posterior_params(ds)
        assert var == pytest.approx(0.1)
        assert np.atleast_1d(mean)[0] == pytest.approx(0.0)
        draws = recipe.draw(ds, 100000, SeedSpec(2).generator())["mu"]
        assert np.var(draws) == pytest.approx(0.1, rel=0.05)

    def test_gamma_exponential_update(self):
        recipe = GammaExponentialUpdate("rate", 5.0, 1.0, "obs")
        ds = {"obs": np.array([[0.5, 1.5, 1.0]])}
        a, b = recipe.posterior_params(ds)
        assert a == pytest.approx(8.0)
        assert np.atleast_1d(b)[0] == pytest.approx(4.0)
        assert recipe.exact_means(ds)[0] == pytest.approx(2.0)
        draws = recipe.draw(ds, 100000, SeedSpec(3).generator())["rate"]
        assert draws.mean() == pytest.approx(2.0, rel=0.02)

    def test_null_update_returns_prior(self):
        recipe = NullUpdate("p", DistSpec("beta", 15, 85))
        ds = {"x": np.array([1.0])}
        draws = recipe.draw(ds, 100000, SeedSpec(4).generator())["p"]
        assert draws.mean() == pytest.approx(0.15, abs=0.001)
        assert recipe.exact_means(ds)[0] == pytest.approx(0.15)


def _beta48_logpost(states, dataset, idx):
    x = states[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.where(
            (x > 0) & (x < 1),
            3.0 * np.log(np.clip(x, 1e-300, None))
            + 7.0 * np.log(np.clip(1 - x, 1e-300, None)),
            -np.inf,
        )
    return lp


def _binomial10_logpost(counts):
    """Beta(1, 1) prior with counts[idx] successes in 10 trials, per chain."""

    def logpost(states, idx):
        x = states[:, 0]
        c = counts[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                (x > 0) & (x < 1),
                c * np.log(np.clip(x, 1e-300, None))
                + (10.0 - c) * np.log(np.clip(1 - x, 1e-300, None)),
                -np.inf,
            )

    return logpost


class TestMetropolis:
    def test_targets_beta_4_8(self):
        draws, info = metropolis_ensemble(
            lambda s, i: _beta48_logpost(s, None, i),
            n_chains=1,
            init=np.array([0.33]),
            scales=np.array([0.12]),
            n_keep=20000,
            burn_in=2000,
            seed=SeedSpec(5),
        )
        chain = draws[0, :, 0]
        # generous effective-sample correction for autocorrelation
        se = chain.std() / np.sqrt(chain.size / 25)
        assert abs(chain.mean() - 1 / 3) <= 4 * se
        assert np.var(chain) == pytest.approx(32.0 / 1872.0, rel=0.10)
        assert 0.1 <= info["acceptance_rate"][0] <= 0.6

    def test_deterministic_given_seed(self):
        kwargs = dict(
            n_chains=2,
            init=np.array([0.3]),
            scales=np.array([0.1]),
            n_keep=2000,
            burn_in=500,
            seed=SeedSpec(6),
        )
        a, _ = metropolis_ensemble(lambda s, i: _beta48_logpost(s, None, i), **kwargs)
        b, _ = metropolis_ensemble(lambda s, i: _beta48_logpost(s, None, i), **kwargs)
        assert np.array_equal(a, b)

    def test_block_size_does_not_change_results(self):
        kwargs = dict(
            n_chains=5,
            init=np.array([0.3]),
            scales=np.array([0.12]),
            n_keep=1500,
            burn_in=300,
            seed=SeedSpec(60),
        )
        whole, _ = metropolis_ensemble(
            lambda s, i: _beta48_logpost(s, None, i), block_size=5, **kwargs
        )
        split, _ = metropolis_ensemble(
            lambda s, i: _beta48_logpost(s, None, i), block_size=2, **kwargs
        )
        assert np.array_equal(whole, split)

    def test_per_chain_seeds_match_single_chain_runs(self):
        # chain i seeded with t_i.derive(0) must reproduce a one-chain
        # ensemble seeded with t_i, whatever the block size
        counts = np.array([2.0, 5.0, 8.0])
        parents = [SeedSpec(61).derive(i) for i in range(3)]
        common = dict(init=np.array([0.5]), scales=np.array([0.2]), n_keep=1500, burn_in=300)
        singles = [
            metropolis_ensemble(_binomial10_logpost(counts[i : i + 1]), n_chains=1, seed=t, **common)
            for i, t in enumerate(parents)
        ]
        for block_size in (None, 1, 2):
            draws, info = metropolis_ensemble(
                _binomial10_logpost(counts), n_chains=3, block_size=block_size,
                seeds=[t.derive(0) for t in parents], **common,
            )
            for i, (single, single_info) in enumerate(singles):
                assert np.array_equal(draws[i], single[0])
                assert info["acceptance_rate"][i] == single_info["acceptance_rate"][0]
                assert info["split_variance_ratio"][i] == single_info["split_variance_ratio"][0]

    def test_seed_and_seeds_are_exclusive(self):
        common = dict(n_chains=2, init=np.array([0.3]), scales=np.array([0.1]),
                      n_keep=100, burn_in=0)
        logpost = lambda s, i: _beta48_logpost(s, None, i)  # noqa: E731
        with pytest.raises(ValueError, match="exactly one"):
            metropolis_ensemble(logpost, **common)
        with pytest.raises(ValueError, match="exactly one"):
            metropolis_ensemble(logpost, seed=SeedSpec(1), seeds=[SeedSpec(2)] * 2, **common)
        with pytest.raises(ValueError, match="1 seeds for 2 chains"):
            metropolis_ensemble(logpost, seeds=[SeedSpec(2)], **common)

    def test_stat_mode_matches_kept_draws(self):
        common = dict(
            n_chains=3,
            init=np.array([0.3]),
            scales=np.array([0.1]),
            n_keep=2000,
            burn_in=200,
            seed=SeedSpec(7),
        )
        draws, _ = metropolis_ensemble(
            lambda s, i: _beta48_logpost(s, None, i), **common
        )
        means, _ = metropolis_ensemble(
            lambda s, i: _beta48_logpost(s, None, i),
            stat_fn=lambda s: s.copy(),
            **common,
        )
        assert np.allclose(means[:, 0], draws[:, :, 0].mean(axis=1))

    def test_acceptance_warning_for_bad_scale(self):
        with pytest.warns(UserWarning, match="acceptance rate"):
            metropolis_ensemble(
                lambda s, i: _beta48_logpost(s, None, i),
                n_chains=1,
                init=np.array([0.33]),
                scales=np.array([50.0]),
                n_keep=2000,
                burn_in=10,  # too short for adaptation to rescue the scale
                seed=SeedSpec(8),
            )

    def test_nan_log_density_is_fatal(self):
        from evsikit.util import ComputationError

        def bad_logpost(states, idx):
            out = _beta48_logpost(states, None, idx)
            return np.where(states[:, 0] > 0.5, np.nan, out)

        with pytest.raises(ComputationError, match="NaN"):
            metropolis_ensemble(
                bad_logpost,
                n_chains=1,
                init=np.array([0.33]),
                scales=np.array([0.3]),
                n_keep=2000,
                burn_in=100,
                seed=SeedSpec(11),
            )

    def test_split_ratio_reported(self):
        draws, info = metropolis_ensemble(
            lambda s, i: _beta48_logpost(s, None, i),
            n_chains=1,
            init=np.array([0.33]),
            scales=np.array([0.12]),
            n_keep=4000,
            burn_in=500,
            seed=SeedSpec(9),
        )
        assert 0.5 <= info["split_variance_ratio"][0] <= 2.0


class TestMetropolisRecipe:
    def test_transform_and_info(self):
        recipe = MetropolisUpdate(
            params=("x",),
            log_posterior=_beta48_logpost,
            init=(0.33,),
            base_scales=(0.12,),
            transform=lambda chains: {"p": chains[..., 0]},
        )
        out, info = recipe.draw({"x": np.array([1.0])}, 3000, burn_in=300, seed=SeedSpec(10))
        assert out["p"].shape == (1, 3000)
        assert "acceptance_rate" in info
