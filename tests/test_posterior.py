"""Conjugate updaters, their quadrature rules, and the Metropolis ensemble."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.special import expit, log_expit, logit

from evsikit import util
from evsikit.casemodels import get_design, get_model
from evsikit.model import run_psa
from evsikit.posterior import (
    BetaBinomialUpdate,
    GammaExponentialUpdate,
    NormalNormalUpdate,
    NullUpdate,
    RULE_NODES,
    TwoArmTrialUpdate,
    _split_variance_ratio,
    metropolis_ensemble,
)
from evsikit.rng import DistSpec, SeedSpec
from evsikit.util import gauss_hermite_expectation, hermite_nodes, normal_rule


class TestConjugates:
    def test_beta_binomial_update(self):
        recipe = BetaBinomialUpdate("p", 1.0, 1.0, 10)
        ds = {"x": np.array([3.0])}
        assert recipe.posterior_params(ds) == (pytest.approx(4.0), pytest.approx(8.0))
        assert recipe.exact_means(ds)["p"][0] == pytest.approx(1 / 3)
        draws = recipe.draw(ds, 200000, SeedSpec(1).generator())["p"]
        # Beta(4, 8): mean 1/3, variance 32/1872
        var = 32.0 / 1872.0
        assert abs(draws.mean() - 1 / 3) <= 4 * np.sqrt(var / draws.size)
        assert np.var(draws) == pytest.approx(var, rel=0.05)

    def test_normal_normal_posterior_variance_exact(self):
        recipe = NormalNormalUpdate("mu", 0.0, 1.0, 1.0, 9)
        ds = {"obs_total": np.zeros(1)}
        mean, var = recipe.posterior_params(ds)
        assert var == pytest.approx(0.1)
        assert np.atleast_1d(mean)[0] == pytest.approx(0.0)
        draws = recipe.draw(ds, 100000, SeedSpec(2).generator())["mu"]
        assert np.var(draws) == pytest.approx(0.1, rel=0.05)

    def test_gamma_exponential_update(self):
        # three observations 0.5, 1.5 and 1.0
        recipe = GammaExponentialUpdate("rate", 5.0, 1.0, 3)
        ds = {"obs_total": np.array([3.0])}
        a, b = recipe.posterior_params(ds)
        assert a == pytest.approx(8.0)
        assert np.atleast_1d(b)[0] == pytest.approx(4.0)
        assert recipe.exact_means(ds)["rate"][0] == pytest.approx(2.0)
        draws = recipe.draw(ds, 100000, SeedSpec(3).generator())["rate"]
        assert draws.mean() == pytest.approx(2.0, rel=0.02)

    def test_null_update_returns_prior(self):
        recipe = NullUpdate("p", DistSpec("beta", 15, 85), 10)
        ds = {"x": np.array([1.0])}
        draws = recipe.draw(ds, 100000, SeedSpec(4).generator())["p"]
        assert draws.mean() == pytest.approx(0.15, abs=0.001)
        # the posterior is the prior, whatever the data
        ds = {"x": np.array([0.0, 10.0])}
        assert recipe.exact_means(ds)["p"].tolist() == [0.15, 0.15]
        assert [v.tolist() for v in recipe.posterior_params(ds)] == [[15.0, 15.0], [85.0, 85.0]]

    def test_exact_means_name_the_informed_params(self):
        ds = {"x": np.array([3.0]), "obs_total": np.array([3.0]),
              "dc": np.array([30.0]), "dt": np.array([10.0])}
        for recipe in (BetaBinomialUpdate("p", 1.0, 1.0, 10),
                       NormalNormalUpdate("mu", 0.0, 1.0, 1.0, 9),
                       GammaExponentialUpdate("rate", 5.0, 1.0, 3),
                       NullUpdate("p", DistSpec("normal", 0.0, 1.0), 10),
                       TwoArmTrialUpdate(200, 15.0, 85.0, -1.5, 3.0)):
            means = recipe.exact_means(ds)
            assert list(means) == list(recipe.informed_params)
            assert all(v.shape == (1,) for v in means.values())


def _beta_moments(a, b):
    return a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))


def _prior_moments(prior):
    p0, p1 = prior.params
    return prior.mean(), {"uniform": (p1 - p0) ** 2 / 12.0,
                          "beta": _beta_moments(p0, p1)[1],
                          "gamma": p0 / p1**2,
                          "normal": p1}[prior.family.value]


def _rule_cases():
    """(id, recipe, dataset, posterior means, posterior variances): the edge
    counts x = 0 and x = n, a uniform prior, an exponential total near 0,
    and the null design's priors of every family."""
    cases = []
    for label, alpha, beta, n in (("ades_study1", 3.0, 9.0, 60), ("uniform_prior", 1.0, 1.0, 10),
                                  ("two_param", 1.0, 4.0, 30)):
        recipe = BetaBinomialUpdate("p", alpha, beta, n)
        ds = {"x": np.array([0.0, 1.0, n // 2, n - 1.0, n])}
        cases.append((f"beta-{label}", recipe, ds, *_beta_moments(*recipe.posterior_params(ds))))
    recipe = GammaExponentialUpdate("rate", 5.0, 1.0, 10)
    ds = {"obs_total": np.array([1e-12, 0.5, 10.0, 1e3])}
    shape, rate = recipe.posterior_params(ds)
    cases.append(("gamma-exp_gamma", recipe, ds, shape / rate, shape / rate**2))
    recipe = NormalNormalUpdate("mu", 0.3, 2.0, 4.0, 9)
    ds = {"obs_total": np.array([-50.0, 0.0, 12.0])}
    mean, var = recipe.posterior_params(ds)
    cases.append(("normal-normal_normal", recipe, ds, mean, np.full(3, var)))
    for prior in (DistSpec("uniform", 0.0, 1.0), DistSpec("uniform", -2.0, 3.0),
                  DistSpec("beta", 1.0, 4.0), DistSpec("beta", 15.0, 85.0),
                  DistSpec("gamma", 5.0, 1.0), DistSpec("normal", 0.3, 2.0)):
        mean, var = _prior_moments(prior)
        cases.append((f"null-{prior.family.value}-{prior.params[0]:g}-{prior.params[1]:g}",
                      NullUpdate("p", prior, 10), {"x": np.zeros(2)}, np.full(2, mean),
                      np.full(2, var)))
    return cases


_RULE_CASES = _rule_cases()


class TestConjugateRules:
    """Each conjugate recipe's adaptive Gauss-Hermite rule against the
    posterior's closed-form mean and variance.

    Posteriors with a shape parameter near 1, as x = 0 or x = n under a
    uniform prior gives, have exponential tails in the logit or log frame,
    which a Gauss-Hermite rule integrates slowly: at the shipped 24 nodes
    their moments are within 1e-4, at 128 within 1e-8.  Near-normal frames
    (the ades study1 interior, the Gamma posteriors) reach 1e-8 at 24 nodes.
    """

    @staticmethod
    def _moments(recipe, dataset, k):
        nodes, weights = dataclasses.replace(recipe, nodes=k).nodes_and_weights(dataset, "test")
        x = nodes[recipe.param]
        assert x.shape == weights.shape == (len(next(iter(dataset.values()))), k)
        assert np.all(np.isfinite(x)) and np.all(weights >= 0) and np.all(weights <= 1)
        weights = weights / weights.sum(axis=1, keepdims=True)
        mean = (weights * x).sum(axis=1)
        return mean, (weights * (x - mean[:, None]) ** 2).sum(axis=1)

    @pytest.mark.parametrize("k, rel", [(RULE_NODES, 1e-4), (128, 1e-8)])
    @pytest.mark.parametrize("case", _RULE_CASES, ids=[c[0] for c in _RULE_CASES])
    def test_moments_match_the_closed_form(self, case, k, rel):
        _, recipe, dataset, want_mean, want_var = case
        mean, var = self._moments(recipe, dataset, k)
        assert mean == pytest.approx(want_mean, rel=rel)
        assert var == pytest.approx(want_var, rel=rel)

    def test_near_normal_posteriors_reach_1e_8_at_the_shipped_nodes(self):
        recipe = BetaBinomialUpdate("p", 3.0, 9.0, 60)
        ds = {"x": np.arange(5.0, 56.0)}
        mean, var = self._moments(recipe, ds, RULE_NODES)
        want_mean, want_var = _beta_moments(*recipe.posterior_params(ds))
        assert mean == pytest.approx(want_mean, rel=1e-8)
        assert var == pytest.approx(want_var, rel=1e-8)
        recipe = GammaExponentialUpdate("rate", 5.0, 1.0, 10)
        ds = {"obs_total": np.geomspace(1e-12, 1e4, 30)}
        shape, rate = recipe.posterior_params(ds)
        mean, var = self._moments(recipe, ds, RULE_NODES)
        assert mean == pytest.approx(shape / rate, rel=1e-8)
        assert var == pytest.approx(shape / rate**2, rel=1e-8)

    def test_a_row_does_not_depend_on_its_batch(self):
        recipe = BetaBinomialUpdate("p", 1.0, 1.0, 10)
        batch, batch_w = recipe.nodes_and_weights({"x": np.arange(11.0)}, "test")
        for x in range(11):
            alone, alone_w = recipe.nodes_and_weights({"x": np.array([float(x)])}, "test")
            assert np.array_equal(alone["p"][0], batch["p"][x])
            assert np.array_equal(alone_w[0], batch_w[x])


def _separate_normal_rule(mean, var, k):
    """The Normal recipes' rule as it stood apart from the expectation: the
    moments as (rows, 1) columns, and the weights broadcast to the nodes."""
    mean, var = (v.reshape(-1, 1) for v in np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (mean, var))))
    u, w = hermite_nodes(k)
    x = mean + np.sqrt(2.0 * var) * u
    return x, np.broadcast_to(w, x.shape)


def _separate_expectation(f, mean, var, n=64):
    """`gauss_hermite_expectation` as it stood apart from the recipes' rule."""
    x, w = hermite_nodes(n)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    z = mean[..., None] + np.sqrt(2.0 * var)[..., None] * x
    return np.sum(w * f(z), axis=-1)


class TestNormalRule:
    """The one Normal rule gives the bits of the two it replaced."""

    MOMENTS = {"scalar": (0.3, 2.0),
               "arrays": (np.linspace(-3.0, 4.0, 7), np.geomspace(0.1, 9.0, 7)),
               "scalar_var": (np.linspace(-3.0, 4.0, 7), 0.7)}

    @pytest.mark.parametrize("moments", MOMENTS.values(), ids=list(MOMENTS))
    def test_expectation_equals_the_separate_one(self, moments):
        for f in (expit, np.square):
            got = gauss_hermite_expectation(f, *moments)
            want = _separate_expectation(f, *moments)
            assert np.array_equal(got, want) and got.shape == want.shape
        assert gauss_hermite_expectation(expit, 0.3, 2.0).shape == ()

    @pytest.mark.parametrize("moments", list(MOMENTS.values())[1:], ids=list(MOMENTS)[1:])
    def test_rule_equals_the_separate_one(self, moments):
        for k in (1, RULE_NODES, 64):
            (x, w), (want_x, want_w) = normal_rule(*moments, k), _separate_normal_rule(*moments, k)
            assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
            assert x.shape == w.shape == want_x.shape

    def test_recipes_take_the_separate_rule(self):
        recipe = NormalNormalUpdate("mu", 0.3, 2.0, 4.0, 9)
        ds = {"obs_total": np.array([-50.0, 0.0, 12.0])}
        nodes, weights = recipe.nodes_and_weights(ds, "test")
        want_x, want_w = _separate_normal_rule(*recipe.posterior_params(ds), RULE_NODES)
        assert np.array_equal(nodes["mu"], want_x) and np.array_equal(weights, want_w)
        model = get_model("normal_normal")
        recipe = get_design(model, "null").recipe
        assert recipe.prior.family.value == "normal"
        nodes, weights = recipe.nodes_and_weights({"x": np.zeros(4)}, "test")
        want_x, want_w = _separate_normal_rule(np.full(4, recipe.prior.params[0]),
                                               recipe.prior.params[1], RULE_NODES)
        assert np.array_equal(nodes[recipe.param], want_x) and np.array_equal(weights, want_w)


class TestLogisticForms:
    """util's numpy expit, log_expit and logit against scipy.special's."""

    FORMS = ("expit", "log_expit", "logit")

    @pytest.fixture(scope="class")
    def inputs(self):
        """{form: its inputs}: 1e6 draws of N(0, 9) with the ends +-800, +-inf
        and 0, and for logit their expit with the ends of its formula's pieces."""
        x = np.concatenate([np.random.default_rng(0).normal(0.0, 3.0, 1_000_000),
                            [800.0, -800.0, np.inf, -np.inf, 0.0]])
        p = np.concatenate([special.expit(x), [0.0, 0.3, 0.65, 1.0]])
        return {"expit": x, "log_expit": x, "logit": p}

    @pytest.mark.parametrize("form", FORMS)
    def test_equal_scipy_to_an_ulp_or_two(self, inputs, form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = getattr(util, form)(inputs[form])
        want = getattr(special, form)(inputs[form])
        assert got.shape == want.shape and not np.isnan(got).any()
        assert np.array_equal(np.isinf(got), np.isinf(want))
        differ = got != want
        assert np.all(np.abs(got[differ] - want[differ]) <= 1e-15 * np.abs(want[differ]))

    @pytest.mark.parametrize("form", FORMS)
    def test_a_scalar_gives_a_scalar(self, form):
        got = getattr(util, form)(0.4)
        assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        assert got == pytest.approx(getattr(special, form)(0.4), rel=1e-15, abs=0.0)

    def test_expit_allocates_only_its_output(self):
        # nested study2 takes expit of 20,000 x 64 nodes.  The result owns
        # its buffer, so that numpy can write weights * expit(y) into it
        x = np.random.default_rng(1).normal(0.0, 3.0, (20_000, 64))
        tracemalloc.start()
        try:
            out = util.expit(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes
        for form in self.FORMS:
            assert getattr(util, form)(x[:2]).flags.owndata


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

    @pytest.mark.parametrize("n_keep", [0, 3])
    def test_too_few_draws_are_refused(self, n_keep):
        with pytest.raises(ValueError, match=f"n_keep must be at least 4, got {n_keep}"):
            metropolis_ensemble(lambda s, i: _beta48_logpost(s, None, i), n_chains=1,
                                init=np.array([0.3]), scales=np.array([0.1]), n_keep=n_keep,
                                burn_in=10, seed=SeedSpec(12))

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
        assert 1.0 <= info["split_variance_ratio"][0] <= 2.0

    def test_split_ratio_flags_a_wider_second_half(self):
        # coordinate 0's second half is ten times as variable (first/second
        # ratio 0.088); coordinate 1's ratio, 0.948, must not hide it
        draws = np.random.default_rng(0).standard_normal((1, 1000, 2))
        draws[0, 500:, 0] *= np.sqrt(10.0)
        v1, v2 = draws[0, :500].var(axis=0, ddof=1), draws[0, 500:].var(axis=0, ddof=1)
        assert (v1 / v2) == pytest.approx([0.0879, 0.9481], abs=1e-4)
        assert _split_variance_ratio(draws)[0] == pytest.approx(v2[0] / v1[0], rel=1e-12)
        assert _split_variance_ratio(draws)[0] == pytest.approx(11.374, abs=1e-3)


def _reference_ensemble(logpost, n_chains, init, scales, n_keep, burn_in, seed):
    """A straightforward step loop over all chains in one block: a fresh
    proposal array per step and boolean-index moves.  The kernel in
    `metropolis_ensemble` must match it bit for bit."""
    steps = burn_in + n_keep
    normals = np.empty((n_chains, steps, init.shape[0]))
    logu = np.empty((n_chains, steps))
    for i in range(n_chains):
        gen = seed.derive(i).generator()
        normals[i] = gen.standard_normal((steps, init.shape[0]))
        logu[i] = np.log(gen.random(steps))
    cur = np.tile(init, (n_chains, 1))
    idx = np.arange(n_chains)
    lp = logpost(cur, idx)
    log_mult = np.zeros(n_chains)
    window_acc = np.zeros(n_chains)
    kept = []
    for t in range(steps):
        prop = cur + normals[:, t, :] * (scales * np.exp(log_mult)[:, None])
        lp_prop = logpost(prop, idx)
        acc = (lp_prop - lp) > logu[:, t]
        cur[acc] = prop[acc]
        lp = np.where(acc, lp_prop, lp)
        if t < burn_in:
            window_acc += acc
            if (t + 1) % 50 == 0:
                log_mult = np.clip(log_mult + 0.5 * (window_acc / 50 - 0.3), -6.0, 6.0)
                window_acc[:] = 0.0
        else:
            kept.append(cur.copy())
    return np.stack(kept, axis=1)


def _four_term_ades_logpost(model, n):
    """The ADES two-arm log posterior with one log_expit per binomial term."""
    p = model.params
    a_pc, b_pc = p["pc_alpha"], p["pc_beta"]
    or_mean, or_prec = p["log_or_mean"], 1.0 / p["log_or_var"]

    def log_posterior(states, dataset, idx):
        x0, x1 = states[:, 0], states[:, 1]
        dc, dt = dataset["dc"][idx], dataset["dt"][idx]
        xt = x0 + x1
        lp = a_pc * log_expit(x0) + b_pc * log_expit(-x0)
        lp += -0.5 * or_prec * (x1 - or_mean) ** 2
        lp += dc * log_expit(x0) + (n - dc) * log_expit(-x0)
        lp += dt * log_expit(xt) + (n - dt) * log_expit(-xt)
        return lp

    return log_posterior


class TestAdesKernelMatchesReference:
    """The kernel on the ades two-arm log density, which the two-arm rule
    uses, against the reference loop on the four-term density."""

    @pytest.fixture(scope="class")
    def trial(self):
        model = get_model("ades")
        design = get_design(model, "study3")
        posterior = design.recipe

        def log_posterior(states, dataset, idx):
            return posterior.log_density(states[:, 0], states[:, 1], dataset["dc"][idx],
                                         dataset["dt"][idx])

        return model, design, log_posterior, _four_term_ades_logpost(model, design.recipe.n)

    @staticmethod
    def _start(model):
        """(init, scales): the prior mean of (logit Pc, log OR), and the prior
        sd of Pc on the logit scale with the prior sd of log OR."""
        p = model.params
        a, b = p["pc_alpha"], p["pc_beta"]
        mean = a / (a + b)
        sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        return (np.array([logit(mean), p["log_or_mean"]]),
                np.array([sd / (mean * (1 - mean)), np.sqrt(p["log_or_var"])]))

    @staticmethod
    def _datasets(model, design, n_chains, seed):
        psa = run_psa(model, n_chains, seed.derive(0))
        return design.simulate(psa.columns, seed.derive(1))

    def test_two_term_density_matches_four_term(self, trial):
        model, design, two_term, four_term = trial
        n = design.recipe.n
        x0, x1 = np.meshgrid(np.linspace(-40, 40, 161), np.linspace(-40, 40, 161))
        states = np.column_stack([x0.ravel(), x1.ravel()])
        for dc in (0.0, 7.0, float(n)):
            for dt in (0.0, 13.0, float(n)):
                ds = {"dc": np.full(len(states), dc), "dt": np.full(len(states), dt)}
                got = two_term(states, ds, slice(None))
                want = four_term(states, ds, slice(None))
                assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_kept_draws_bit_identical(self, trial):
        model, design, two_term, four_term = trial
        seed = SeedSpec(901)
        ds = self._datasets(model, design, 30, seed)
        init, scales = self._start(model)
        common = dict(n_chains=30, init=init, scales=scales, n_keep=1500, burn_in=500,
                      seed=seed.derive(2))
        draws, _ = metropolis_ensemble(lambda s, i: two_term(s, ds, i), **common)
        want = _reference_ensemble(lambda s, i: four_term(s, ds, i), **common)
        assert np.array_equal(draws, want)

    @pytest.mark.parametrize("block_size", [64, None])
    def test_stat_means_bit_identical(self, trial, block_size):
        # an ensemble run in blocks of 64 chains, or in one block, keeps the
        # reference's draws
        model, design, two_term, four_term = trial
        seed = SeedSpec(902)
        ds = self._datasets(model, design, 200, seed)
        init, scales = self._start(model)
        common = dict(n_chains=200, init=init, scales=scales, n_keep=1000, burn_in=500,
                      seed=seed.derive(2))
        draws, _ = metropolis_ensemble(lambda s, i: two_term(s, ds, i),
                                       block_size=block_size, **common)
        want = _reference_ensemble(lambda s, i: four_term(s, ds, i), **common)
        assert np.array_equal(draws, want)
