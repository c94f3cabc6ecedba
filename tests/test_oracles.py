"""Nested Monte Carlo, enumeration, and summary-regression oracle tests."""

import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evsikit.oracles as oracles
from evsikit.casemodels import StudyDesign
from evsikit.casemodels import ConjugateToy, analytic_preposterior, get_design, get_model
from evsikit.model import compute_inb, evpi, run_psa, voi
from evsikit.momentmatch import EvsiOptions, estimate_evsi
from evsikit.oracles import (
    OracleResult,
    nested_mc_evsi,
    regression_on_summaries_evsi,
)
from evsikit.regression import SplineDesign, _resample
from evsikit.rng import SeedSpec
from evsikit.util import (
    BudgetExceededError,
    ComputationError,
    SchemaError,
    UnsupportedDimensionError,
)


class TestEnumeration:
    def test_single_patient_value(self):
        result = analytic_preposterior(ConjugateToy("beta_binomial_uniform", 1))
        assert result.evsi == pytest.approx(5000.0 / 3.0)

    def test_no_data_no_value(self):
        assert analytic_preposterior(ConjugateToy("beta_binomial_uniform", 0)).evsi == 0.0

    def test_never_cost_effective(self):
        toy = ConjugateToy("beta_binomial_uniform", 10,
                           params={"k": 20000.0, "c": 20000.0})
        assert analytic_preposterior(toy).evsi == 0.0

    def test_bit_identical_repeats(self):
        toy = ConjugateToy("beta_binomial_uniform", 37)
        assert analytic_preposterior(toy).evsi == analytic_preposterior(toy).evsi


class TestNestedMc:
    def test_beta_binomial_agrees_with_enumeration(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        result = nested_mc_evsi(model, design, 100000, seed=SeedSpec(1))
        truth = analytic_preposterior(ConjugateToy("beta_binomial_uniform", 10)).evsi
        assert abs(result.evsi - truth) <= 3 * result.standard_error

    def test_normal_normal_agrees_with_closed_form(self):
        model = get_model("normal_normal", k=10000.0)
        design = get_design(model, "trial", n=9)
        result = nested_mc_evsi(model, design, 100000, seed=SeedSpec(2))
        truth = analytic_preposterior(ConjugateToy("normal_normal", 9)).evsi
        assert abs(result.evsi - truth) <= 3 * result.standard_error

    def test_ades_trial_agrees_with_exact_value(self):
        # 4114.96 is the trial's exact EVSI by 2-D quadrature over the prior
        # (evsibench/references.py); the inner means are quadrature too, so
        # only the outer draws are noise
        model = get_model("ades")
        result = nested_mc_evsi(model, get_design(model, "study3"), 200_000, seed=SeedSpec(0))
        assert abs(result.evsi - 4114.96) <= 3 * result.standard_error
        assert result.standard_error < 20.0

    def test_uninformative_design_has_zero_value(self):
        # exact inner means are all equal to the prior mean, so the value
        # is exactly zero with zero spread
        model = get_model("beta_binomial")
        design = get_design(model, "null")
        result = nested_mc_evsi(model, design, 1000, seed=SeedSpec(3))
        assert result.evsi == 0.0
        assert result.standard_error <= 1e-12

    def test_reported_se_scales_with_outer_count(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        ratios = []
        for r in range(10):
            small = nested_mc_evsi(model, design, 2000, seed=SeedSpec(100 + r))
            large = nested_mc_evsi(model, design, 8000, seed=SeedSpec(200 + r))
            ratios.append(large.standard_error / small.standard_error)
        # quadrupling the outer draws halves the standard error
        assert abs(np.mean(ratios) - 0.5) <= 0.1

    def test_nan_inner_mean_raises(self):
        # max(0, nan) is 0, so one NaN inner mean used to read as EVSI 0.0
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        exact_means = design.batch_inner_means

        def one_nan(datasets):
            means = np.array(exact_means(datasets), dtype=float)
            means[0] = np.nan
            return means

        broken = dataclasses.replace(design, batch_inner_means=one_nan)
        with pytest.raises(ComputationError, match=r"\[voi\] 1 non-finite"):
            nested_mc_evsi(model, broken, 1000, seed=SeedSpec(3))

    def test_empirical_spread_halves_when_outer_quadruples(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        at = {}
        for n in (2000, 8000):
            at[n] = np.array([
                nested_mc_evsi(model, design, n, seed=SeedSpec(300 + r)).evsi
                for r in range(10)
            ])
        ratio = at[8000].std(ddof=1) / at[2000].std(ddof=1)
        assert 0.25 <= ratio <= 0.9

    @pytest.mark.parametrize("model_name, design_name, n_outer, expected", [
        ("ades", "study1", 60_000, (5596.949708964154, 43.6457860583425)),
        ("ades", "study2", 20_000, (1852.4486735014116, 25.995318067240664)),
        ("two_param_linear", "trial", 20_000, (0.0, 0.0)),
        ("beta_binomial", "trial", 20_000, (2275.1666666666665, 20.917362216108458)),
        # the two-arm trial's inner means, by its adaptive rule; recorded again,
        # within 9e-16, when expit came to be computed with numpy's exp
        ("ades", "study3", 20_000, (4102.197885057111, 59.64965509790635)),
    ])
    def test_fixed_seed_values_are_pinned(self, model_name, design_name, n_outer, expected):
        # values of a build that drew every prior column: these designs'
        # data are simulated from prior columns alone, now the only ones
        # drawn, from the same streams
        model = get_model(model_name)
        result = nested_mc_evsi(model, get_design(model, design_name), n_outer,
                                seed=SeedSpec(42))
        assert (result.evsi, result.standard_error) == expected

    def test_draws_only_the_informed_prior_columns(self, monkeypatch):
        drawn = []
        run = oracles.run_psa

        def recording_run_psa(model, S, seed, **kwargs):
            psa = run(model, S, seed, **kwargs)
            drawn.append(tuple(psa.columns))
            return psa

        monkeypatch.setattr(oracles, "run_psa", recording_run_psa)
        model = get_model("ades")
        for name in ("study1", "study3"):
            nested_mc_evsi(model, get_design(model, name), 1000, seed=SeedSpec(1))
        # study3's trial counts are drawn from the derived Pt, which needs every prior
        assert drawn == [("Pse",), ("Pc", "Pse", "log_or", "logit_qe", "Pt", "Qe")]

    def test_minimum_counts(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        with pytest.raises(ValueError):
            nested_mc_evsi(model, design, 50, seed=SeedSpec(4))

    def test_budget_carries_completed_count(self, monkeypatch):
        monkeypatch.setattr(oracles, "_OUTER_CHUNK", 200)
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=10)
        with pytest.raises(BudgetExceededError) as err:
            nested_mc_evsi(model, design, 600, seed=SeedSpec(5), budget_seconds=0.0)
        assert err.value.completed == 200
        assert err.value.total == 600


_PINNED_ROS_RUN = """
import json
from evsikit import get_design, get_model, regression_on_summaries_evsi, run_psa, SeedSpec
model = get_model("ades")
psa = run_psa(model, 20000, SeedSpec(3))
out = {}
for study in ("study1", "study2", "study3"):
    r = regression_on_summaries_evsi(model, get_design(model, study), psa, seed=SeedSpec(103))
    out[study] = [r.evsi, r.standard_error]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pinned_ros():
    """ades regression on summaries at S=2e4 (PSA seed 3, oracle seed 103),
    (EVSI, SE) per study, run in a fresh interpreter on one BLAS thread with
    OpenBLAS's Haswell kernels: the last bits of a matrix product depend on
    the kernel and on how the threads split it."""
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    src = str(Path(oracles.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PINNED_ROS_RUN], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


class TestRegressionOnSummaries:
    def test_beta_binomial_matches_enumeration(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=50)
        psa = run_psa(model, 100000, SeedSpec(6))
        result = regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(7),
                                              n_bootstrap=5)
        truth = analytic_preposterior(ConjugateToy("beta_binomial_uniform", 50)).evsi
        assert abs(result.evsi - truth) <= 0.02 * truth

    def test_uninformative_design_flattens(self):
        model = get_model("beta_binomial")
        design = get_design(model, "null")
        psa = run_psa(model, 50000, SeedSpec(8))
        result = regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(9),
                                              n_bootstrap=2)
        assert result.evsi <= 0.01 * evpi(compute_inb(model, psa))

    @pytest.mark.parametrize("name", ["two_param_linear", "normal_normal"])
    def test_constant_inb_has_no_value(self, name):
        # at k=0 the INB is the same on every draw (-2500 and 0), so no
        # dataset changes the decision; a fit would have no room for round-off
        model = get_model(name, k=0.0)
        psa = run_psa(model, 5000, SeedSpec(12))
        assert np.ptp(compute_inb(model, psa).inb_theta) == 0.0
        result = regression_on_summaries_evsi(model, get_design(model, "trial"), psa,
                                              seed=SeedSpec(13))
        assert (result.evsi, result.standard_error) == (0.0, 0.0)

    def test_bootstrap_se_positive(self):
        model = get_model("beta_binomial")
        design = get_design(model, "trial", n=20)
        psa = run_psa(model, 20000, SeedSpec(10))
        result = regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(11),
                                              n_bootstrap=10)
        assert result.standard_error > 0.0

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="the pins hold for OpenBLAS's x86-64 Haswell kernels")
    def test_fixed_seed_values_are_pinned(self, pinned_ros):
        # the values of an earlier build, to the bit.  The standard errors
        # were recorded again when the bootstrap refits came to be summed in
        # blocks of replicates, each within 4e-15 of the value before, and
        # the study1 and study3 EVSIs when the fit came to be summed as a
        # block of one, within 7e-16; all but the study2 EVSI again, within
        # 2.1e-15, when expit, logit and the GCV search's Cholesky transform
        # came to be computed with numpy in place of scipy
        assert pinned_ros == {
            "study1": [5615.006473017155, 123.50237786421785],    # one discrete count
            "study2": [1941.9472265779077, 78.87440554813902],    # one continuous total
            "study3": [4079.9832315249414, 103.95130478418064],   # two discrete counts
        }

    def test_non_finite_summaries_rejected(self):
        model = get_model("beta_binomial")
        trial = get_design(model, "trial", n=20)

        def summarize_with_nan(datasets):
            summaries = np.array(trial.recipe.summarize(datasets), dtype=float)
            summaries[::500] = np.nan
            return summaries

        # the copy keeps the trial's simulator; only its summaries change
        name = trial.recipe.summary_names[0]
        design = dataclasses.replace(trial, recipe=SimpleNamespace(
            summarize=summarize_with_nan, summary_names=(name,)))
        psa = run_psa(model, 5000, SeedSpec(10))
        with pytest.raises(SchemaError, match=f"{name} has 10 non-finite values"):
            regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(11))

    def test_more_than_three_summaries_unsupported(self):
        model = get_model("ades")
        study1 = get_design(model, "study1")

        def four_summaries(datasets):
            column = np.asarray(study1.recipe.summarize(datasets), dtype=float)[:, :1]
            return np.hstack([column, column + 1, column + 2, column + 3])

        design = dataclasses.replace(study1, recipe=SimpleNamespace(
            summarize=four_summaries, summary_names=("s1", "s2", "s3", "s4")))
        psa = run_psa(model, 2000, SeedSpec(12))
        with pytest.raises(UnsupportedDimensionError, match="focal dimension 4 unsupported"):
            regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(13))


class TestBootstrapCounts:
    """`_resample`: one resample of n rows, as counts of draws per design row
    and sums of y over them."""

    def test_counts_sum_to_n(self):
        gen = SeedSpec(15).generator()
        for n, n_design in ((1, 1), (7, 3), (100_000, 50), (100_000, 100_000)):
            inverse = np.random.default_rng(n).permutation(n) % n_design
            counts, sums = _resample(gen, inverse, n_design)
            assert sums is None
            assert counts.shape == (n_design,)
            assert counts.sum() == n
            assert counts.min() >= 0

    def test_counts_and_sums_are_those_of_the_draws(self):
        n, n_design = 5000, 40
        inverse = np.arange(n) % n_design
        y = np.random.default_rng(1).normal(size=n)
        counts, sums = _resample(SeedSpec(16).generator(), inverse, n_design, y)
        draws = SeedSpec(16).generator().integers(0, n, n)
        assert np.array_equal(counts, np.bincount(inverse[draws], minlength=n_design))
        np.testing.assert_allclose(sums, np.bincount(inverse[draws], y[draws], n_design),
                                   rtol=1e-12, atol=0)


def _nested_toy(n_outer):
    model = get_model("beta_binomial")
    return nested_mc_evsi(model, get_design(model, "trial"), n_outer)


# name: (its floor, a call that takes it)
_COUNTS = {
    "Q": (1, lambda Q: EvsiOptions(Q=Q)),
    "S": (2, lambda S: run_psa(get_model("beta_binomial"), S, SeedSpec(18))),
    "n_outer": (100, _nested_toy),
}


@pytest.mark.parametrize("value", [True, 3.0, np.float64(2000.0), "3", None, 0])
@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_must_be_integers_of_at_least_their_floor(name, value):
    # Q=True ran as Q=1 and Q=3.0 failed late in the posterior step; a
    # float S or n_outer ended in numpy's TypeError
    least, call = _COUNTS[name]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {least}, "
                                                   f"got {value!r}")):
        call(value)


def test_numpy_integer_counts_are_accepted():
    model = get_model("beta_binomial")
    psa = run_psa(model, np.int64(200), SeedSpec(18))
    assert psa.n_draws == 200
    assert _nested_toy(np.int64(200)).n_outer == 200
    # the result's config records Q as a Python int, so it can be written as JSON
    result = estimate_evsi(model, get_design(model, "trial", n=30), psa,
                           EvsiOptions(Q=np.int64(3)))
    assert json.loads(json.dumps(result.to_json_dict()))["config"]["Q"] == 3


@pytest.mark.parametrize("n_bootstrap", [1, 0, -5, 2.0, True, "20"])
def test_bootstrap_count_must_be_an_integer_of_at_least_two(n_bootstrap):
    # one replicate used to give a standard error of 0.0, a plausible number
    model = get_model("beta_binomial")
    psa = run_psa(model, 2000, SeedSpec(17))
    with pytest.raises(ValueError, match="n_bootstrap must be an integer >= 2"):
        regression_on_summaries_evsi(model, get_design(model, "trial"), psa,
                                     n_bootstrap=n_bootstrap)


def _nan_simulator(design: StudyDesign) -> StudyDesign:
    """The same design with every 500th simulated total, the first included, NaN."""
    simulate = design.simulate_batch

    def with_nan(cols, seed):
        datasets = simulate(cols, seed)
        key = next(iter(datasets))
        values = np.array(datasets[key], dtype=float)
        values[::500] = np.nan
        return {**datasets, key: values}

    return dataclasses.replace(design, simulate_batch=with_nan)


class TestNonFiniteSimulator:
    """A NaN in simulated data raises the `simulate` stage on every path."""

    @pytest.fixture
    def nan_case(self):
        model = get_model("normal_normal")
        design = _nan_simulator(get_design(model, "trial", n=4))
        return model, design, run_psa(model, 5000, SeedSpec(16))

    def test_nested(self, nan_case):
        model, design, _ = nan_case
        with pytest.raises(ComputationError, match=r"\[simulate\].*10 non-finite"):
            nested_mc_evsi(model, design, 5000, seed=SeedSpec(17))

    def test_regression_on_summaries(self, nan_case):
        model, design, psa = nan_case
        with pytest.raises(ComputationError, match=r"\[simulate\].*10 non-finite"):
            regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(18))

    def test_quadrature_points(self, nan_case):
        model, design, psa = nan_case
        with pytest.raises(ComputationError, match=r"\[simulate\].*1 non-finite"):
            estimate_evsi(model, design, psa, EvsiOptions(Q=5, seed=SeedSpec(19)))


def test_regression_on_summaries_refuses_a_bad_fit(monkeypatch):
    # a fit whose values lose the INB mean, as no spline fit's do
    fitted = SplineDesign._fitted_rows

    def shifted(self, beta, out):
        values = fitted(self, beta, out)
        return values + 1.0 + np.abs(values.mean(axis=1, keepdims=True))

    monkeypatch.setattr(SplineDesign, "_fitted_rows", shifted)
    model = get_model("beta_binomial")
    design = get_design(model, "trial", n=20)
    psa = run_psa(model, 2000, SeedSpec(20))
    with pytest.raises(SchemaError, match="do not preserve the INB mean"):
        regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(21), n_bootstrap=2)


def _scaled_values(scale):
    """ROS estimate and SE, and moment-matching EVSI, EVPPI and EVPI, for the
    beta-binomial model with k and c multiplied by `scale`; draws fixed."""
    base = get_model("beta_binomial")
    model = get_model("beta_binomial", **{k: scale * v for k, v in base.params.items()})
    design = get_design(model, "trial", n=20)
    psa = run_psa(model, 5000, SeedSpec(12))
    ros = regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(13), n_bootstrap=5)
    inb = compute_inb(model, psa)
    mm = estimate_evsi(model, design, psa, EvsiOptions(Q=5, seed=SeedSpec(14)), inb=inb)
    return np.array([ros.evsi, ros.standard_error, mm.evsi, voi(mm.conditional_mean).value,
                     evpi(inb)])


@pytest.fixture(scope="module")
def unit_scale_values():
    values = _scaled_values(1.0)
    assert np.all(values > 0)
    return values


class TestMonetaryScale:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(scale=st.floats(1e-3, 1e3))
    def test_values_scale_with_k_and_c(self, unit_scale_values, scale):
        np.testing.assert_allclose(_scaled_values(scale), scale * unit_scale_values, rtol=1e-9)


class TestOracleResult:
    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            OracleResult(method="nested_mc", evsi=1.0, standard_error=-0.1)


@pytest.mark.parametrize("model_name, design_name", [("beta_binomial", "trial"),
                                                     ("ades", "study1"), ("ades", "study3")])
def test_standard_errors_are_python_floats(model_name, design_name):
    # the nested oracle's SE came from voi as a numpy scalar, np.float64(...)
    model = get_model(model_name)
    design = get_design(model, design_name)
    psa = run_psa(model, 2000, SeedSpec(3))
    ses = [nested_mc_evsi(model, design, 500, seed=SeedSpec(1)).standard_error,
           regression_on_summaries_evsi(model, design, psa, seed=SeedSpec(2)).standard_error,
           estimate_evsi(model, design, psa, EvsiOptions(Q=5, seed=SeedSpec(4))).evsi_se]
    assert [type(se) for se in ses] == [float, float, float]
