"""PSA generation, INB computation, and EVPI tests."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evsikit.model import (
    DecisionModel,
    InbSamples,
    PsaSamples,
    compute_inb,
    evpi,
    run_psa,
    voi,
    voi_stack,
    write_psa_csv,
)
from evsikit.casemodels import get_model
from evsikit.rng import DistSpec, SeedSpec
from evsikit.util import ComputationError, SchemaError


def _uniform_threshold_model(k=20000.0, c=10000.0):
    def net_benefit(cols):
        nb2 = k * cols["p_success"] - c
        return np.column_stack([np.zeros_like(nb2), nb2])

    return DecisionModel(
        name="threshold",
        priors={"p_success": DistSpec("uniform", 0, 1)},
        net_benefit=net_benefit,
    )


class TestRunPsa:
    def test_single_uniform_prior(self):
        psa = run_psa(_uniform_threshold_model(), 3, SeedSpec(1))
        col = psa.column("p_success")
        assert col.shape == (3,)
        assert np.all((col >= 0) & (col <= 1))

    def test_ades_pse_mean(self):
        psa = run_psa(get_model("ades"), 10**6, SeedSpec(3))
        # Beta(3, 9) has mean 0.25 and sd 0.12005
        se = 0.1200480 / 1000
        assert abs(psa.column("Pse").mean() - 0.25) <= 4 * se

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            run_psa(_uniform_threshold_model(), 1, SeedSpec(1))

    @pytest.mark.parametrize("model_name, columns", [
        ("ades", ("Pse",)), ("ades", ("logit_qe",)), ("ades", ("log_or", "Pc")),
        ("two_param_linear", ("response_rate",)), ("beta_binomial", ("p_success",)),
    ])
    def test_a_subset_equals_the_full_draw_columns(self, model_name, columns):
        model = get_model(model_name)
        full = run_psa(model, 70_000, SeedSpec(4))   # two chunks per column
        subset = run_psa(model, 70_000, SeedSpec(4), columns=columns)
        assert subset.param_names == columns
        assert set(subset.columns) == set(columns)  # no derived columns
        for name in columns:
            assert np.array_equal(subset.column(name), full.column(name))

    def test_a_subset_checks_the_support_of_its_columns(self, monkeypatch):
        model = _uniform_threshold_model()
        spec = model.priors["p_success"]
        monkeypatch.setattr(type(spec), "sample_with", lambda self, gen, size: np.full(size, 2.0))
        with pytest.raises(SchemaError, match="violates its prior support"):
            run_psa(model, 10, SeedSpec(1), columns=("p_success",))

    def test_unknown_subset_column_rejected(self):
        with pytest.raises(SchemaError, match="no priors named"):
            run_psa(get_model("ades"), 10, SeedSpec(1), columns=("Pt",))


def _manual_ades_psa(rows: dict) -> PsaSamples:
    """PSA container with explicit values for every column, bypassing priors."""
    columns = {k: np.asarray(v, dtype=float) for k, v in rows.items()}
    return PsaSamples(columns=columns, param_names=("Pc", "Pse", "log_or", "logit_qe"),
                      seed=SeedSpec(0))


class TestComputeInb:
    def test_threshold_model_breakeven(self):
        model = _uniform_threshold_model()
        psa = PsaSamples(
            columns={"p_success": np.array([0.5, 0.5])},
            param_names=("p_success",),
            seed=SeedSpec(0),
        )
        inb = compute_inb(model, psa)
        assert inb.inb_theta == pytest.approx([0.0, 0.0])

    def test_ades_no_events_no_side_effects(self):
        # Pc = Pt = Pse = 0: only the treatment cost separates the arms
        model = get_model("ades")
        psa = _manual_ades_psa(
            {
                "Pc": [0.0, 0.0],
                "Pse": [0.0, 0.0],
                "log_or": [0.0, 0.0],
                "logit_qe": [0.0, 0.0],
                "Pt": [0.0, 0.0],
                "Qe": [0.5, 0.5],
            }
        )
        inb = compute_inb(model, psa)
        assert inb.inb_theta == pytest.approx([-15000.0, -15000.0])

    def test_ades_certain_events_no_side_effects(self):
        # Pc = Pt = 1, Pse = 0, Qe = 1: both arms suffer the event, the
        # difference is again just the treatment cost
        model = get_model("ades")
        psa = _manual_ades_psa(
            {
                "Pc": [1.0, 1.0],
                "Pse": [0.0, 0.0],
                "log_or": [0.0, 0.0],
                "logit_qe": [0.0, 0.0],
                "Pt": [1.0, 1.0],
                "Qe": [1.0, 1.0],
            }
        )
        inb = compute_inb(model, psa)
        assert inb.inb_theta == pytest.approx([-15000.0, -15000.0])

    def test_column_mismatch_raises(self):
        model = get_model("ades")
        psa = PsaSamples(
            columns={"Pc": np.array([0.1, 0.2])}, param_names=("Pc",), seed=SeedSpec(0)
        )
        with pytest.raises(SchemaError):
            compute_inb(model, psa)

    @pytest.mark.parametrize("shape", [(10, 1), (10, 3), (10,)])
    def test_net_benefit_must_have_two_columns(self, shape):
        # comparator first, then the new treatment: nothing else is an INB
        model = dataclasses.replace(_uniform_threshold_model(),
                                    net_benefit=lambda cols: np.zeros(shape))
        with pytest.raises(SchemaError, match=re.escape(f"shape {shape}, expected (10, 2)")):
            compute_inb(model, run_psa(model, 10, SeedSpec(6)))

    def test_permutation_equivariance(self):
        model = _uniform_threshold_model()
        psa = run_psa(model, 100, SeedSpec(5))
        perm = np.random.default_rng(0).permutation(100)
        permuted = PsaSamples(
            columns={"p_success": psa.column("p_success")[perm]},
            param_names=("p_success",),
            seed=SeedSpec(5),
        )
        assert np.array_equal(
            compute_inb(model, psa).inb_theta[perm],
            compute_inb(model, permuted).inb_theta,
        )


class TestEvpi:
    def test_certain_sign_no_value(self):
        assert evpi(InbSamples.from_values([5.0, 5.0, 5.0])) == 0.0

    def test_two_point_hand_value(self):
        assert evpi(InbSamples.from_values([-1.0, 1.0])) == pytest.approx(0.5)

    def test_uniform_threshold_model_closed_form(self):
        # E[max(0, k*theta - c)] = k/8 = 2500 for theta ~ Uniform(0, 1),
        # k = 20000, c = k/2; sd(max(0, .)) = k * 0.16137
        model = _uniform_threshold_model()
        psa = run_psa(model, 10**6, SeedSpec(6))
        inb = compute_inb(model, psa)
        se = 20000 * 0.16137 / 1000
        assert abs(evpi(inb) - 2500.0) <= 3 * se

    def test_always_nonnegative(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            values = gen.normal(gen.normal() * 10, 5, size=50)
            assert evpi(InbSamples.from_values(values)) >= 0.0

    def test_single_sign_is_zero(self):
        assert evpi(InbSamples.from_values([-3.0, -1.0, -2.0])) == 0.0


# exact binary fractions keep subnormal products out of the scaling property
_draws = st.lists(st.integers(-10**6, 10**6).map(lambda i: i / 64.0), min_size=2, max_size=200)


class TestVoiKernel:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_draws, st.booleans())
    def test_zero_when_every_draw_has_one_sign(self, values, negative):
        x = -np.abs(values) if negative else np.abs(values)
        assert voi(x).value == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_draws)
    def test_never_negative(self, values):
        assert voi(values).value >= 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_draws, st.floats(1e-3, 1e3))
    def test_scales_with_a_positive_factor(self, values, c):
        # relative to the sample's scale: the value is a difference of two
        # means and keeps no relative precision when they nearly cancel
        x = np.asarray(values)
        assert abs(voi(c * x).value - c * voi(x).value) <= 1e-12 * c * np.max(np.abs(x))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_draws)
    def test_se_is_the_integrand_standard_error(self, values):
        x = np.asarray(values)
        integrand = np.maximum(x, 0.0) - x if float(np.mean(x)) > 0 else np.maximum(x, 0.0)
        assert voi(x).se == float(np.std(integrand, ddof=1)) / np.sqrt(x.size)

    @pytest.mark.parametrize("x", [[1.0, -2.0, 3.0], [-4.0, 1.0], [2.0],
                                   np.array([0.5, -1.5], dtype=np.float32)])
    def test_fields_are_python_floats(self, x):
        # se was a numpy scalar, which reprs as np.float64(...)
        assert [type(v) for v in voi(x)] == [float, float, float]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            voi(np.array([]))
        with pytest.raises(ValueError):
            evpi(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, bad):
        # max(0, nan) is 0, so a NaN used to read as a value of 0.0
        with pytest.raises(ComputationError, match=r"\[voi\] 1 non-finite"):
            voi([1.0, -2.0, bad])


class TestVoiStack:
    """`voi_stack`: `voi(x).raw` of each sample of a stack, with each value
    standing for as many equal values as its weight."""

    def test_rows_equal_one_sample_at_a_time(self):
        x = np.random.default_rng(2).normal(30.0, 100.0, (4, 1000))
        np.testing.assert_allclose(voi_stack(x), [voi(row).raw for row in x],
                                   rtol=1e-12, atol=0)

    def test_weights_stand_for_repeated_values(self):
        gen = np.random.default_rng(3)
        x = gen.normal(-20.0, 100.0, (3, 60))
        w = gen.integers(1, 40, 60)
        np.testing.assert_allclose(voi_stack(x, w.astype(float)),
                                   [voi(np.repeat(row, w)).raw for row in x],
                                   rtol=1e-12, atol=0)

    def test_out_may_be_the_sample(self):
        x = np.random.default_rng(4).normal(0.0, 1.0, (2, 50))
        expected = voi_stack(x)
        assert np.array_equal(voi_stack(x, out=x), expected)
        assert np.all(x >= 0.0)


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        model = get_model("ades")
        psa = run_psa(model, 20, SeedSpec(7))
        inb = compute_inb(model, psa)
        path = tmp_path / "psa.csv"
        write_psa_csv(path, psa, inb)
        lines = path.read_text().splitlines()
        assert lines[0] == "Pc,Pse,log_or,logit_qe,NB1,NB2,INB"
        assert len(lines) == 21
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[6] == pytest.approx(first[5] - first[4])
