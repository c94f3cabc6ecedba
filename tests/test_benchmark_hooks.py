"""The benchmark calls and patches evsikit names from outside the package.

`evsibench/tracing.py` lists the names its tracer patches in `TARGETS` and
`DESIGN_TARGETS`, and `evsibench/workloads.py` passes settings and keywords
that nothing in the package reads any more.  A refactor that renames or
removes one breaks the benchmark run, so this suite checks that every one of
them still exists and is still taken.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from evsikit.casemodels import StudyDesign, get_design, get_model, list_designs, list_models
from evsikit.model import run_psa
from evsikit.momentmatch import EvsiOptions, estimate_evsi
from evsikit.oracles import nested_mc_evsi
from evsikit.rng import SeedSpec

_BENCH = Path(__file__).resolve().parents[1] / "evsibench"


def _bench_module(name):
    """A module of evsibench/, which imports its siblings by their bare names."""
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"evsibench_{name}", _BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module       # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
    return module


_tracing = _bench_module("tracing")
_workloads = _bench_module("workloads")


@pytest.mark.parametrize("module_name, attr, cls_name", [
    target[:3] for target in _tracing.TARGETS
])
def test_traced_attribute_exists(module_name, attr, cls_name):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        # the tracer patches the class's own entry, not an inherited one
        assert callable(getattr(owner, cls_name).__dict__[attr])
    else:
        assert callable(getattr(owner, attr))


def test_traced_design_fields_exist():
    fields = {f.name for f in dataclasses.fields(StudyDesign)}
    assert {field for field, _ in _tracing.DESIGN_TARGETS} <= fields


def _counting(fn, calls, key):
    """`fn`, counting its calls in `calls[key]`."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.filterwarnings("ignore:future sample size", "ignore:negative preposterior variance")
@pytest.mark.parametrize("model_name, design_name", [
    (m, d) for m in list_models() for d in list_designs(m)])
def test_a_design_with_wrapped_callables_gives_the_same_bits(model_name, design_name):
    # Tracer.trace_design replaces the DESIGN_TARGETS fields of a design with
    # pass-through wrappers; the engine must call them and give the same bits
    model = get_model(model_name)
    design = get_design(model, design_name)
    calls = dict.fromkeys((field for field, _ in _tracing.DESIGN_TARGETS), 0)
    wrapped = dataclasses.replace(
        design, **{field: _counting(getattr(design, field), calls, field) for field in calls})
    psa = run_psa(model, 2000, SeedSpec(5).derive(0))
    options = EvsiOptions(Q=5, seed=SeedSpec(5).derive(1))
    plain, traced = (estimate_evsi(model, d, psa, options) for d in (design, wrapped))
    assert traced.to_json_dict() == plain.to_json_dict()
    assert np.array_equal(traced.rescaled, plain.rescaled)
    assert calls["simulate_batch"] == 1 and calls["batch_inner_means"] == 0
    plain, traced = (nested_mc_evsi(model, d, 200, seed=SeedSpec(6)) for d in (design, wrapped))
    assert (traced.evsi, traced.standard_error) == (plain.evsi, plain.standard_error)
    assert calls == {"simulate_batch": 2, "batch_inner_means": 1}


@pytest.mark.parametrize("name", ["ADES_FULL", "ADES_MCMC", "TOY"])
def test_evsi_options_take_the_workload_settings(name):
    # Runner.estimate builds EvsiOptions(seed=..., **settings)
    settings = getattr(_workloads, name)
    options = EvsiOptions(seed=SeedSpec(1), **settings)
    assert {key: getattr(options, key) for key in settings} == settings


def test_estimate_runs_with_the_toy_settings_and_has_a_clamped():
    # evsibench/checks.py reads result.a_clamped
    model = get_model("normal_normal")
    design = get_design(model, "trial")
    psa = run_psa(model, 2000, SeedSpec(2).derive(0))
    result = estimate_evsi(model, design, psa, EvsiOptions(seed=SeedSpec(2).derive(1),
                                                           **_workloads.TOY))
    assert result.a_clamped is False


def test_nested_oracle_takes_the_inner_chain_keywords():
    # the ades-mcmc workload's nested call
    model = get_model("ades")
    design = get_design(model, "study3")
    result = nested_mc_evsi(model, design, 100, n_inner=1000, inner_burn_in=500,
                            seed=SeedSpec(3).derive(1))
    assert result.n_outer == 100 and result.evsi >= 0.0
