"""Tracing records layer times and counts and leaves the program's outputs unchanged."""

import evsikit as ek
import evsikit.momentmatch
import evsikit.posterior
from tracing import Tracer


def _estimate(model, design):
    psa = ek.run_psa(model, 20_000, ek.SeedSpec(3).derive(0))
    options = ek.EvsiOptions(Q=4, M=1200, burn_in=200, seed=ek.SeedSpec(3).derive(1))
    return ek.estimate_evsi(model, design, psa, options)


def test_traced_run_is_bit_identical_and_counted():
    model = ek.get_model("ades")
    design = ek.get_design(model, "study3")
    plain = _estimate(model, design)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _estimate(model, tracer.trace_design(design))
    finally:
        tracer.uninstall()
    assert traced.evsi == plain.evsi and traced.evsi_se == plain.evsi_se
    m = tracer.layer_metrics(1)
    assert m["posterior.metropolis_calls"] == 4
    assert m["posterior.chain_steps"] == 4 * 1200
    assert m["preposterior.points"] == 4
    assert m["regression.fit_calls"] == 1 and m["regression.fit_rows"] == 20_000
    assert m["casemodels.simulate_s"] > 0
    total = m["momentmatch.estimate_evsi_s"]
    outside = ("momentmatch.estimate_evsi_s", "model.run_psa_s")
    inside = sum(v for k, v in m.items() if k.endswith("_s") and k not in outside)
    # self times of the layers under estimate_evsi add up to its duration,
    # apart from the generator calls made by run_psa
    assert abs(inside - total) < 0.05 * total + 0.01


def test_uninstall_restores_every_binding():
    originals = (ek.estimate_evsi, evsikit.momentmatch.fit_conditional_mean,
                 evsikit.posterior.metropolis_ensemble, ek.SeedSpec.generator)
    tracer = Tracer()
    tracer.install()
    assert ek.estimate_evsi is not originals[0]
    assert evsikit.momentmatch.fit_conditional_mean is not originals[1]
    tracer.uninstall()
    assert (ek.estimate_evsi, evsikit.momentmatch.fit_conditional_mean,
            evsikit.posterior.metropolis_ensemble, ek.SeedSpec.generator) == originals


def test_paused_calls_are_not_recorded():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.paused():
            ek.run_psa(ek.get_model("normal_normal"), 100, ek.SeedSpec(0))
    finally:
        tracer.uninstall()
    assert tracer.calls == {}
