"""Pinned outputs of the estimator and the regression-on-summaries oracle.

The values were recorded before the estimator's passes over the PSA were
reworked to give the same bits with less work (column moments in the
quadrature plan, knots read off the sorted column, the B-spline recursion
by knot interval, one penalty per basis size).  The outputs should not move
at all; `rel=1e-12` leaves room only for the BLAS kernel, which can move the
last bits from one machine to another.  A change that moves them shows here.
When the plan's moments became numpy's 1-D reductions, which sum in another
order than the axis-0 reductions they had reproduced, no pin moved.

The estimator pins of every design whose posterior variance depends on the
data were recorded again when the quadrature plan's datasets became one
batch drawn from one stream, which changed which draws they are; the
normal_normal pin and the regression-on-summaries pins did not move.
"""

import pytest

import evsikit as ek
from evsikit.model import run_psa
from evsikit.rng import SeedSpec

# (model, design, PSA seed, estimator seed): (evsi, evsi_se, a, b, sigma2)
# at S=2e4, Q=10
ESTIMATES = {
    ("ades", "study1", 100, 200): (5491.604915631294, 143.08351805211967, 0.9116860287787117, 511.0063391688111, 376381474.6009532),
    ("ades", "study2", 101, 201): (1931.0303448623736, 104.559047689034, 0.9403713777828384, 301.297052631909, 104992823.27193704),
    ("ades", "study3", 102, 202): (4174.670535189134, 208.22983338737902, 0.7895442323423549, 1167.3444783232496, 291636407.8394134),
    ("ades", "study4", 103, 203): (4035.176357196574, 175.21827496446642, 0.7774195017536686, 1223.043654302424, 275023487.55783045),
    ("beta_binomial", "trial", 104, 204): (2237.7121985227973, 32.60910560311169, 0.9054984403515759, -1.2808924316024264, 27047472.281055823),
    ("exp_gamma", "trial", 105, 205): (148.11068285386685, 3.9809679734941117, 0.8526172087607706, -0.1030616615163235, 143958.1239856574),
    ("normal_normal", "trial", 106, 206): (3757.884699191723, 44.28477286063636, 0.9492099819998595, -4.793292257257705, 91009682.61388864),
    ("quadratic_normal", "trial", 107, 207): (2.101117136646273, 0.09496076377248318, 0.8787822958452782, -0.0021860765017843314, 36.96675306694323),
    ("two_param_linear", "trial", 108, 208): (0.0, 5.6108081554729415e-15, 0.9163885113324941, 366.2722024643747, 2088261.3196897584),
}

# (ades design, PSA seed, oracle seed): (evsi, standard error) at S=2e4
SUMMARIES = {
    ("study1", 300, 400): (5637.121686199652, 122.37930005628922),
    ("study2", 301, 401): (1991.12078226813, 119.65347936337238),
    ("study3", 302, 402): (4217.205695766815, 133.28674691119826),
}


@pytest.mark.filterwarnings("ignore:future sample size")
@pytest.mark.parametrize("key", list(ESTIMATES), ids=lambda k: f"{k[0]}-{k[1]}")
def test_estimate_evsi_is_pinned(key):
    model_name, design_name, psa_seed, seed = key
    model = ek.get_model(model_name)
    psa = run_psa(model, 20000, SeedSpec(psa_seed))
    result = ek.estimate_evsi(model, ek.get_design(model, design_name), psa,
                              ek.EvsiOptions(Q=10, seed=SeedSpec(seed)))
    got = (result.evsi, result.evsi_se, result.a, result.b, result.variance_estimate.sigma2)
    assert got == pytest.approx(ESTIMATES[key], rel=1e-12)


@pytest.mark.parametrize("key", list(SUMMARIES), ids=lambda k: k[0])
def test_regression_on_summaries_is_pinned(key):
    design_name, psa_seed, seed = key
    model = ek.get_model("ades")
    psa = run_psa(model, 20000, SeedSpec(psa_seed))
    result = ek.regression_on_summaries_evsi(model, ek.get_design(model, design_name), psa,
                                             SeedSpec(seed))
    assert (result.evsi, result.standard_error) == pytest.approx(SUMMARIES[key], rel=1e-12)
