"""Pinned outputs of the estimator and the regression-on-summaries oracle.

The values were recorded before the estimator's passes over the PSA were
reworked to give the same bits with less work (1-D column moments in the
quadrature plan, knots read off the sorted column, the B-spline recursion
by knot interval, one penalty per basis size).  The outputs should not move
at all; `rel=1e-12` leaves room only for the BLAS kernel, which can move the
last bits from one machine to another.  A change that moves them shows here.
"""

import pytest

import evsikit as ek
from evsikit.model import run_psa
from evsikit.rng import SeedSpec

# (model, design, PSA seed, estimator seed): (evsi, evsi_se, a, b, sigma2)
# at S=2e4, Q=10
ESTIMATES = {
    ("ades", "study1", 100, 200): (5527.941458416243, 131.62299095979256, 0.9161041812562902, 485.44182324641116, 380038303.894997),
    ("ades", "study2", 101, 201): (1949.3140021111712, 106.05169317983928, 0.9452298278532535, 276.7478238866229, 106080521.45052737),
    ("ades", "study3", 102, 202): (4216.207076366741, 175.50641302311132, 0.7947940922363025, 1138.2248441721931, 295527615.87988436),
    ("ades", "study4", 103, 203): (4126.897232959051, 159.67358779881997, 0.7891093514805794, 1158.8098304009952, 283356580.96860516),
    ("beta_binomial", "trial", 104, 204): (2239.4846033461185, 30.343157357088643, 0.9062134909313464, -1.2712004976359563, 27090206.638544187),
    ("exp_gamma", "trial", 105, 205): (144.74372310698087, 4.903363677590772, 0.8332749358134784, -0.11658730294765204, 137500.61104597355),
    ("normal_normal", "trial", 106, 206): (3757.884699191723, 44.28477286063636, 0.9492099819998595, -4.793292257257705, 91009682.61388864),
    ("quadratic_normal", "trial", 107, 207): (2.098164746443478, 0.11294488548941352, 0.8775508138127717, -0.002208285418810148, 36.863218903927006),
    ("two_param_linear", "trial", 108, 208): (0.0, 5.473531048142202e-15, 0.9121102856438127, 385.0135880156403, 2068808.4381285731),
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
