"""`import evsikit` loads nothing from scipy, and neither does any path that
a PSA, an INB, a spline fit, an estimate, an EVPPI or an oracle runs.

scipy.special and scipy.linalg cost more to import than numpy and the whole
package together, and scipy.stats and scipy.interpolate more again.  The
package computes its logistic functions, log Beta function and GCV transform
with numpy; only the closed-form references of `analytic_preposterior`
import scipy.special, when they are called.  Each check runs in a fresh
interpreter, since this test session has imported scipy already.
"""

import os
import subprocess
import sys

import evsikit

# every registered (model, design) pair at small sizes, then the closed forms
_RUN_EVERY_PATH = """
import sys, warnings
import evsikit as ek
from evsikit.momentmatch import conditional_inb

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

warnings.simplefilter("ignore")  # the small sizes warn; the runs are what matters
pairs = 0
for name in ek.list_models():
    model = ek.get_model(name)
    psa = ek.run_psa(model, 5000, ek.SeedSpec(0))
    inb = ek.compute_inb(model, psa)
    for design_name in ek.list_designs(name):
        design = ek.get_design(model, design_name)
        conditional_inb(model, psa, inb, design.recipe.informed_params)
        ek.estimate_evsi(model, design, psa, ek.EvsiOptions(Q=5, seed=ek.SeedSpec(1)), inb)
        ek.nested_mc_evsi(model, design, 200, seed=ek.SeedSpec(2))
        ek.regression_on_summaries_evsi(model, design, psa, seed=ek.SeedSpec(3), n_bootstrap=2)
        pairs += 1
print(pairs)
print(*scipy_modules())
for variant in ("beta_binomial_uniform", "exp_gamma", "normal_normal", "quadratic_normal"):
    ek.analytic_preposterior(ek.ConjugateToy(variant, 10))
print(*scipy_modules())
"""


def _run_fresh(code: str) -> list[str]:
    """The output lines of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evsikit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=300).stdout.splitlines()


def test_import_loads_no_scipy_module():
    out = _run_fresh("import sys, evsikit, evsikit.cli; print(*sorted(sys.modules))")[0].split()
    assert "evsikit.cli" in out
    assert [m for m in out if m.split(".")[0] == "scipy"] == []


def test_every_registered_pair_runs_without_scipy():
    pairs, during, after = _run_fresh(_RUN_EVERY_PATH)
    assert int(pairs) == sum(len(evsikit.list_designs(m)) for m in evsikit.list_models())
    assert during.split() == []
    # the closed forms do load scipy.special, so the check above can see it
    assert "scipy.special" in after.split()
