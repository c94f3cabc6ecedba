"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Seeds are fixed constants chosen before any results were inspected; every
tolerance is written out explicitly next to the check it guards.
"""

import time
import warnings

import numpy as np

from evsikit.casemodels import (
    ConjugateToy,
    analytic_preposterior,
    get_design,
    get_model,
    quadratic_exact_evsi,
)
from evsikit.cli import main as cli_main
from evsikit.experiments import ades_crosscheck, bias_sweep, replicate_table1, variance_convergence
from evsikit.model import run_psa
from evsikit.momentmatch import EvsiOptions, estimate_evsi
from evsikit.oracles import nested_mc_evsi
from evsikit.rng import SeedSpec

warnings.filterwarnings("ignore", message=".*future sample size.*")


def _report(criterion: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{criterion}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert passed, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded budget {budget}s"


def test_criterion_1_normal_normal_exactness():
    """Moment matching is exact under the normal-normal conjugate pair."""
    start = time.perf_counter()
    failures = []
    for i0, theta0 in enumerate((-0.5, 0.0, 0.5)):
        for i1, n in enumerate((4, 9, 25)):
            for i2, mean_inb in enumerate((-2000.0, 0.0, 2000.0)):
                k = 10000.0
                c = k * theta0 - mean_inb
                model = get_model("normal_normal", theta0=theta0, prior_var=1.0,
                                  obs_var=1.0, k=k, c=c)
                design = get_design(model, "trial", n=n)
                seed = SeedSpec(1).derive(i0 * 100 + i1 * 10 + i2)
                psa = run_psa(model, 100000, seed.derive(0))
                result = estimate_evsi(model, design, psa,
                                       EvsiOptions(Q=10, seed=seed.derive(1)))
                oracle = analytic_preposterior(
                    ConjugateToy("normal_normal", n,
                                 params={"theta0": theta0, "k": k, "c": c})
                ).evsi
                tol = max(0.01 * oracle, 3.0 * result.evsi_se)
                if abs(result.evsi - oracle) > tol:
                    failures.append(
                        f"theta0={theta0} N={n} m={mean_inb}: "
                        f"{result.evsi:.1f} vs {oracle:.1f} (tol {tol:.1f})"
                    )
    elapsed = time.perf_counter() - start
    _report("criterion 1 normal-normal exactness", not failures,
            failures or "27/27 grid cells within max(1%, 3 SE)", elapsed, 30.0)


def test_criterion_2_beta_binomial_bias():
    """Downward bias at N=1; negligible bias at N=10."""
    start = time.perf_counter()
    toy = ConjugateToy("beta_binomial_uniform", 1)
    sweep = bias_sweep(toy, N_values=(1, 10), replicates=200, seed=SeedSpec(2), S=10000)
    by_n = {row["N"]: row for row in sweep["summary"]}

    enum1 = analytic_preposterior(ConjugateToy("beta_binomial_uniform", 1)).evsi
    se1 = by_n[1]["sd_estimate"] / np.sqrt(200)
    shortfall = (enum1 - by_n[1]["mean_estimate"]) / se1
    biased_down = shortfall > 2.0

    enum10 = analytic_preposterior(ConjugateToy("beta_binomial_uniform", 10)).evsi
    rel10 = abs(by_n[10]["mean_estimate"] - enum10) / enum10
    small_bias = rel10 <= 0.02

    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 beta-binomial bias", biased_down and small_bias,
        f"N=1 shortfall {shortfall:.1f} SE (mean {by_n[1]['mean_estimate']:.1f} "
        f"vs {enum1:.1f}); N=10 relative bias {rel10:.4f}",
        elapsed, 120.0,
    )


def test_criterion_3_exp_gamma_bias_bound():
    """Replicate bias stays within 5% of a high-precision nested oracle.

    The prior mean INB is exactly zero here, so small replicate samples add a
    max(0, mean)-kink artifact of order sd/sqrt(S) on top of the method bias;
    S = 1e5 keeps that artifact below half a percent.
    """
    start = time.perf_counter()
    toy = ConjugateToy("exp_gamma", 5)
    sweep = bias_sweep(toy, N_values=(5, 10, 20, 50), replicates=200,
                       seed=SeedSpec(3), S=100000)
    failures = []
    details = []
    for row in sweep["summary"]:
        model = get_model("exp_gamma")
        design = get_design(model, "trial", n=row["N"])
        oracle = nested_mc_evsi(model, design, 10**6, seed=SeedSpec(30 + row["N"]))
        rel = abs(row["mean_estimate"] - oracle.evsi) / oracle.evsi
        details.append(f"N={row['N']}: {100 * rel:.2f}%")
        if rel > 0.05:
            failures.append(f"N={row['N']} bias {100 * rel:.2f}% > 5%")
    elapsed = time.perf_counter() - start
    _report("criterion 3 exp-gamma bias bound", not failures,
            failures or "; ".join(details), elapsed, 300.0)


def test_criterion_4_table1_replication():
    """Quadrature-count bias pattern on the quadratic-INB model.

    Bias is read against the model's exact EVSI, not a nested estimate.
    """
    start = time.perf_counter()
    table = replicate_table1(Q_values=(1, 10, 30, 100), replicates=50,
                             seed=SeedSpec(1), S=10000)
    exact = quadratic_exact_evsi(get_model("quadratic_normal"), 10)
    by_q = {row["Q"]: row for row in table["summary"]}
    bias = {q: by_q[q]["bias"] for q in (1, 10, 30, 100)}

    checks = [("bias read against the exact EVSI",
               all(row["oracle"] == exact for row in table["summary"]))]
    checks.append(("Q=1 bias in [8%, 22%]", 0.08 <= bias[1] <= 0.22))
    checks.append(("Q=30 bias <= 2.5%", bias[30] <= 0.025))

    # monotone nonincreasing |bias| with paired-replicate noise allowance
    ests = {
        q: np.array([r["estimate"] for r in table["rows"] if r["parameter"] == q])
        for q in (1, 10, 30, 100)
    }
    monotone = True
    for qa, qb in ((1, 10), (10, 30), (30, 100)):
        slack = 2.0 * np.std(ests[qb] - ests[qa], ddof=1) / np.sqrt(50) / exact
        if abs(bias[qb]) > abs(bias[qa]) + slack:
            monotone = False
    checks.append(("monotone |bias| across Q", monotone))

    failures = [name for name, ok in checks if not ok]
    elapsed = time.perf_counter() - start
    detail = (
        f"exact={exact:.5f}; bias " +
        " ".join(f"Q{q}={100 * bias[q]:.2f}%" for q in (1, 10, 30, 100))
    )
    _report("criterion 4 table1 replication", not failures,
            f"{detail}" + (f"; failed: {failures}" if failures else ""),
            elapsed, 600.0)


def test_criterion_5_variance_convergence():
    """Mean preposterior-variance estimate at Q=50 brackets the reference."""
    start = time.perf_counter()
    result = variance_convergence(Q_values=(50,), replicates=100,
                                  seed=SeedSpec(5), S=10000)
    row = result["summary"][0]
    reference = 35.20
    within = abs(row["mean_sigma2"] - reference) <= row["sd_sigma2"]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 variance convergence", within,
        f"mean sigma2 {row['mean_sigma2']:.2f} vs {reference} "
        f"(replicate SD {row['sd_sigma2']:.2f})",
        elapsed, 300.0,
    )


def test_criterion_6_ades_crosscheck():
    """Three estimators agree on every study of the decision-tree model."""
    start = time.perf_counter()
    result = ades_crosscheck(S=100000, Q=30, n_outer=5000, seed=SeedSpec(6))
    failures = []
    details = []
    for row in result["summary"]:
        mm, mm_se = row["moment_matching"], row["moment_matching_se"]
        for other in ("regression_on_summaries", "nested_mc"):
            est, se = row[other], row[f"{other}_se"]
            gap = abs(mm - est)
            tol = 3.0 * float(np.hypot(mm_se, se))
            if gap > tol:
                failures.append(f"{row['study']} mm vs {other}: "
                                f"|{mm:.0f}-{est:.0f}|={gap:.0f} > {tol:.0f}")
        details.append(f"{row['study']}: mm={mm:.0f} "
                       f"ros={row['regression_on_summaries']:.0f} "
                       f"nested={row['nested_mc']:.0f}")
    elapsed = time.perf_counter() - start
    _report("criterion 6 ades cross-check", not failures,
            failures or "; ".join(details), elapsed, 1800.0)


def test_criterion_7_structural_selftest(tmp_path):
    """The selftest subcommand covers orderings, identities, reruns."""
    start = time.perf_counter()
    code = cli_main(["selftest", "--seed", "0", "--out", str(tmp_path / "selftest")])
    elapsed = time.perf_counter() - start
    _report("criterion 7 structural selftest", code == 0,
            f"exit code {code}", elapsed, 120.0)
