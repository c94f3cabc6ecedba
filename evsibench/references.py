"""Exact EVSI and EVPPI values for the benchmark's workloads.

Everything here is computed with numpy and scipy from the models' written-out
definitions; nothing is imported from evsikit, so a fault in the program
cannot leak into the values it is checked against.

The decision tree (Ades et al.) has incremental net benefit

    INB = (pc - pt) * (K * (1 - qe) + Ce) - Ct - pse * (lam * Qse + Cse),
    K = lam * L / 2,

which is linear in each of pc, pt, pse and qe with no pc-pt product, so under
any posterior in which qe and pse stay independent of (pc, pt) the
preposterior mean of the INB is the INB at the posterior means.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, special, stats

ADES = {
    "L": 30.0, "Qse": 1.0, "Ce": 200000.0, "Ct": 15000.0, "Cse": 100000.0,
    "lam": 75000.0, "pc_alpha": 15.0, "pc_beta": 85.0, "pse_alpha": 3.0,
    "pse_beta": 9.0, "log_or_mean": -1.5, "log_or_var": 1.0 / 3.0,
    "logit_qe_mean": 0.6, "logit_qe_var": 1.0 / 6.0,
}
STUDY1_N = 60
STUDY2_N, STUDY2_OBS_VAR = 100, 2.0
TRIAL_N = 200  # per arm, studies 3 and 4


def ades_inb(pc, pse, pt, qe, p=ADES):
    k = p["lam"] * p["L"] / 2.0
    side_effects = p["lam"] * p["Qse"] + p["Cse"]
    return (pc - pt) * (k * (1.0 - qe) + p["Ce"]) - p["Ct"] - pse * side_effects


def _gl(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    half = (hi - lo) / 2.0
    return lo + half * (x + 1.0), half * w


def expit_normal_mean(mean, var, n=80):
    """E[expit(Z)] for Z ~ Normal(mean, var), by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite.hermgauss(n)
    mean = np.asarray(mean, dtype=float)
    z = mean[..., None] + np.sqrt(2.0 * var) * x
    return np.sum(w * special.expit(z), axis=-1) / np.sqrt(np.pi)


def _trial_grid(n, p=ADES):
    """Gauss-Legendre nodes over (logit pc, log OR) with prior weights."""
    a, b = p["pc_alpha"], p["pc_beta"]
    u_lo, u_hi = special.logit(stats.beta.ppf([1e-14, 1.0 - 1e-14], a, b))
    u, wu = _gl(u_lo, u_hi, n)
    pc = special.expit(u)
    wu = wu * stats.beta.pdf(pc, a, b) * pc * (1.0 - pc)
    sd = np.sqrt(p["log_or_var"])
    v, wv = _gl(p["log_or_mean"] - 8.0 * sd, p["log_or_mean"] + 8.0 * sd, n)
    wv = wv * stats.norm.pdf(v, p["log_or_mean"], sd)
    pt = special.expit(u[:, None] + v[None, :])
    return pc, pt, wu[:, None] * wv[None, :]


def prior_means(n=120, p=ADES) -> dict:
    pc, pt, w = _trial_grid(n, p)
    return {
        "pc": p["pc_alpha"] / (p["pc_alpha"] + p["pc_beta"]),
        "pse": p["pse_alpha"] / (p["pse_alpha"] + p["pse_beta"]),
        "pt": float(np.sum(w * pt) / np.sum(w)),
        "qe": float(expit_normal_mean(p["logit_qe_mean"], p["logit_qe_var"])),
    }


def _positive_part_mean(mu, weights):
    return float(np.sum(weights * np.maximum(mu, 0.0)) / np.sum(weights))


def study1_evsi(p=ADES) -> float:
    """Beta-binomial enumeration over the side-effect count x = 0..60."""
    m = prior_means(p=p)
    a, b = p["pse_alpha"], p["pse_beta"]
    x = np.arange(STUDY1_N + 1)
    pmf = stats.betabinom.pmf(x, STUDY1_N, a, b)
    mu = ades_inb(m["pc"], (a + x) / (a + b + STUDY1_N), m["pt"], m["qe"], p)
    prior = float(ades_inb(m["pc"], m["pse"], m["pt"], m["qe"], p))
    return _positive_part_mean(mu, pmf) - max(0.0, prior)


def _study2_mu(ybar, m, p):
    prior_prec = 1.0 / p["logit_qe_var"]
    data_prec = STUDY2_N / STUDY2_OBS_VAR
    post_var = 1.0 / (prior_prec + data_prec)
    post_mean = (p["logit_qe_mean"] * prior_prec + ybar * data_prec) * post_var
    return ades_inb(m["pc"], m["pse"], m["pt"], expit_normal_mean(post_mean, post_var), p)


def _positive_integral_1d(mu_fn, mean, sd, n):
    """E[max(0, mu(Y))] for Y ~ Normal(mean, sd^2), split at the sign change."""
    lo, hi = mean - 12.0 * sd, mean + 12.0 * sd
    f_lo, f_hi = float(mu_fn(np.array([lo]))[0]), float(mu_fn(np.array([hi]))[0])
    if f_lo > 0 and f_hi > 0:
        pieces = [(lo, hi)]
    elif f_lo <= 0 and f_hi <= 0:
        return 0.0
    else:
        root = optimize.brentq(lambda y: float(mu_fn(np.array([y]))[0]), lo, hi, xtol=1e-14)
        pieces = [(lo, root)] if f_lo > 0 else [(root, hi)]
    total = 0.0
    for a, b in pieces:
        y, w = _gl(a, b, n)
        total += float(np.sum(w * stats.norm.pdf(y, mean, sd) * np.maximum(mu_fn(y), 0.0)))
    return total


def study2_evsi(p=ADES, n=400) -> float:
    """1-D normal integral over the mean response; the posterior is conjugate."""
    m = prior_means(p=p)
    sd = np.sqrt(p["logit_qe_var"] + STUDY2_OBS_VAR / STUDY2_N)
    value = _positive_integral_1d(lambda y: _study2_mu(y, m, p), p["logit_qe_mean"], sd, n)
    return value - max(0.0, float(ades_inb(m["pc"], m["pse"], m["pt"], m["qe"], p)))


def trial_evsi(n=120, p=ADES) -> float:
    """Grid quadrature over (logit pc, log OR) for all 201 x 201 trial outcomes.

    With Lc[dc, i] the control-arm likelihood and Lt[dt, i, j] the
    treatment-arm likelihood at node (i, j), every posterior sum factors as
    Lc @ (sum over j), so the cost is O(201 * n^2) rather than O(201^2 * n^2).
    """
    m = prior_means(n=n, p=p)
    pc, pt, w = _trial_grid(n, p)
    counts = np.arange(TRIAL_N + 1)
    lc = stats.binom.pmf(counts[:, None], TRIAL_N, pc[None, :])             # (201, n)
    lt = stats.binom.pmf(counts[:, None, None], TRIAL_N, pt[None, :, :])     # (201, n, n)
    a0 = np.einsum("kij,ij->ki", lt, w)            # sum_j w Lt
    a_pt = np.einsum("kij,ij->ki", lt, w * pt)     # sum_j w pt Lt
    z = lc @ a0.T                                  # P(dc, dt)
    e_pc = (lc * pc[None, :]) @ a0.T / z
    e_pt = lc @ a_pt.T / z
    mu = ades_inb(e_pc, m["pse"], e_pt, m["qe"], p)
    prior = float(ades_inb(m["pc"], m["pse"], m["pt"], m["qe"], p))
    return float(np.sum(z * np.maximum(mu, 0.0)) / np.sum(z)) - max(0.0, prior)


def _trial_evppi(m, n, p):
    """E[max(0, INB(pc, pt))] over the prior of (logit pc, log OR).

    INB = (pc - pt) * c1 - c0 is positive below one log-OR cut per pc, so
    each inner integral is taken up to that cut and the outer one from the
    pc at which the cut appears; neither integrand then has a kink.
    """
    c1 = p["lam"] * p["L"] / 2.0 * (1.0 - m["qe"]) + p["Ce"]
    c0 = float(-ades_inb(0.0, m["pse"], 0.0, m["qe"], p))
    a, b = p["pc_alpha"], p["pc_beta"]
    u_lo = special.logit(c0 / c1)
    u_hi = special.logit(stats.beta.isf(1e-14, a, b))
    u, wu = _gl(u_lo, u_hi, n)
    pc = special.expit(u)
    wu = wu * stats.beta.pdf(pc, a, b) * pc * (1.0 - pc)
    mean, sd = p["log_or_mean"], np.sqrt(p["log_or_var"])
    cut = special.logit(pc - c0 / c1) - u                      # INB > 0 iff log OR < cut
    x, wx = np.polynomial.legendre.leggauss(n)
    lo = mean - 10.0 * sd
    half = np.maximum(cut - lo, 0.0)[:, None] / 2.0
    v = lo + half * (x + 1.0)
    inner = np.sum(half * wx * stats.norm.pdf(v, mean, sd) * special.expit(u[:, None] + v), axis=1)
    per_u = c1 * ((pc - c0 / c1) * stats.norm.cdf(cut, mean, sd) - inner)
    return float(np.sum(wu * per_u))


def ades_evppi(study: str, n=120, p=ADES) -> float:
    """Exact EVPPI over the parameters a study informs.

    Studies 3 and 4 inform (pc, log OR) jointly, whatever their focal set.
    """
    m = prior_means(n=n, p=p)
    prior = max(0.0, float(ades_inb(m["pc"], m["pse"], m["pt"], m["qe"], p)))
    if study == "study1":
        a, b = p["pse_alpha"], p["pse_beta"]
        slope = p["lam"] * p["Qse"] + p["Cse"]
        c1 = float(ades_inb(m["pc"], 0.0, m["pt"], m["qe"], p))
        cut = min(max(c1 / slope, 0.0), 1.0)
        tail = c1 * stats.beta.cdf(cut, a, b) - slope * a / (a + b) * stats.beta.cdf(cut, a + 1, b)
        return float(tail) - prior
    if study == "study2":
        sd = np.sqrt(p["logit_qe_var"])
        value = _positive_integral_1d(
            lambda t: ades_inb(m["pc"], m["pse"], m["pt"], special.expit(t), p),
            p["logit_qe_mean"], sd, 400,
        )
        return value - prior
    if study in ("study3", "study4"):
        return _trial_evppi(m, n, p) - prior
    raise ValueError(f"unknown study {study!r}")


# -- conjugate toys ----------------------------------------------------------

TOY_DEFAULTS = {
    "normal_normal": {"theta0": 0.0, "prior_var": 1.0, "obs_var": 1.0, "k": 10000.0, "c": 0.0},
    "beta_binomial": {"k": 20000.0, "c": 10000.0},
    "exp_gamma": {"alpha": 5.0, "beta": 1.0, "k": 200.0, "c0": 900.0, "c1": 100.0},
    "quadratic_normal": {"prior_var": 5.0, "obs_var": 10.0},
}


def _normal_loss(m, s):
    """E[max(0, X)] - max(0, m) for X ~ Normal(m, s^2)."""
    if s == 0.0:
        return 0.0
    return float(s * stats.norm.pdf(m / s) + m * stats.norm.cdf(m / s)) - max(0.0, m)


def toy_evsi(model: str, N: int) -> float:
    """Exact EVSI of the default toy models with a future sample of size N."""
    p = TOY_DEFAULTS[model]
    if model == "normal_normal":
        m = p["k"] * p["theta0"] - p["c"]
        s = p["k"] * p["prior_var"] / np.sqrt(p["obs_var"] / N + p["prior_var"])
        return _normal_loss(m, s)
    if model == "beta_binomial":
        # flat prior: the N + 1 counts are equally likely
        x = np.arange(N + 1)
        mu = p["k"] * (1.0 + x) / (2.0 + N) - p["c"]
        return float(np.mean(np.maximum(mu, 0.0))) - max(0.0, p["k"] / 2.0 - p["c"])
    if model == "exp_gamma":
        # posterior mean rate = g * B with B = beta / (beta + sum x) ~ Beta(alpha, N)
        a, b, cost = p["alpha"], p["beta"], p["c0"] + p["c1"]
        g = p["k"] * (a + N) / b
        cut = cost / g
        value = g * a / (a + N) * stats.beta.sf(cut, a + 1, N) - cost * stats.beta.sf(cut, a, N)
        return float(value) - max(0.0, p["k"] * a / b - cost)
    if model == "quadratic_normal":
        # the posterior mean is Normal(0, tau2), INB mean tau2 * (Z^2 - 1)
        post_var = 1.0 / (1.0 / p["prior_var"] + N / p["obs_var"])
        tau2 = p["prior_var"] - post_var
        return float(2.0 * stats.norm.pdf(1.0) * tau2)
    raise ValueError(f"unknown toy model {model!r}")


def toy_evpi(model: str) -> float:
    """Exact EVPI, which is also the EVPPI: each toy has one parameter."""
    p = TOY_DEFAULTS[model]
    if model == "normal_normal":
        return _normal_loss(p["k"] * p["theta0"] - p["c"], p["k"] * np.sqrt(p["prior_var"]))
    if model == "beta_binomial":
        k, c = p["k"], p["c"]
        cut = min(max(c / k, 0.0), 1.0)
        return k * (1.0 - cut**2) / 2.0 - c * (1.0 - cut) - max(0.0, k / 2.0 - c)
    if model == "exp_gamma":
        a, b, cost = p["alpha"], p["beta"], p["c0"] + p["c1"]
        cut = cost / p["k"]
        value = p["k"] * a / b * stats.gamma.sf(cut, a + 1, scale=1.0 / b) \
            - cost * stats.gamma.sf(cut, a, scale=1.0 / b)
        return float(value) - max(0.0, p["k"] * a / b - cost)
    if model == "quadratic_normal":
        # INB = v * (Z^2 - 1): E[max(0, .)] = v * (P(chi2_3 > 1) - P(chi2_1 > 1))
        v = p["prior_var"]
        return float(v * (stats.chi2.sf(1.0, 3) - stats.chi2.sf(1.0, 1)))
    raise ValueError(f"unknown toy model {model!r}")


def ades_references(n=120, studies=("study1", "study2", "study3", "study4")) -> dict:
    """EVSI and EVPPI per ADES study, for the studies asked for."""
    evsi = {}
    for study in studies:
        if study == "study1":
            evsi[study] = study1_evsi()
        elif study == "study2":
            evsi[study] = study2_evsi()
        else:
            evsi[study] = evsi.get("study3") or evsi.get("study4") or trial_evsi(n)
    evppi = {s: ades_evppi(s, n) for s in evsi}
    return {"evsi": evsi, "evppi": evppi}
