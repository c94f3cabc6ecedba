"""Command-line front end: batch runs, result files, and the self-test suite.

Subcommands: psa, evppi, evsi, nested, benchmark, selftest.  Configuration
comes from an optional strict-schema JSON file with flag overrides; every
output directory carries a manifest from which the run can be reproduced
byte-for-byte (wall-clock timings live in a separate sidecar so reruns
compare clean).

Exit codes: 0 success, 2 configuration error, 3 computation error,
4 oracle disagreement during selftest.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy

from . import __version__
from .casemodels import ConjugateToy, analytic_preposterior, get_design, get_model, list_models
from .model import compute_inb, evpi, run_psa, voi, write_psa_csv
from .momentmatch import EvsiOptions, conditional_inb, estimate_evsi
from .oracles import nested_mc_evsi
from .experiments import EXPERIMENTS, ROW_FIELDS
from .rng import SeedSpec
from .util import ComputationError, ConfigError, EvsiKitError

_ENV_OUT = "EVSIKIT_OUTPUT_DIR"


@dataclass
class RunConfig:
    command: str = ""
    model: str = ""
    model_params: dict = field(default_factory=dict)
    design: str | None = None
    design_n: int | None = None
    S: int = 10000
    Q: int = 30
    M: int = 10000
    burn_in: int = 1000
    master_seed: int = 0
    output_dir: str = ""
    # command-specific
    experiment: str | None = None
    replicates: int | None = None
    Q_values: list | None = None
    N_values: list | None = None
    studies: list | None = None
    n_outer: int = 10000
    n_inner: int = 2000
    inner_burn_in: int = 500
    budget_seconds: float | None = None

    def validate(self):
        counts = ("S", "Q", "M", "n_outer", "n_inner", "burn_in", "master_seed", "replicates",
                  "design_n")
        for name in counts:
            value = getattr(self, name)
            # config files can hold floats, NaN and booleans (bool subclasses int)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # the nested oracle refuses fewer than 100 outer or inner draws
        for name, least in (("S", 1), ("Q", 1), ("M", 1), ("n_outer", 100), ("n_inner", 100)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.replicates is not None and self.replicates < 1:
            raise ConfigError("replicates must be a positive count")
        if self.design_n is not None and self.design_n < 0:
            raise ConfigError("design_n must be >= 0")
        numbers = {"budget_seconds": self.budget_seconds, **(self.model_params or {})}
        for name, value in numbers.items():
            if value is not None and not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_ALLOWED_KEYS = {f.name for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return data


# ---------------------------------------------------------------------------
# output helpers


def _write_json(path: str, obj):
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ComputationError("output", f"{os.path.basename(path)}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _fmt(value):
    """Floats, numpy's included, as the shortest repr that reads back exactly."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _write_csv(path: str, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def _write_manifest(outdir: str, cfg: RunConfig, **extra):
    payload = {
        "command": cfg.command,
        "config": cfg.as_dict(),
        "versions": {
            "evsikit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    payload.update(extra)
    _write_json(os.path.join(outdir, "manifest.json"), payload)


def _outdir(cfg: RunConfig) -> str:
    out = cfg.output_dir or os.environ.get(_ENV_OUT) or "evsikit_out"
    os.makedirs(out, exist_ok=True)
    cfg.output_dir = out
    return out


def _model_and_design(cfg: RunConfig):
    model = get_model(cfg.model, **cfg.model_params)
    design = get_design(model, cfg.design, n=cfg.design_n)
    return model, design


# ---------------------------------------------------------------------------
# commands


def cmd_psa(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    model = get_model(cfg.model, **cfg.model_params)
    psa = run_psa(model, cfg.S, SeedSpec(cfg.master_seed))
    inb = compute_inb(model, psa)
    write_psa_csv(os.path.join(out, "psa.csv"), psa, inb)
    summary = {
        "model": model.name,
        "S": psa.n_draws,
        "columns": {
            name: {
                "mean": float(np.mean(psa.column(name))),
                "variance": float(np.var(psa.column(name), ddof=1)),
            }
            for name in psa.param_names
        },
        "inb_mean": float(np.mean(inb.inb_theta)),
        "inb_variance": float(np.var(inb.inb_theta, ddof=1)),
        "evpi": evpi(inb),
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    _write_manifest(out, cfg)
    return 0


def cmd_evppi(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    model, design = _model_and_design(cfg)
    psa = run_psa(model, cfg.S, SeedSpec(cfg.master_seed).derive(0))
    inb = compute_inb(model, psa)
    diagnostics = conditional_inb(model, psa, inb, design.informed_params)
    _write_json(
        os.path.join(out, "evppi.json"),
        {
            "model": model.name,
            "design": design.name,
            "informed_params": list(design.informed_params),
            "evpi": evpi(inb),
            "evppi": voi(inb.inb_phi).value,
            "fit": diagnostics,
        },
    )
    _write_manifest(out, cfg, fit=diagnostics)
    return 0


def cmd_evsi(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    model, design = _model_and_design(cfg)
    seed = SeedSpec(cfg.master_seed)
    psa = run_psa(model, cfg.S, seed.derive(0))
    inb = compute_inb(model, psa)
    result = estimate_evsi(
        model, design, psa,
        EvsiOptions(Q=cfg.Q, M=cfg.M, burn_in=cfg.burn_in, seed=seed.derive(1)),
        inb=inb,
    )
    payload = result.to_json_dict()
    payload["evpi"] = evpi(inb)
    _write_json(os.path.join(out, "result.json"), payload)

    ve = result.variance_estimate
    rows = []
    for q in range(len(ve.per_point)):
        row = {"q": q + 1}
        if ve.phi_points is not None:
            for j, name in enumerate(ve.phi_names):
                row[name] = float(ve.phi_points[q, j])
        row["dataset"] = ve.dataset_summaries[q]
        row["posterior_variance"] = float(ve.per_point[q])
        # chain diagnostics: no registered design runs chains, so they stay blank
        row["acceptance_rate"] = row["split_variance_ratio"] = ""
        rows.append(row)
    fieldnames = ["q", *ve.phi_names, "dataset", "posterior_variance", "acceptance_rate",
                  "split_variance_ratio"]
    _write_csv(os.path.join(out, "per_point.csv"), fieldnames, rows)
    _write_manifest(out, cfg, fit=result.fit_diagnostics)
    return 0


def cmd_nested(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    model, design = _model_and_design(cfg)
    result = nested_mc_evsi(
        model, design, cfg.n_outer, n_inner=cfg.n_inner,
        seed=SeedSpec(cfg.master_seed), inner_burn_in=cfg.inner_burn_in,
        budget_seconds=cfg.budget_seconds,
    )
    _write_json(
        os.path.join(out, "nested.json"),
        {
            "model": model.name,
            "design": design.name,
            "method": result.method,
            "evsi": result.evsi,
            "standard_error": result.standard_error,
            "n_outer": result.n_outer,
            "n_inner": result.n_inner,
        },
    )
    _write_json(os.path.join(out, "timings.json"), {"wall_time": result.wall_time})
    _write_manifest(out, cfg)
    return 0


def cmd_benchmark(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    name = cfg.experiment
    experiment = EXPERIMENTS[name]
    kwargs: dict = {"seed": SeedSpec(cfg.master_seed)}
    for key in experiment.fields:
        value = getattr(cfg, key)
        if value is not None and value != []:
            kwargs[key] = tuple(value) if isinstance(value, list) else value

    start = time.perf_counter()
    result = experiment.run(**kwargs)
    wall = time.perf_counter() - start

    _write_csv(os.path.join(out, f"{name}_long.csv"), ROW_FIELDS, result["rows"])
    _write_json(os.path.join(out, f"{name}_summary.json"), result["summary"])
    _write_json(os.path.join(out, "timings.json"), {"wall_time": wall})
    _write_manifest(out, cfg)
    return 0


# ---------------------------------------------------------------------------
# selftest


def _check(report, name, passed, detail):
    report.append({"check": name, "passed": bool(passed), "detail": detail})
    print(f"[selftest] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


def cmd_selftest(cfg: RunConfig) -> int:
    """Fast structural suite: orderings, moment identities, reproducibility."""
    out = _outdir(cfg)
    seed = SeedSpec(cfg.master_seed)
    report: list[dict] = []
    ok = True
    disagreement = False

    cases = [("beta_binomial", "trial"), ("exp_gamma", "trial"), ("normal_normal", "trial"),
             ("quadratic_normal", "trial"), ("two_param_linear", "trial"), ("ades", "study1")]
    S, Q, M = 20000, 10, 2000
    for i, (model_name, design_name) in enumerate(cases):
        model = get_model(model_name)
        design = get_design(model, design_name)
        case_seed = seed.derive(i)
        psa = run_psa(model, S, case_seed.derive(0))
        inb = compute_inb(model, psa)
        evpi_val = evpi(inb)
        result = estimate_evsi(
            model, design, psa,
            EvsiOptions(Q=Q, M=M, burn_in=1000, seed=case_seed.derive(1)),
            inb=inb,
        )
        # the EVPPI on the parameters g was fitted on; the EVPI when g is the INB
        evppi_val = voi(inb.inb_phi).value
        paired = np.maximum(inb.inb_phi, 0.0) - np.maximum(inb.inb_theta, 0.0)
        diff_se = float(np.std(paired, ddof=1)) / np.sqrt(paired.size)

        label = f"{model_name}/{design_name}"
        ok &= _check(report, f"{label} evsi nonneg", result.evsi >= 0.0,
                     f"evsi={result.evsi:.6g}")
        ok &= _check(
            report, f"{label} evsi<=evppi",
            result.evsi <= evppi_val + 3.0 * result.evsi_se + 1e-9 * (1 + evppi_val),
            f"evsi={result.evsi:.6g} evppi={evppi_val:.6g}",
        )
        ok &= _check(
            report, f"{label} evppi<=evpi",
            evppi_val <= evpi_val + 3.0 * diff_se + 1e-9 * (1 + evpi_val),
            f"evppi={evppi_val:.6g} evpi={evpi_val:.6g}",
        )
        ok &= _check(report, f"{label} a in [0,1]", 0.0 <= result.a <= 1.0,
                     f"a={result.a:.6g}")
        m_theta = float(np.mean(inb.inb_theta))
        mean_ok = abs(float(np.mean(result.rescaled)) - m_theta) <= 1e-6 * (1 + abs(m_theta))
        var_ok = abs(float(np.var(result.rescaled, ddof=1)) - result.variance_estimate.sigma2) \
            <= 1e-6 * (1 + result.variance_estimate.sigma2)
        ok &= _check(report, f"{label} mean preserved", mean_ok, f"mean={m_theta:.6g}")
        ok &= _check(report, f"{label} variance matched", var_ok,
                     f"sigma2={result.variance_estimate.sigma2:.6g}")

    # oracle cross-checks (exit 4 on disagreement)
    for toy in (ConjugateToy("beta_binomial_uniform", 10), ConjugateToy("normal_normal", 9)):
        model_name = toy.model_name
        model = get_model(model_name, **toy.params)
        design = get_design(model, "trial", n=toy.N)
        case_seed = seed.derive(100 + toy.N)
        psa = run_psa(model, 50000, case_seed.derive(0))
        result = estimate_evsi(model, design, psa,
                               EvsiOptions(Q=10, M=2000, seed=case_seed.derive(1)))
        oracle = analytic_preposterior(toy)
        tol = max(0.04 * oracle.evsi, 4.0 * result.evsi_se)
        agree = abs(result.evsi - oracle.evsi) <= tol
        if not _check(report, f"{model_name} oracle agreement", agree,
                      f"mm={result.evsi:.6g} oracle={oracle.evsi:.6g} tol={tol:.3g}"):
            disagreement = True
            ok = False

    # a rerun driven by the emitted manifest must be byte-identical
    dir_a = os.path.join(out, "rerun_a")
    dir_b = os.path.join(out, "rerun_b")
    first = RunConfig(command="evsi", model="normal_normal", design="trial",
                      S=5000, Q=5, M=1000, burn_in=0,
                      master_seed=cfg.master_seed, output_dir=dir_a)
    first.validate()
    cmd_evsi(first)
    rerun_code = main(
        ["evsi", "--from-manifest", os.path.join(dir_a, "manifest.json"), "--out", dir_b]
    )
    same = rerun_code == 0
    if same:
        for name in ("result.json", "per_point.csv"):
            with open(os.path.join(dir_a, name), "rb") as fa, \
                    open(os.path.join(dir_b, name), "rb") as fb:
                same &= fa.read() == fb.read()
    ok &= _check(report, "manifest rerun byte-identical", same,
                 "result.json, per_point.csv")

    _write_json(os.path.join(out, "selftest.json"),
                {"passed": bool(ok), "checks": report})
    _write_manifest(out, cfg)
    if disagreement:
        return 4
    return 0 if ok else 3


_COMMANDS = {
    "psa": cmd_psa,
    "evppi": cmd_evppi,
    "evsi": cmd_evsi,
    "nested": cmd_nested,
    "benchmark": cmd_benchmark,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_param(tokens) -> dict:
    params = {}
    for tok in tokens or []:
        if "=" not in tok:
            raise ConfigError(f"--param expects name=value, got {tok!r}")
        key, _, raw = tok.partition("=")
        try:
            params[key] = float(raw)
        except ValueError:
            raise ConfigError(f"parameter {key!r} needs a numeric value") from None
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evsikit",
        description="Expected value of sample information via moment matching",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_design=True):
        p.add_argument("--config", help="JSON config file (strict schema)")
        p.add_argument("--from-manifest", help="re-run the configuration in a manifest")
        p.add_argument("--model")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="model parameter override, repeatable")
        if with_design:
            p.add_argument("--design")
            p.add_argument("--N", type=int, dest="design_n",
                           help="future-study sample size override")
        p.add_argument("--S", type=int)
        p.add_argument("--Q", type=int)
        p.add_argument("--M", type=int,
                       help="posterior draws per quadrature point of a conjugate design; "
                            "not read by the two-arm trial (ades study3, study4)")
        p.add_argument("--burn-in", type=int, dest="burn_in",
                       help="burn-in of posterior chains; not read by the two-arm trial, "
                            "nor by any other registered design")
        p.add_argument("--seed", type=int, dest="master_seed")
        p.add_argument("--out", dest="output_dir")

    add_common(sub.add_parser("psa", help="generate PSA draws and summarise"),
               with_design=False)
    add_common(sub.add_parser("evppi", help="partial perfect information value"))
    add_common(sub.add_parser("evsi", help="moment-matching EVSI run"))

    nested = sub.add_parser("nested", help="nested Monte Carlo oracle")
    add_common(nested)
    nested.add_argument("--n-outer", type=int, dest="n_outer")
    nested.add_argument("--n-inner", type=int, dest="n_inner",
                        help="inner posterior draws per outer dataset, for a design that "
                             "samples them; every registered design computes its inner "
                             "means without draws and ignores it")
    nested.add_argument("--inner-burn-in", type=int, dest="inner_burn_in",
                        help="burn-in of those inner draws; ignored likewise")
    nested.add_argument("--budget-seconds", type=float, dest="budget_seconds")

    bench = sub.add_parser("benchmark", help="run a named experiment")
    bench.add_argument("experiment", nargs="?")
    add_common(bench)
    bench.add_argument("--replicates", type=int)
    bench.add_argument("--Q-values", type=_int_list, dest="Q_values")
    bench.add_argument("--N-values", type=_int_list, dest="N_values")
    bench.add_argument("--studies", type=lambda s: s.split(","), dest="studies")
    bench.add_argument("--n-outer", type=int, dest="n_outer")

    self_p = sub.add_parser("selftest", help="fast acceptance subset for CI")
    self_p.add_argument("--seed", type=int, dest="master_seed")
    self_p.add_argument("--out", dest="output_dir")

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "from_manifest", None):
        with open(args.from_manifest) as fh:
            manifest = json.load(fh)
        data.update(manifest["config"])
        data["command"] = manifest["command"]
    else:
        data["command"] = args.command
    if getattr(args, "config", None):
        data.update(load_config_file(args.config))

    for key in _ALLOWED_KEYS - {"command", "model_params"}:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if getattr(args, "param", None):
        merged = dict(data.get("model_params") or {})
        merged.update(_parse_param(args.param))
        data["model_params"] = merged

    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg


# benchmark settings that every experiment uses
_BENCHMARK_KEYS = {"command", "experiment", "master_seed", "output_dir"}


def _check_benchmark_flags(args: argparse.Namespace, cfg: RunConfig):
    """Refuse a benchmark flag the chosen experiment would ignore."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"benchmark requires an experiment name, got "
                          f"{cfg.experiment!r}; available: {sorted(EXPERIMENTS)}")
    taken = _BENCHMARK_KEYS | set(EXPERIMENTS[cfg.experiment].fields)
    given = {key for key in _ALLOWED_KEYS if getattr(args, key, None) is not None}
    if getattr(args, "param", None):
        given.add("model_params")
    unused = sorted(given - taken)
    if unused:
        raise ConfigError(f"experiment {cfg.experiment!r} does not use {unused}; it takes "
                          f"{list(EXPERIMENTS[cfg.experiment].fields)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if cfg.command == "benchmark":
            _check_benchmark_flags(args, cfg)
        if cfg.command in ("psa", "evppi", "evsi", "nested") and not cfg.model:
            raise ConfigError(f"{cfg.command} requires --model; registered: {list_models()}")
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvsiKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
