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
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .casemodels import ConjugateToy, analytic_preposterior, get_design, get_model, list_models
from .model import compute_inb, evpi, run_psa, voi, write_psa_csv
from .momentmatch import EvsiOptions, conditional_inb, estimate_evsi
from .oracles import nested_mc_evsi
from .experiments import EXPERIMENTS, ROW_FIELDS
from .rng import SeedSpec
from .util import ComputationError, ConfigError, EvsiKitError, require_number

_ENV_OUT = "EVSIKIT_OUTPUT_DIR"


# The settings each command reads besides master_seed and output_dir, which
# every command reads; a benchmark reads its experiment's `fields`.  The
# parser offers a command only these flags, a run refuses any other setting
# it is given, and a manifest records these.
_READS = {
    "psa": ("model", "model_params", "S"),
    "evppi": ("model", "model_params", "design", "design_n", "S"),
    "evsi": ("model", "model_params", "design", "design_n", "S", "Q"),
    "nested": ("model", "model_params", "design", "design_n", "n_outer", "budget_seconds"),
    "selftest": (),
}


@dataclass
class RunConfig:
    command: str = ""
    model: str = ""
    model_params: dict = field(default_factory=dict)
    design: str | None = None
    design_n: int | None = None
    S: int = 10000
    Q: int = 30
    master_seed: int = 0
    output_dir: str = ""
    # command-specific
    experiment: str | None = None
    replicates: int | None = None
    Q_values: list | None = None
    N_values: list | None = None
    studies: list | None = None
    n_outer: int = 10000
    budget_seconds: float | None = None

    def reads(self) -> tuple[str, ...]:
        """The settings the command reads besides master_seed and output_dir."""
        if self.command != "benchmark":
            return _READS[self.command]
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"benchmark requires an experiment name, got "
                              f"{self.experiment!r}; available: {sorted(EXPERIMENTS)}")
        return ("experiment", *EXPERIMENTS[self.experiment].fields)

    def validate(self):
        # names are looked up in the registries, which hash them
        for name in ("model", "design", "experiment"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        # the floors the library enforces: run_psa takes S >= 2, the nested
        # oracle n_outer >= 100, a seed fits 64 bits
        floors = {"S": 2, "Q": 1, "n_outer": 100, "master_seed": 0,
                  "replicates": 1, "design_n": 0}
        for name, least in floors.items():
            value = getattr(self, name)
            if value is None and name in ("replicates", "design_n"):
                continue
            # config files can hold null, floats, NaN and booleans (bool subclasses int)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if self.master_seed >= 2**64:
            raise ConfigError(f"master_seed must be below 2**64, got {self.master_seed}")
        # the quadrature plan takes Q of the S PSA rows
        if "Q" in self.reads() and self.Q > self.S:
            raise ConfigError(f"Q must be at most S={self.S}, got {self.Q}")
        # list settings: (entry type, its plural, the bounds of an integer
        # entry); a sample size may be 0, as design_n may
        lists = {"Q_values": (int, "integers", 1, self.S),
                 "N_values": (int, "integers", 0, None),
                 "studies": (str, "strings", None, None)}
        for name, (kind, plural, low, high) in lists.items():
            values = getattr(self, name)
            if values is None:
                continue
            if not isinstance(values, list) or any(
                    isinstance(v, bool) or not isinstance(v, kind) for v in values):
                raise ConfigError(f"{name} must be a list of {plural}, got {values!r}")
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if kind is int:
                bad = [v for v in values if v < low or (high is not None and v > high)]
                if bad:
                    bounds = f"at least {low}" if high is None else f"between {low} and S={high}"
                    raise ConfigError(f"{name} entries must be {bounds}, got {bad}")
        # budget_seconds may be null (no budget); a model parameter may not
        for name, value in (self.model_params or {}).items():
            require_number(name, value)
        if self.budget_seconds is not None:
            require_number("budget_seconds", self.budget_seconds)

    def as_dict(self) -> dict:
        """The settings a manifest records: those the command reads."""
        keys = {"command", "master_seed", "output_dir", *self.reads()}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name in keys}


_ALLOWED_KEYS = {f.name for f in fields(RunConfig)}


def load_config_file(path: str, manifest: bool = False) -> dict:
    """The settings in a JSON config file or, with `manifest`, a manifest's
    `config` and its `command`.  A file that cannot be read or does not
    hold settings is a configuration error that names it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    what = "manifest" if manifest else "config file"
    if manifest:
        if not (isinstance(data, dict) and isinstance(data.get("config"), dict)
                and "command" in data):
            raise ConfigError(f"manifest {path} must hold a command and a config object")
        data = {**data["config"], "command": data["command"]}
    elif not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    params = data.get("model_params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"model_params in {what} {path} must be an object of "
                          f"name: number, got {params!r}")
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
    from importlib import metadata  # read here: importing it costs the CLI ~15 ms

    payload = {
        "command": cfg.command,
        "config": cfg.as_dict(),
        "versions": {
            "evsikit": __version__,
            "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
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
    g, fit = conditional_inb(model, psa, inb, design.recipe.informed_params)
    diagnostics = None if fit is None else fit.diagnostics()
    _write_json(
        os.path.join(out, "evppi.json"),
        {
            "model": model.name,
            "design": design.name,
            "informed_params": list(design.recipe.informed_params),
            "evpi": evpi(inb),
            "evppi": voi(g).value,
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
    result = estimate_evsi(model, design, psa, EvsiOptions(Q=cfg.Q, seed=seed.derive(1)), inb=inb)
    payload = result.to_json_dict()
    payload["evpi"] = evpi(inb)
    _write_json(os.path.join(out, "result.json"), payload)

    ve = result.variance_estimate
    rows = [{"q": q + 1, **dict(zip(ve.phi_names, map(float, ve.phi_points[q]))),
             "dataset": ve.dataset_summaries[q], "posterior_variance": float(ve.per_point[q])}
            for q in range(len(ve.per_point))]
    fieldnames = ["q", *ve.phi_names, "dataset", "posterior_variance"]
    _write_csv(os.path.join(out, "per_point.csv"), fieldnames, rows)
    _write_manifest(out, cfg, fit=result.fit_diagnostics)
    return 0


def cmd_nested(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    model, design = _model_and_design(cfg)
    result = nested_mc_evsi(model, design, cfg.n_outer, seed=SeedSpec(cfg.master_seed),
                            budget_seconds=cfg.budget_seconds)
    _write_json(
        os.path.join(out, "nested.json"),
        {
            "model": model.name,
            "design": design.name,
            "method": result.method,
            "evsi": result.evsi,
            "standard_error": result.standard_error,
            "n_outer": result.n_outer,
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
        if value is not None:
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
    S, Q = 20000, 10
    for i, (model_name, design_name) in enumerate(cases):
        model = get_model(model_name)
        design = get_design(model, design_name)
        case_seed = seed.derive(i)
        psa = run_psa(model, S, case_seed.derive(0))
        inb = compute_inb(model, psa)
        evpi_val = evpi(inb)
        result = estimate_evsi(model, design, psa, EvsiOptions(Q=Q, seed=case_seed.derive(1)),
                               inb=inb)
        # the EVPPI on the parameters g was fitted on; the EVPI when g is the INB
        g = result.conditional_mean
        evppi_val = voi(g).value
        paired = np.maximum(g, 0.0) - np.maximum(inb.inb_theta, 0.0)
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
                               EvsiOptions(Q=10, seed=case_seed.derive(1)))
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
                      S=5000, Q=5, master_seed=cfg.master_seed, output_dir=dir_a)
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


# each command's function and help text
_COMMANDS = {
    "psa": (cmd_psa, "generate PSA draws and summarise"),
    "evppi": (cmd_evppi, "partial perfect information value"),
    "evsi": (cmd_evsi, "moment-matching EVSI run"),
    "nested": (cmd_nested, "nested Monte Carlo oracle"),
    "benchmark": (cmd_benchmark, "run a named experiment"),
    "selftest": (cmd_selftest, "fast acceptance subset for CI"),
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


# each setting's flag and its argparse options
_FLAGS = {
    "model": ("--model", {}),
    "model_params": ("--param", {"action": "append", "metavar": "NAME=VALUE",
                                 "help": "model parameter override, repeatable"}),
    "design": ("--design", {}),
    "design_n": ("--N", {"type": int, "help": "future-study sample size override"}),
    "S": ("--S", {"type": int}),
    "Q": ("--Q", {"type": int}),
    "n_outer": ("--n-outer", {"type": int}),
    "budget_seconds": ("--budget-seconds", {"type": float}),
    "replicates": ("--replicates", {"type": int}),
    "Q_values": ("--Q-values", {"type": _int_list}),
    "N_values": ("--N-values", {"type": _int_list}),
    "studies": ("--studies", {"type": lambda s: s.split(",")}),
    "master_seed": ("--seed", {"type": int}),
    "output_dir": ("--out", {}),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag for each setting it can read."""
    parser = argparse.ArgumentParser(
        prog="evsikit",
        description="Expected value of sample information via moment matching",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        # no abbreviations: "--N" would stand for the benchmark's "--N-values"
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        if command == "benchmark":
            p.add_argument("experiment", nargs="?")
            # every experiment's fields; the run refuses those its experiment leaves
            settings = dict.fromkeys(k for e in EXPERIMENTS.values() for k in e.fields)
        else:
            settings = _READS[command]
        if command != "selftest":
            p.add_argument("--config", help="JSON config file (strict schema)")
            p.add_argument("--from-manifest", help="re-run the configuration in a manifest")
        for key in (*settings, "master_seed", "output_dir"):
            flag, options = _FLAGS[key]
            p.add_argument(flag, dest=key, **options)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "from_manifest", None):
        data.update(load_config_file(args.from_manifest, manifest=True))
    if getattr(args, "config", None):
        data.update(load_config_file(args.config))
    # a manifest or config file of another command would run that command
    if data.setdefault("command", args.command) != args.command:
        raise ConfigError(f"the configuration is for {data['command']!r}, not {args.command!r}")

    for key in _ALLOWED_KEYS - {"command", "model_params"}:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if getattr(args, "model_params", None):
        merged = dict(data.get("model_params") or {})
        merged.update(_parse_param(args.model_params))
        data["model_params"] = merged

    cfg = RunConfig(**data)
    cfg.validate()
    # a setting given by flag, config file or manifest that the command leaves unread
    unread = sorted(set(data) - set(cfg.as_dict()))
    if unread:
        who = cfg.experiment if cfg.command == "benchmark" else cfg.command
        reads = sorted({"master_seed", "output_dir", *cfg.reads()})
        raise ConfigError(f"{who} does not read {unread}; it reads {reads}")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if "model" in cfg.reads() and not cfg.model:
            raise ConfigError(f"{cfg.command} requires --model; registered: {list_models()}")
        return _COMMANDS[cfg.command][0](cfg)
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
