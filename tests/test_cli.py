"""Command-line interface: file outputs, determinism, exit codes."""

import argparse
import dataclasses
import inspect
import json

import numpy as np
import pytest

import evsikit.cli as cli
from evsikit.cli import RunConfig, _write_csv, _write_json, build_parser, main
from evsikit.experiments import EXPERIMENTS
from evsikit.casemodels import ConjugateToy, PreposteriorSummary, analytic_preposterior
from evsikit.posterior import NormalNormalUpdate, TwoArmTrialUpdate
from evsikit.util import ComputationError


def _read(path):
    return path.read_bytes()


class TestPsaCommand:
    def test_ades_csv_schema(self, tmp_path):
        out = tmp_path / "run"
        code = main(["psa", "--model", "ades", "--S", "1000", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "psa.csv").read_text().splitlines()
        assert lines[0] == "Pc,Pse,log_or,logit_qe,NB1,NB2,INB"
        assert len(lines) == 1001
        summary = json.loads((out / "summary.json").read_text())
        assert summary["evpi"] >= 0.0

    def test_same_seed_identical_files(self, tmp_path):
        args = ["psa", "--model", "beta_binomial", "--S", "10", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _read(a / "psa.csv") == _read(b / "psa.csv")
        assert _read(a / "summary.json") == _read(b / "summary.json")

    def test_unknown_model_lists_registry(self, tmp_path, capsys):
        code = main(["psa", "--model", "nosuch", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ades" in err and "beta_binomial" in err


class TestEvsiCommand:
    def test_ades_study1_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evsi", "--model", "ades", "--design", "study1",
                     "--S", "20000", "--Q", "10", "--seed", "1", "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["evsi"] >= 0.0
        assert 0.0 <= result["a"] <= 1.0
        per_point = (out / "per_point.csv").read_text().splitlines()
        assert per_point[0] == "q,Pse,dataset,posterior_variance"
        assert len(per_point) == 11
        assert all(len(line.split(",")) == 4 for line in per_point[1:])
        # a conjugate design takes a Gauss-Hermite rule too
        assert result["posterior_method"] == {"method": "gauss_hermite", "k": 24}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evsi"

    def test_two_arm_trial_records_its_rule(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evsi", "--model", "ades", "--design", "study3", "--S", "20000",
                     "--Q", "10", "--seed", "1", "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["posterior_method"] == {"method": "gauss_hermite", "k": 24}
        per_point = (out / "per_point.csv").read_text().splitlines()
        assert per_point[0] == "q,Pc,Pt,dataset,posterior_variance"
        assert len(per_point) == 11
        assert all(len(line.split(",")) == 5 for line in per_point[1:])

    def test_normal_normal_matches_closed_form(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evsi", "--model", "normal_normal", "--N", "9",
                     "--param", "k=10000", "--S", "50000", "--Q", "10",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        oracle = analytic_preposterior(ConjugateToy("normal_normal", 9)).evsi
        tol = max(0.01 * oracle, 3 * result["evsi_se"])
        assert abs(result["evsi"] - oracle) <= tol

    def test_zero_q_is_config_error(self, tmp_path):
        code = main(["evsi", "--model", "ades", "--design", "study1",
                     "--Q", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_empty_study_of_a_mean_summary_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["evsi", "--model", "normal_normal", "--N", "0", "--S", "2000",
                     "--Q", "5", "--out", str(out)])
        assert code == 2
        assert "sample size of at least 1, got 0" in capsys.readouterr().err
        assert not (out / "per_point.csv").exists()

    def test_nan_posterior_draw_is_computation_error(self, tmp_path, capsys, monkeypatch):
        # a non-finite node of the first point's rule
        original = NormalNormalUpdate.nodes_and_weights

        def nodes_and_weights(self, dataset, stage):
            nodes, weights = original(self, dataset, stage)
            nodes[self.param][0, 0] = np.nan
            return nodes, weights

        monkeypatch.setattr(NormalNormalUpdate, "nodes_and_weights", nodes_and_weights)
        code = main(["evsi", "--model", "normal_normal", "--S", "2000", "--Q", "5",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "[posterior] 1 non-finite value(s) of effect at quadrature point 1/5" \
            in capsys.readouterr().err

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        for name, args in [
            ("normal_normal", ["--model", "normal_normal", "--S", "5000", "--Q", "5"]),
            # the two-arm trial's quadrature path
            ("ades_study4", ["--model", "ades", "--design", "study4", "--S", "20000",
                             "--Q", "5"]),
        ]:
            a, b = tmp_path / name / "a", tmp_path / name / "b"
            assert main(["evsi", *args, "--seed", "3", "--out", str(a)]) == 0
            assert main(["evsi", "--from-manifest", str(a / "manifest.json"),
                         "--out", str(b)]) == 0
            assert _read(a / "result.json") == _read(b / "result.json")
            assert _read(a / "per_point.csv") == _read(b / "per_point.csv")

    @pytest.mark.parametrize("seed", [6, 28, 33])
    def test_study2_seeds_once_refused_complete(self, tmp_path, seed):
        # with sigma2 from the INB, these seeds gave sigma2 beyond the
        # conditional-INB variance and exited 3 with a [constants] error
        out = tmp_path / "run"
        code = main(["evsi", "--model", "ades", "--design", "study2", "--S", "100000",
                     "--Q", "30", "--seed", str(seed), "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["sigma2_from"] == "fitted_mean"
        assert 0.0 < result["a"] <= 1.0
        assert result["sigma2"] <= result["prior_variance"]


def test_csv_writes_numpy_floats_as_plain_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    _write_csv(str(path), ["se", "n"], [{"se": np.float64(626.0635494303004), "n": 3}])
    header, row = path.read_text().splitlines()
    se, n = row.split(",")
    assert float(se) == 626.0635494303004 and n == "3"


class TestEvppiCommand:
    def test_two_param_fit_diagnostics(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evppi", "--model", "two_param_linear", "--S", "5000",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "evppi.json").read_text())
        assert payload["evppi"] <= payload["evpi"] + 1e-9
        assert payload["fit"]["r_squared"] >= 0.0

    def test_study3_evppi_bounds_its_exact_evsi(self, tmp_path):
        # the trial informs (Pc, Pt); an EVPPI on log_or alone read 3991.2
        # here, below the exact EVSI of 4114.96
        out = tmp_path / "run"
        assert main(["evppi", "--model", "ades", "--design", "study3", "--S", "20000",
                     "--seed", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "evppi.json").read_text())
        assert payload["informed_params"] == ["Pc", "Pt"]
        assert payload["evppi"] > 4114.96

    def test_gcv_diagnostics_reach_evppi_and_result_files(self, tmp_path):
        assert main(["evppi", "--model", "two_param_linear", "--S", "5000",
                     "--seed", "4", "--out", str(tmp_path / "a")]) == 0
        assert main(["evsi", "--model", "two_param_linear", "--S", "5000", "--Q", "5",
                     "--seed", "4", "--out", str(tmp_path / "b")]) == 0
        for path in (tmp_path / "a" / "evppi.json", tmp_path / "b" / "result.json"):
            fit = json.loads(path.read_text())["fit"]
            assert 2.0 < fit["edf"] < 14.0
            assert fit["penalty_at_grid_edge"] is False


class TestNestedCommand:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "run"
        code = main(["nested", "--model", "beta_binomial", "--N", "10",
                     "--n-outer", "2000", "--seed", "5", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "nested.json").read_text())
        assert payload["method"] == "nested_mc"
        assert payload["standard_error"] > 0.0
        assert (out / "timings.json").exists()

    def test_nan_inner_mean_is_computation_error(self, tmp_path, capsys, monkeypatch):
        real_get_design = cli.get_design

        def nan_inner_means(*args, **kwargs):
            design = real_get_design(*args, **kwargs)
            return dataclasses.replace(
                design, batch_inner_means=lambda ds: np.full(len(ds["x"]), np.nan))

        monkeypatch.setattr(cli, "get_design", nan_inner_means)
        out = tmp_path / "x"
        code = main(["nested", "--model", "beta_binomial", "--n-outer", "500",
                     "--seed", "5", "--out", str(out)])
        assert code == 3
        assert "[voi] 500 non-finite" in capsys.readouterr().err
        assert not (out / "nested.json").exists()

    def test_nan_simulated_data_is_computation_error(self, tmp_path, capsys, monkeypatch):
        real_get_design = cli.get_design

        def nan_totals(*args, **kwargs):
            design = real_get_design(*args, **kwargs)
            return dataclasses.replace(
                design, simulate_batch=lambda cols, seed: {"obs_total": cols["effect"] * np.nan})

        monkeypatch.setattr(cli, "get_design", nan_totals)
        out = tmp_path / "x"
        code = main(["nested", "--model", "normal_normal", "--n-outer", "500",
                     "--seed", "5", "--out", str(out)])
        assert code == 3
        assert "[simulate]" in capsys.readouterr().err
        assert not (out / "nested.json").exists()

    def test_fewer_than_100_draws_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["nested", "--model", "ades", "--design", "study3", "--n-outer", "99",
                     "--out", str(out)])
        assert code == 2
        assert "n_outer must be at least 100, got 99" in capsys.readouterr().err
        assert not out.exists()

    def test_exhausted_budget_is_computation_error(self, tmp_path, capsys):
        code = main(["nested", "--model", "beta_binomial", "--N", "10",
                     "--n-outer", "200000", "--budget-seconds", "0",
                     "--seed", "5", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_unknown_experiment_lists_options(self, tmp_path, capsys):
        code = main(["benchmark", "nosuch", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "table1" in capsys.readouterr().err

    def test_missing_experiment_is_config_error(self, tmp_path, capsys):
        code = main(["benchmark", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "variance_convergence" in capsys.readouterr().err

    def test_variance_convergence_rerun_identical(self, tmp_path):
        args = ["benchmark", "variance_convergence", "--replicates", "3",
                "--Q-values", "1,5", "--S", "2000", "--seed", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        name = "variance_convergence_long.csv"
        assert _read(a / name) == _read(b / name)
        lines = (a / name).read_text().splitlines()
        assert lines[0] == "experiment,parameter,replicate,estimate,oracle,se"
        assert len(lines) == 1 + 3 * 2

    def test_crosscheck_single_study_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = main(["benchmark", "ades_crosscheck", "--studies", "study1",
                     "--S", "4000", "--Q", "5", "--n-outer", "500", "--seed", "8",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "ades_crosscheck_summary.json").read_text())
        assert summary[0]["study"] == "study1"
        assert summary[0]["nested_mc_se"] > 0.0

    def test_table1_column_set(self, tmp_path):
        out = tmp_path / "run"
        code = main(["benchmark", "table1", "--replicates", "2",
                     "--Q-values", "1,3", "--S", "2000", "--seed", "7", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "table1_summary.json").read_text())
        assert [row["Q"] for row in summary] == [1, 3]
        assert all("bias" in row for row in summary)

    @pytest.mark.parametrize("name", ["beta_binomial_bias", "exp_gamma_bias"])
    def test_bias_sweep_row_counts(self, tmp_path, name):
        out = tmp_path / "run"
        code = main(["benchmark", name, "--N-values", "5,10", "--replicates", "3",
                     "--S", "500", "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = (out / f"{name}_long.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        summary = json.loads((out / f"{name}_summary.json").read_text())
        assert [row["N"] for row in summary] == [5, 10]

    def test_single_replicate_has_zero_spread(self, tmp_path):
        # a one-replicate standard deviation used to be NaN, refused by the JSON writer
        out = tmp_path / "run"
        code = main(["benchmark", "exp_gamma_bias", "--N-values", "5", "--replicates", "1",
                     "--S", "500", "--seed", "4", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "exp_gamma_bias_summary.json").read_text())
        assert summary[0]["sd_estimate"] == 0.0

    def test_flags_the_experiment_ignores_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["benchmark", "table1", "--Q", "7", "--n-outer", "123", "--N-values", "9",
                     "--out", str(out)])
        assert code == 2
        assert "['N_values', 'Q', 'n_outer']" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_the_experiment_takes_runs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["benchmark", "table1", "--replicates", "1",
                     "--Q-values", "1", "--S", "2000", "--seed", "7", "--out", str(out)])
        assert code == 0
        # the manifest records the settings the experiment reads, and no M
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["S"] == 2000 and "M" not in config
        assert set(config) == {"command", "experiment", "S", "Q_values", "replicates",
                               "master_seed", "output_dir"}

    def test_retired_m_flag_is_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "table1", "--M", "1000", "--replicates", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --M 1000" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_a_dropped_key_rejected(self, tmp_path, capsys):
        # manifests of older versions can still carry these keys
        study2 = {"model": "ades", "design": "study2", "S": 5000, "Q": 5, "master_seed": 1}
        nested = {"model": "ades", "design": "study3", "n_outer": 2000, "master_seed": 0}
        for command, config, key in (
                ("benchmark", {"experiment": "table1", "oracle_n_outer": 100000},
                 "oracle_n_outer"),
                ("evsi", {**study2, "obs_var": 2.0}, "obs_var"),
                ("psa", {"model": "ades", "S": 100, "workers": 2}, "workers"),
                ("evsi", {**study2, "burn_in": 0}, "burn_in"),
                ("evsi", {**study2, "M": 1000}, "M"),
                ("benchmark", {"experiment": "table1", "M": 1000}, "M"),
                ("nested", {**nested, "n_inner": 2000}, "n_inner"),
                ("nested", {**nested, "inner_burn_in": 500}, "inner_burn_in")):
            manifest = tmp_path / f"{command}_manifest.json"
            manifest.write_text(json.dumps({"command": command, "config": config}))
            code = main([command, "--from-manifest", str(manifest),
                         "--out", str(tmp_path / "x")])
            assert code == 2
            assert f"unknown config keys ['{key}']" in capsys.readouterr().err


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_flag_is_a_setting_the_command_reads(command):
    flags = {a.dest for a in _subparsers()[command]._actions
             if a.dest not in ("help", "config", "from_manifest", "experiment")}
    if command == "benchmark":
        reads = {k for e in EXPERIMENTS.values() for k in e.fields}
    else:
        reads = set(RunConfig(command=command).reads())
    assert flags == reads | {"master_seed", "output_dir"}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_fields_are_config_fields_and_parameters(name):
    experiment = EXPERIMENTS[name]
    config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    parameters = inspect.signature(experiment.run).parameters
    assert "seed" in parameters
    for key in experiment.fields:
        assert key in config_fields
        assert key in parameters


class TestSelftest:
    def test_oracle_disagreement_exits_4(self, tmp_path, monkeypatch):
        def wrong_oracle(toy):
            return PreposteriorSummary(mean=0.0, variance=0.0, evsi=999999.0)

        monkeypatch.setattr(cli, "analytic_preposterior", wrong_oracle)
        code = main(["selftest", "--seed", "0", "--out", str(tmp_path / "st")])
        assert code == 4


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "beta_binomial", "S": 500}))
        out = tmp_path / "run"
        code = main(["psa", "--config", str(cfg), "--S", "700", "--seed", "8",
                     "--out", str(out)])
        assert code == 0
        assert len((out / "psa.csv").read_text().splitlines()) == 701

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "beta_binomial", "banana": 1}))
        code = main(["psa", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, message", [
        ("--config", '{"model": ', "is not valid JSON"),
        ("--config", '{"model": "beta_binomial", "model_params": [1, 2]}',
         "model_params in config file"),
        ("--config", '{"model": "beta_binomial", "model_params": "abc"}',
         "model_params in config file"),
        ("--from-manifest", '{"command": "psa"}', "must hold a command and a config object"),
        ("--from-manifest", '{"command": "psa", "config": []}',
         "must hold a command and a config object"),
        ("--from-manifest", '{"command": "psa", "config": {"model_params": [1]}}',
         "model_params in manifest"),
        ("--config", None, "cannot read"),
    ], ids=["invalid-json", "params-list", "params-string", "manifest-without-config",
            "manifest-config-list", "manifest-params-list", "missing-file"])
    def test_malformed_config_file_is_a_config_error(self, tmp_path, capsys, flag, text,
                                                     message):
        # each ended in a traceback (exit 1), ran as an empty configuration,
        # or, for a missing file, exited 3 as a computation error
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "x"
        code = main(["psa", flag, str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [{"S": float("nan")}, {"S": 1.5}, {"S": 1e5},
                                       {"S": True}, {"n_outer": 0.5},
                                       {"master_seed": float("nan")}, {"design_n": 2.5}])
    def test_non_integer_counts_in_config_rejected(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "beta_binomial", **entry}))
        code = main(["psa", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{next(iter(entry))} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, entry, message", [
        (["psa", "--model", "exp_gamma"], {"model_params": {"k": True}},
         "k must be a finite number, got True"),
        (["nested", "--model", "normal_normal", "--n-outer", "100"], {"budget_seconds": True},
         "budget_seconds must be a finite number, got True"),
        (["psa", "--model", "exp_gamma"], {"model_params": {"k": None}},
         "k must be a finite number, got None"),
    ], ids=["true-parameter", "true-budget", "null-parameter"])
    def test_booleans_and_nulls_are_not_numbers_in_config(self, tmp_path, capsys, command,
                                                          entry, message):
        # true ran as 1, exited 0 and left true in the manifest; a null
        # parameter ended in a TypeError traceback (exit 1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "x"
        code = main([*command, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["psa", "--S", "1"], None, "S must be at least 2, got 1"),
        (["psa"], {"model": "beta_binomial", "S": None}, "S must be an integer, got None"),
        (["psa", "--seed", str(2**64)], None, f"master_seed must be below 2**64, got {2**64}"),
        (["evsi", "--S", "50", "--Q", "60"], None, "Q must be at most S=50, got 60"),
    ], ids=["S=1", "S=null", "seed=2**64", "Q>S"])
    def test_counts_the_library_refuses_are_config_errors(self, tmp_path, capsys, argv,
                                                          config, message):
        # each used to end in a traceback (exit 1) or a computation error (exit 3)
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "x"
        code = main([*argv, "--model", "beta_binomial", "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["--Q-values", "0"], None, "Q_values entries must be between 1 and S=10000, got [0]"),
        (["--Q-values", "5,60,70", "--S", "50"], None,
         "Q_values entries must be between 1 and S=50, got [60, 70]"),
        ([], {"Q_values": [1, 2.5]}, "Q_values must be a list of integers, got [1, 2.5]"),
        ([], {"Q_values": 5}, "Q_values must be a list of integers, got 5"),
    ], ids=["zero", "above-S", "float", "not-a-list"])
    def test_q_values_outside_1_to_s_are_config_errors(self, tmp_path, capsys, argv, config,
                                                       message):
        # an entry below 1 used to end in a ValueError traceback (exit 1)
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "x"
        code = main(["benchmark", "table1", "--replicates", "1", *argv, "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, entry", [
        (["benchmark"], {"experiment": ["table1"]}),
        (["psa"], {"model": 3}),
        (["evsi", "--model", "ades"], {"design": {"name": "study1"}}),
    ], ids=["experiment", "model", "design"])
    def test_non_string_names_in_config_rejected(self, tmp_path, capsys, command, entry):
        # a list used to end in "TypeError: unhashable type" (exit 1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "x"
        code = main([*command, "--config", str(path), "--out", str(out)])
        assert code == 2
        name, value = next(iter(entry.items()))
        assert f"error: {name} must be a string, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("psa", "--burn-in"), ("evsi", "--burn-in"),
                                               ("nested", "--n-inner"),
                                               ("nested", "--inner-burn-in"),
                                               ("psa", "--M"), ("evsi", "--M"),
                                               ("nested", "--M")])
    def test_retired_chain_flags_are_refused(self, tmp_path, capsys, command, flag):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "beta_binomial", flag, "100", "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 100" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["psa", "--model", "beta_binomial", "--param", "foo=1"], "foo"),
        (["evsi", "--model", "ades", "--design", "study1", "--param", "pc_alpha=-1"], "pc_alpha"),
        (["psa", "--model", "normal_normal", "--param", "prior_var=-1"], "prior_var"),
        (["evsi", "--model", "ades", "--design", "study2", "--param", "logit_qe_obs_var=0"],
         "logit_qe_obs_var"),
        (["evsi", "--model", "normal_normal", "--param", "obs_var=-1"], "obs_var"),
        (["evsi", "--model", "quadratic_normal", "--param", "obs_var=0"], "obs_var"),
    ])
    def test_model_parameter_mistakes_are_config_errors(self, tmp_path, capsys, argv, name):
        # an unknown name, and a value the model's prior or its observations refuse
        code = main([*argv, "--S", "100", "--out", str(tmp_path / "x")])
        assert code == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, message", [
        (["benchmark", "beta_binomial_bias", "--N-values=-1"], None,
         "N_values entries must be at least 0, got [-1]"),
        (["benchmark", "beta_binomial_bias"], {"N_values": [2.5]},
         "N_values must be a list of integers, got [2.5]"),
        (["benchmark", "ades_crosscheck"], {"studies": "study1"},
         "studies must be a list of strings, got 'study1'"),
        (["benchmark", "ades_crosscheck"], {"studies": ["study1", 3]},
         "studies must be a list of strings, got ['study1', 3]"),
        (["benchmark", "table1", "--Q-values", ","], None, "Q_values must not be empty"),
        (["benchmark", "exp_gamma_bias"], {"N_values": []}, "N_values must not be empty"),
    ], ids=["N-negative", "N-float", "studies-string", "studies-int", "Q-empty", "N-empty"])
    def test_list_settings_are_checked(self, tmp_path, capsys, argv, config, message):
        # a negative N ended in a ValueError traceback (exit 1), N=2.5 ran to a
        # fractional-sample "oracle", a string was iterated one letter at a
        # time, and an empty list ran the experiment's defaults
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "x"
        code = main([*argv, "--replicates", "1", "--S", "200", "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_sample_size_in_a_bias_sweep_runs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["benchmark", "beta_binomial_bias", "--N-values", "0,5", "--replicates", "1",
                     "--S", "200", "--out", str(out)]) == 0
        summary = json.loads((out / "beta_binomial_bias_summary.json").read_text())
        assert [row["N"] for row in summary] == [0, 5]
        assert summary[0]["oracle"] == 0.0

    @pytest.mark.parametrize("argv, unread", [
        (["nested", "--model", "beta_binomial", "--n-outer", "200", "--S", "7", "--Q", "3"],
         "--S 7 --Q 3"),
        (["psa", "--model", "beta_binomial", "--Q", "3"], "--Q 3"),
        (["evppi", "--model", "beta_binomial", "--Q", "3"], "--Q 3"),
        (["benchmark", "exp_gamma_bias", "--N", "5"], "--N 5"),
    ], ids=["nested-S-Q", "psa-Q", "evppi-Q", "benchmark-N"])
    def test_flags_the_command_does_not_read_are_refused(self, tmp_path, capsys, argv, unread):
        # the first three ran and recorded the unread values in their manifests
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, unread", [
        (["nested"], {"model": "beta_binomial", "n_outer": 200, "S": 7, "Q": 3}, ["Q", "S"]),
        (["psa"], {"model": "beta_binomial", "design": "trial"}, ["design"]),
        (["benchmark", "table1"], {"Q": 5, "replicates": 1}, ["Q"]),
    ], ids=["nested", "psa", "benchmark"])
    def test_config_keys_the_command_does_not_read_are_refused(self, tmp_path, capsys,
                                                                command, config, unread):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x"
        code = main([*command, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"does not read {unread}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["psa", "--model", "ades", "--S", "100"],
        ["evppi", "--model", "beta_binomial", "--S", "500"],
        ["nested", "--model", "beta_binomial", "--n-outer", "200"],
        ["benchmark", "exp_gamma_bias", "--N-values", "5", "--replicates", "1", "--S", "200"],
    ], ids=["psa", "evppi", "nested", "benchmark"])
    def test_manifest_records_the_settings_the_command_reads(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--seed", "2", "--out", str(a)]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        cfg = RunConfig(**manifest["config"])
        assert set(manifest["config"]) == {"command", "master_seed", "output_dir", *cfg.reads()}
        # and reruns
        assert main([argv[0], "--from-manifest", str(a / "manifest.json"),
                     "--out", str(b)]) == 0

    @pytest.mark.parametrize("flag, text, other", [
        ("--from-manifest", {"command": "nested", "config": {"model": "beta_binomial"}},
         "nested"),
        ("--from-manifest", {"command": "foo", "config": {}}, "foo"),
        ("--config", {"command": "nested", "model": "beta_binomial"}, "nested"),
    ], ids=["manifest", "manifest-unknown", "config"])
    def test_configuration_of_another_command_rejected(self, tmp_path, capsys, flag, text,
                                                       other):
        # psa ran the nested oracle, or ended in a KeyError traceback (exit 1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(text))
        out = tmp_path / "x"
        code = main(["psa", flag, str(path), "--out", str(out)])
        assert code == 2
        assert f"error: the configuration is for {other!r}, not 'psa'" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVSIKIT_OUTPUT_DIR", str(tmp_path / "envout"))
        code = main(["psa", "--model", "beta_binomial", "--S", "10", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "envout" / "psa.csv").exists()


class TestNumericInputs:
    _EVSI = ["evsi", "--S", "5000", "--Q", "5", "--seed", "3"]

    def test_obs_var_on_a_design_without_one_is_config_error(self, tmp_path, capsys):
        code = main([*self._EVSI, "--model", "normal_normal", "--param", "logit_qe_obs_var=50",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "logit_qe_obs_var" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--param", "k=nan"), ("--param", "k=inf"),
                                      ("--param", "logit_qe_obs_var=nan")])
    def test_non_finite_values_rejected_at_parse_time(self, tmp_path, capsys, flag):
        model = ["--model", "ades", "--design", "study2"] if "logit_qe" in flag[1] \
            else ["--model", "normal_normal"]
        code = main([*self._EVSI, *model, *flag, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_json_output_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ComputationError, match=r"\[output\]"):
            _write_json(str(tmp_path / "x.json"), {"evsi": float("nan")})


@pytest.mark.parametrize("argv, stage", [
    (["evsi", "--S", "5000", "--Q", "5"], "posterior_variance"),
    (["nested", "--n-outer", "1000"], "nested"),
])
def test_non_finite_newton_step_carries_its_stage(tmp_path, capsys, monkeypatch, argv, stage):
    # the two-arm rule serves the estimator and the nested oracle; a failed
    # mode search names the stage of the caller
    original = TwoArmTrialUpdate.derivatives

    def derivatives(self, *args):
        g0, *rest = original(self, *args)
        return (g0 * np.nan, *rest)

    monkeypatch.setattr(TwoArmTrialUpdate, "derivatives", derivatives)
    code = main([*argv, "--model", "ades", "--design", "study3", "--seed", "3",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert f"error: [{stage}] non-finite Newton step" in capsys.readouterr().err
