"""Command-line interface tests."""

from __future__ import annotations

import csv
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import pcimpute
from pcimpute.cli import main
from pcimpute.data import load_csv, write_csv
from pcimpute.engine import STRATEGIES, ImputationSpec, run_impute
from pcimpute.pooling import ParameterId, estimate_parameter, rubin_pool
from tests.helpers import make_incomplete, study_dataset


@pytest.fixture()
def incomplete_csv(tmp_path):
    data = make_incomplete(seed=5)
    path = tmp_path / "incomplete.csv"
    write_csv(path, data.values, data.names)
    return path, data


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["impute", "--method", "pcr-vbv"]) == 1

    def test_runtime_failure_maps_to_two(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        path.write_text("a,b\n1,NA\n2,3\n4,5\n6,7\n", encoding="utf-8")
        code = main([
            "pool", "--inputs", str(path), str(path), "--params", "mean:a",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "missing cells" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["pool", "--inputs", "a.csv", "b.csv", "--params", "mean:x1",
              "--seed", "1"], "--seed"),
            (["impute", "--input", "a.csv", "--method", "pcr-vbv", "--out-prefix", "run",
              "--workers", "2"], "--workers"),
            (["enumerate", "--input", "a.csv", "--rule", "kaiser", "--workers", "2"], "--workers"),
            (["enumerate", "--input", "a.csv", "--rule", "kaiser",
              "--out-dir", "out"], "--out-dir"),
            (["simulate", "--config", "study.json", "--na-token", "."], "--na-token"),
        ],
    )
    def test_flags_only_on_commands_that_read_them(self, argv, flag, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


class TestImputeCommand:
    def test_writes_completions_and_trace(self, incomplete_csv, tmp_path, capsys):
        path, data = incomplete_csv
        out_dir = tmp_path / "out"
        code = main([
            "impute", "--input", str(path), "--method", "pcr-vbv",
            "--m", "2", "--maxit", "2", "--seed", "3",
            "--out-dir", str(out_dir), "--out-prefix", "filled",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "resolved n_components = 5" in captured
        for index in (1, 2):
            completed = load_csv(out_dir / f"filled_{index}.csv")
            assert completed.mask.all()
            np.testing.assert_array_equal(
                completed.values[data.mask], data.values[data.mask]
            )
        trace_rows = _read_rows(out_dir / "filled_trace.csv")
        assert trace_rows[0] == ["chain", "iteration", "column", "mean", "sd"]
        n_targets = len(data.incomplete_columns())
        assert len(trace_rows) == 1 + 2 * 2 * n_targets

    def test_trace_quotes_column_names(self, tmp_path):
        data = make_incomplete(seed=5)
        names = ["a,b"] + data.names[1:]
        path = tmp_path / "comma.csv"
        write_csv(path, data.values, names)
        code = main([
            "impute", "--input", str(path), "--method", "quickpred",
            "--m", "1", "--maxit", "1", "--out-dir", str(tmp_path), "--out-prefix", "run",
        ])
        assert code == 0
        rows = _read_rows(tmp_path / "run_trace.csv")
        assert all(len(row) == 5 for row in rows)
        targets = [names[int(j)] for j in data.incomplete_columns()]
        assert [row[2] for row in rows[1:]] == targets and "a,b" in targets

    def test_deterministic_given_seed(self, incomplete_csv, tmp_path):
        path, _ = incomplete_csv
        outputs = []
        for label in ("a", "b"):
            out_dir = tmp_path / label
            assert main([
                "impute", "--input", str(path), "--method", "quickpred",
                "--m", "2", "--maxit", "2", "--seed", "11",
                "--out-dir", str(out_dir), "--out-prefix", "run",
            ]) == 0
            outputs.append((out_dir / "run_1.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_prefix_directory_is_created(self, incomplete_csv, tmp_path, monkeypatch):
        path, _ = incomplete_csv
        monkeypatch.chdir(tmp_path)
        code = main([
            "impute", "--input", str(path), "--method", "quickpred",
            "--m", "1", "--maxit", "1", "--out-prefix", "sub/x",
        ])
        assert code == 0
        assert load_csv(tmp_path / "sub" / "x_1.csv").mask.all()
        assert (tmp_path / "sub" / "x_trace.csv").is_file()

    @pytest.mark.parametrize(
        "flags", [["--out-prefix", "afile/x"], ["--out-dir", "afile", "--out-prefix", "x"]],
        ids=["prefix", "out-dir"],
    )
    def test_prefix_under_a_file_fails_before_the_run(
        self, incomplete_csv, tmp_path, monkeypatch, capsys, flags
    ):
        path, _ = incomplete_csv
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")

        def refuse(*args):
            raise AssertionError("run_impute called")

        monkeypatch.setattr("pcimpute.cli.run_impute", refuse)
        code = main(["impute", "--input", str(path), "--method", "quickpred", *flags])
        assert code == 2
        message = f"error: --out-prefix {flags[-1]}: its directory afile is not a directory\n"
        assert capsys.readouterr().err == message

    def test_targets_alias_matches_analysis_cols(self, incomplete_csv, tmp_path):
        path, _ = incomplete_csv
        for label, flag in (("a", "--analysis-cols"), ("b", "--targets")):
            out_dir = tmp_path / label
            assert main([
                "impute", "--input", str(path), "--method", "pcr-aux",
                flag, "x1,x2", "--m", "1", "--maxit", "2", "--seed", "2",
                "--out-dir", str(out_dir), "--out-prefix", "run",
            ]) == 0
        assert (tmp_path / "a" / "run_1.csv").read_bytes() == (
            tmp_path / "b" / "run_1.csv"
        ).read_bytes()

    def test_aux_requires_analysis_columns(self, incomplete_csv, capsys):
        path, _ = incomplete_csv
        code = main([
            "impute", "--input", str(path), "--method", "pcr-aux",
            "--out-prefix", "run",
        ])
        assert code == 1
        assert "analysis-cols" in capsys.readouterr().err

    def test_oracle_requires_mar_columns(self, incomplete_csv, capsys):
        path, _ = incomplete_csv
        code = main([
            "impute", "--input", str(path), "--method", "oracle",
            "--out-prefix", "run",
        ])
        assert code == 1
        assert "mar-cols" in capsys.readouterr().err

    def test_bad_component_count_is_usage_error(self, incomplete_csv, capsys):
        path, _ = incomplete_csv
        code = main([
            "impute", "--input", str(path), "--method", "pcr-vbv",
            "--npc", "lots", "--out-prefix", "run",
        ])
        assert code == 1
        assert "--npc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "flags", "message"),
        [
            ("impute", ["--m", "0"], "--m: must be a positive integer, got '0'"),
            ("impute", ["--maxit", "0"], "--maxit: must be a positive integer, got '0'"),
            ("impute", ["--donors", "0"], "--donors: must be a positive integer, got '0'"),
            ("impute", ["--npc", "0"], "--npc: must be a positive integer or 'max', got '0'"),
            ("impute", ["--seed", "-1"], "--seed: must be a non-negative integer, got '-1'"),
            ("enumerate", ["--seed", "-1"], "--seed: must be a non-negative integer, got '-1'"),
            (
                "enumerate",
                ["--replicates", "0"],
                "--replicates: must be a positive integer, got '0'",
            ),
            ("enumerate", ["--quantile", "2"], "quantile must lie strictly between 0 and 1"),
            ("simulate", ["--workers", "0"], "--workers: must be a positive integer, got '0'"),
        ],
    )
    def test_bad_setting_is_usage_error_before_reading_input(
        self, tmp_path, capsys, command, flags, message
    ):
        # The input does not exist, so reading it first would exit 2 (1 for a
        # config file, whose refusal names the file, not the flag).
        absent = str(tmp_path / "absent")
        argv = [command, *flags]
        if command == "impute":
            argv += ["--input", absent, "--method", "pcr-vbv", "--out-prefix", "run"]
        elif command == "enumerate":
            argv += ["--input", absent, "--rule", "kaiser"]
        else:
            argv += ["--config", absent]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_unknown_role_name_is_usage_error(self, incomplete_csv, capsys):
        path, _ = incomplete_csv
        code = main([
            "impute", "--input", str(path), "--method", "pcr-aux",
            "--targets", "nope", "--out-prefix", "run",
        ])
        assert code == 1


class TestPoolCommand:
    def _completed_files(self, tmp_path):
        rng = np.random.default_rng(7)
        paths = []
        matrices = []
        base = rng.standard_normal((30, 2)) @ [[1.0, 0.6], [0.0, 0.8]]
        for index in range(3):
            values = base + 0.1 * rng.standard_normal((30, 2))
            path = tmp_path / f"completed_{index}.csv"
            write_csv(path, values, ["x1", "x2"])
            paths.append(str(path))
            matrices.append(load_csv(path).values)
        return paths, matrices

    def test_pools_each_requested_parameter(self, tmp_path, capsys):
        paths, matrices = self._completed_files(tmp_path)
        out = tmp_path / "pooled.csv"
        code = main([
            "pool", "--inputs", *paths,
            "--params", "mean:x1,var:x2,cov:x1:x2,corr:x1:x2",
            "--out-dir", str(tmp_path), "--out", "pooled.csv",
        ])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == [
            "parameter", "estimate", "within_var", "between_var", "total_var",
            "df", "ci_lower", "ci_upper",
        ]
        assert [row[0] for row in rows[1:]] == [
            "mean:x1", "var:x2", "cov:x1:x2", "corr:x1:x2",
        ]
        pid = ParameterId("correlation", (0, 1))
        pairs = [estimate_parameter(matrix, pid) for matrix in matrices]
        expected = rubin_pool(
            [e for e, _ in pairs], [v for _, v in pairs], "correlation", 30
        )
        corr_row = rows[4]
        assert float(corr_row[1]) == expected.estimate
        assert float(corr_row[5]) == expected.df
        assert float(corr_row[6]) == expected.ci_lower

    def test_repeated_entry_writes_one_row_each(self, tmp_path, capsys):
        paths, _ = self._completed_files(tmp_path)
        code = main([
            "pool", "--inputs", *paths, "--params", "corr:x1:x2,mean:x1,corr:x1:x2",
            "--out-dir", str(tmp_path), "--out", "pooled.csv",
        ])
        assert code == 0
        rows = _read_rows(tmp_path / "pooled.csv")
        assert [row[0] for row in rows[1:]] == ["corr:x1:x2", "mean:x1", "corr:x1:x2"]
        assert rows[1] == rows[3]

    @pytest.mark.parametrize(
        "params, message",
        [("mean:x1:x2", "mean takes exactly 1 column(s)"),
         ("corr:x1", "correlation takes exactly 2 column(s)")],
    )
    def test_wrong_column_count_rejected(self, tmp_path, capsys, params, message):
        paths, _ = self._completed_files(tmp_path)
        assert main([
            "pool", "--inputs", *paths, "--params", params, "--out-dir", str(tmp_path),
        ]) == 1
        assert message in capsys.readouterr().err

    def test_out_directory_is_created(self, tmp_path, monkeypatch):
        paths, _ = self._completed_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pool", "--inputs", *paths, "--params", "mean:x1", "--out", "sub/p.csv"]) == 0
        assert [row[0] for row in _read_rows(tmp_path / "sub" / "p.csv")[1:]] == ["mean:x1"]

    def test_out_under_a_file_fails_before_pooling(self, tmp_path, monkeypatch, capsys):
        paths, _ = self._completed_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")

        def refuse(*args):
            raise AssertionError("analyze_set called")

        monkeypatch.setattr("pcimpute.pooling.analyze_set", refuse)
        code = main(["pool", "--inputs", *paths, "--params", "mean:x1", "--out", "afile/p.csv"])
        assert code == 2
        message = "error: --out afile/p.csv: its directory afile is not a directory\n"
        assert capsys.readouterr().err == message

    def test_single_input_rejected(self, tmp_path, capsys):
        paths, _ = self._completed_files(tmp_path)
        assert main(["pool", "--inputs", paths[0], "--params", "mean:x1"]) == 1

    def test_unknown_parameter_kind_rejected(self, tmp_path, capsys):
        paths, _ = self._completed_files(tmp_path)
        assert main([
            "pool", "--inputs", *paths, "--params", "mode:x1",
            "--out-dir", str(tmp_path),
        ]) == 1
        assert "mode" in capsys.readouterr().err

    def test_unknown_column_rejected(self, tmp_path, capsys):
        paths, _ = self._completed_files(tmp_path)
        assert main([
            "pool", "--inputs", *paths, "--params", "mean:zz",
            "--out-dir", str(tmp_path),
        ]) == 1

    def test_mismatched_headers_fail(self, tmp_path, capsys):
        paths, _ = self._completed_files(tmp_path)
        other = tmp_path / "other.csv"
        write_csv(other, np.ones((30, 2)), ["a", "b"])
        code = main([
            "pool", "--inputs", paths[0], str(other), "--params", "mean:x1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "header differs" in capsys.readouterr().err


class TestEnumerateCommand:
    def _complete_csv(self, tmp_path):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((100, 2))
        values = np.hstack([base @ rng.standard_normal((2, 4)),
                            0.4 * rng.standard_normal((100, 2))])
        path = tmp_path / "complete.csv"
        write_csv(path, values, [f"x{j + 1}" for j in range(6)])
        return path

    def test_prints_rule_and_spectrum(self, tmp_path, capsys):
        path = self._complete_csv(tmp_path)
        assert main(["enumerate", "--input", str(path), "--rule", "kaiser"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "rule: kaiser"
        assert lines[1] == "rows used: 100"
        assert lines[2].startswith("retained components: ")
        assert lines[3] == "component,eigenvalue"
        assert len(lines) == 4 + 6

    @pytest.mark.parametrize("rule", ["kaiser", "pa", "oc", "af"])
    def test_spectrum_is_computed_once(self, tmp_path, capsys, monkeypatch, rule):
        path = self._complete_csv(tmp_path)
        values = load_csv(path).values
        pca_module = importlib.import_module("pcimpute.pca")
        cli_module = importlib.import_module("pcimpute.cli")
        spectrum = pca_module.correlation_eigenvalues
        # Parallel analysis takes the spectra of its noise replicates as well;
        # only the input's are counted.
        of_input = []

        def spy(matrix):
            of_input.append(np.array_equal(matrix, values))
            return spectrum(matrix)

        monkeypatch.setattr(pca_module, "correlation_eigenvalues", spy)
        monkeypatch.setattr(cli_module, "correlation_eigenvalues", spy)
        argv = ["enumerate", "--input", str(path), "--rule", rule]
        assert main([*argv, "--replicates", "20", "--seed", "3"]) == 0
        assert sum(of_input) == 1
        monkeypatch.undo()
        # The output of a command that took the spectrum twice: once in the rule.
        method = {tag: name for name, tag in pca_module.ENUMERATION_METHODS.items()}[rule]
        retained = pca_module.enumerate_components(
            values,
            pca_module.EnumerationRule(method, replicates=20),
            np.random.default_rng(3),
        )
        lines = [f"rule: {method}", "rows used: 100", f"retained components: {retained}"]
        lines.append("component,eigenvalue")
        lines += [f"{k},{float(v)!r}" for k, v in enumerate(spectrum(values), start=1)]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_parallel_analysis_uses_seed(self, tmp_path, capsys):
        path = self._complete_csv(tmp_path)
        assert main([
            "enumerate", "--input", str(path), "--rule", "pa",
            "--replicates", "50", "--seed", "4",
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "enumerate", "--input", str(path), "--rule", "pa",
            "--replicates", "50", "--seed", "4",
        ]) == 0
        assert capsys.readouterr().out == first

    def test_missing_values_need_complete_cases_flag(self, tmp_path, capsys):
        data = make_incomplete(seed=15)
        path = tmp_path / "incomplete.csv"
        write_csv(path, data.values, data.names)
        code = main(["enumerate", "--input", str(path), "--rule", "oc"])
        assert code == 2
        assert "--complete-cases" in capsys.readouterr().err
        assert main([
            "enumerate", "--input", str(path), "--rule", "oc", "--complete-cases",
        ]) == 0
        out = capsys.readouterr().out
        n_complete = int(data.mask.all(axis=1).sum())
        assert f"rows used: {n_complete}" in out

    @pytest.mark.parametrize("rule", ["oc", "af"])
    def test_too_few_columns_name_the_input_and_rule(self, tmp_path, capsys, rule):
        path = tmp_path / "two.csv"
        write_csv(path, np.random.default_rng(1).standard_normal((20, 2)), ["x1", "x2"])
        assert main(["enumerate", "--input", str(path), "--rule", rule]) == 2
        message = f"error: {path}: rule {rule}: need at least three eigenvalues\n"
        assert capsys.readouterr().err == message

    def test_too_few_complete_cases_name_the_input(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        path.write_text("a,b,c\n1,2,NA\n3,4,5\n5,6,7\n1,NA,1\n", encoding="utf-8")
        argv = ["enumerate", "--input", str(path), "--rule", "kaiser", "--complete-cases"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: fewer than three complete cases\n"

    def test_bad_quantile_is_usage_error(self, tmp_path, capsys):
        path = self._complete_csv(tmp_path)
        assert main([
            "enumerate", "--input", str(path), "--rule", "pa", "--quantile", "2.0",
        ]) == 1


class TestSimulateCommand:
    def _config(self, tmp_path, **run_overrides):
        run = {"reps": 2, "seed": 13, "out_dir": str(tmp_path / "results")}
        run.update(run_overrides)
        config = {
            "grid": {
                "n_rows": 80,
                "factors": 3,
                "items_per_factor": 2,
                "noise_fraction": [0.0, 0.5],
            },
            "methods": [
                {"strategy": "oracle"},
                {"strategy": "pcr-vbv", "n_components": 2},
            ],
            "run": run,
            "settings": {"chains": 2, "iterations": 2},
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_runs_grid_and_writes_outputs(self, tmp_path, capsys):
        config = self._config(tmp_path)
        assert main(["simulate", "--config", str(config)]) == 0
        out_dir = tmp_path / "results"
        metrics = _read_rows(out_dir / "metrics.csv")
        estimates = _read_rows(out_dir / "estimates.csv")
        # 2 grid cells x 2 methods x 20 parameters
        assert len(metrics) == 1 + 2 * 2 * 20
        assert len(estimates) == 1 + 2 * 2 * 2 * 20
        noise_values = {row[2] for row in metrics[1:]}
        assert noise_values == {"0.0", "0.5"}

    def test_rerun_identical_apart_from_runtime(self, tmp_path):
        config = self._config(tmp_path)
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        assert main([
            "simulate", "--config", str(config), "--out-dir", str(first_dir),
        ]) == 0
        assert main([
            "simulate", "--config", str(config), "--out-dir", str(second_dir),
        ]) == 0
        assert (first_dir / "estimates.csv").read_bytes() == (
            second_dir / "estimates.csv"
        ).read_bytes()
        first = _read_rows(first_dir / "metrics.csv")
        second = _read_rows(second_dir / "metrics.csv")
        runtime_col = first[0].index("runtime_s")
        for left, right in zip(first, second):
            left = left[:runtime_col] + left[runtime_col + 1 :]
            right = right[:runtime_col] + right[runtime_col + 1 :]
            assert left == right

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = {"grid": {}, "methods": [], "run": {"reps": 1}, "bonus": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "bonus" in capsys.readouterr().err

    def test_missing_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {}}), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("section", "value", "message"),
        [
            ("settings", {"chains": 0}, "bad settings: chains must be positive"),
            (
                "methods",
                [{"strategy": "pcr-vbv", "n_components": 0}],
                "bad methods entry {'strategy': 'pcr-vbv', 'n_components': 0}: n_components",
            ),
        ],
    )
    def test_bad_settings_or_method_exit_1(self, tmp_path, capsys, section, value, message):
        path = self._config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        config[section] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results").exists()  # refused before any replication ran

    @pytest.mark.parametrize(
        ("settings", "message"),
        [
            ({"chains": 2.5}, "chains must be an integer, got 2.5"),
            ({"donors": 2.5, "imputer": "pmm"}, "donors must be an integer, got 2.5"),
            ({"donors": True}, "donors must be an integer, got True"),
            ({"iterations": "3"}, "iterations must be an integer, got '3'"),
            ({"corr_threshold": True}, "corr_threshold must be a number, got True"),
            ({"ridge": "0"}, "ridge must be a number, got '0'"),
        ],
    )
    def test_mistyped_settings_exit_1(self, tmp_path, capsys, settings, message):
        path = self._config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        config["settings"] = settings
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert f"bad settings: {message}" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("value", [[1, 2], "fast"])
    @pytest.mark.parametrize("section", ["grid", "run", "settings"])
    def test_section_that_is_not_an_object_exit_1(self, tmp_path, capsys, section, value):
        path = self._config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        config[section] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert f"config section {section!r} must be an object" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("reps", 0, "reps must be a positive integer, got 0"),
            ("reps", "three", "reps must be a positive integer, got 'three'"),
            ("workers", 0, "workers must be a positive integer, got 0"),
        ],
    )
    def test_bad_run_section_exit_1(self, tmp_path, capsys, key, value, message):
        path = self._config(tmp_path, **{key: value})
        assert main(["simulate", "--config", str(path)]) == 1
        assert f"bad run section: {message}" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_bad_grid_cell_rejected(self, tmp_path, capsys):
        config = {
            "grid": {"n_rows": 80, "factors": 3, "noise_fraction": 0.37},
            "methods": [{"strategy": "oracle"}],
            "run": {"reps": 1},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("n_rows", 80.5, "n_rows must be an integer, got 80.5"),
            ("factors", 3.0, "factors must be an integer, got 3.0"),
            ("categories", 2.5, "categories must be an integer, got 2.5"),
        ],
    )
    def test_mistyped_grid_cell_exit_1(self, tmp_path, capsys, key, value, message):
        path = self._config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        config["grid"][key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "bad grid cell" in err and message in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        ("section", "key", "value", "message"),
        [
            ("grid", "target_mean", float("nan"), "target_mean must be finite, got nan"),
            ("grid", "target_variance", float("inf"), "target_variance must be finite, got inf"),
            ("settings", "ridge", float("inf"), "ridge must be nonnegative and finite, got inf"),
        ],
    )
    def test_non_finite_json_values_exit_1(self, tmp_path, capsys, section, key, value, message):
        # json writes and reads these as its NaN and Infinity tokens.
        path = self._config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        config[section][key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        label = "bad grid cell" if section == "grid" else "bad settings"
        assert label in err and message in err
        assert not (tmp_path / "results").exists()


class TestEntryPoint:
    def test_module_invocation_shows_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pcimpute.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "impute" in proc.stdout

    @staticmethod
    def _loaded_by_cli_import(module: str) -> str:
        return _child(f"import sys, pcimpute.cli; print({module!r} in sys.modules)")

    def test_import_leaves_scipy_stats_unloaded(self):
        assert self._loaded_by_cli_import("scipy.stats") == "False"

    def test_import_leaves_scipy_special_unloaded(self):
        # Only pooling and the simulation need scipy.special; impute does neither.
        assert self._loaded_by_cli_import("scipy.special") == "False"

    def test_import_leaves_scipy_linalg_unloaded(self):
        # The draw's LAPACK routines are bound from scipy's extension itself.
        assert self._loaded_by_cli_import("scipy.linalg") == "False"

    def test_import_leaves_simulation_unloaded(self):
        # Only the simulate command needs it.
        assert self._loaded_by_cli_import("pcimpute.simulation") == "False"

    @pytest.mark.parametrize("method", STRATEGIES)
    def test_impute_loads_no_unused_module(self, method, incomplete_csv, tmp_path):
        # pmm under every strategy needs no pooling, simulation or scipy.linalg,
        # and no numpy.ma, which np.unique imports on its first call.
        path, _ = incomplete_csv
        argv = ["impute", "--input", str(path), "--method", method, "--targets", "x1,x2",
                "--mar-cols", "x3,x4", "--m", "2", "--maxit", "2",
                "--out-dir", str(tmp_path), "--out-prefix", "run"]  # fmt: skip
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pcimpute.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=_environment(),
        )
        assert proc.returncode == 0, proc.stderr
        # -X importtime writes one "import time: ... | <module>" line per import.
        imported = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"pcimpute.engine", "pcimpute.imputers"} <= imported
        unused = {"numpy.ma", "pcimpute.pooling", "pcimpute.simulation", "scipy.linalg"}
        assert imported & unused == set()

    @pytest.mark.parametrize("first", ["pcimpute.imputers", "scipy.linalg"])
    def test_lapack_routines_are_scipy_linalg_lapacks(self, first):
        same = _child(
            f"import {first}, pcimpute.imputers as imputers, scipy.linalg.lapack as lapack; "
            "print([getattr(imputers, n) is getattr(lapack, n) "
            "for n in ('dpotrf', 'dsyevr', 'dtrtrs')])"
        )
        assert same == "[True, True, True]"

    def test_thread_controls_reach_scipy_openblas_without_scipy_linalg(self):
        counts = _child(
            "import pcimpute.cli; "
            "from pcimpute.engine import _openblas_thread_controls as controls; "
            "before = len(controls()); import scipy.linalg; controls.cache_clear(); "
            "print(before, len(controls()))"
        )
        before, after = counts.split()
        if after == "0":
            pytest.skip("no OpenBLAS loaded")
        assert before == after

    def test_missing_lapack_extension_names_where_it_looked(self):
        message = _child(
            "import sys; from unittest import mock; from importlib.machinery import FileFinder; "
            "import pcimpute.imputers as imputers; del sys.modules['scipy.linalg._flapack']\n"
            "with mock.patch.object(FileFinder, 'find_spec', return_value=None):\n"
            "    try: imputers._load_flapack()\n"
            "    except ImportError as err: print(err)"
        )
        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        assert message == (
            f"no scipy.linalg._flapack extension in {directory} (scipy {scipy.__version__})"
        )

    def test_package_import_loads_nothing(self):
        loaded = _child(
            "import os, sys, pcimpute; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('pcimpute.')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert loaded == "[] None"

    _THREAD_COUNTS = (
        "import json, pcimpute.cli; "
        "from pcimpute.engine import _openblas_thread_controls; "
        "print(json.dumps([get() for get, _ in _openblas_thread_controls()]))"
    )

    @pytest.mark.parametrize(("exported", "expected"), [(None, 1), ("2", 2)])
    def test_cli_import_sets_one_openblas_thread_unless_exported(self, exported, expected):
        counts = json.loads(_child(self._THREAD_COUNTS, exported))
        if not counts:
            pytest.skip("no OpenBLAS loaded")
        assert counts == [expected] * len(counts)

    def test_impute_writes_the_one_thread_bytes(self, tmp_path):
        # p = 242, n = 120, pcr-vbv: a two-thread OpenBLAS would round 243 of
        # these cells differently, by up to 1.9e-14, had run_impute not pinned
        # one thread in the command and in this process alike.
        data, _, _ = study_dataset(1, n_rows=120, items_per_factor=39)
        source = tmp_path / "input.csv"
        write_csv(source, data.values, data.names)
        argv = ["impute", "--input", str(source), "--method", "pcr-vbv", "--npc", "7",
                "--imputer", "bayesian-normal", "--m", "2", "--maxit", "2", "--seed", "3",
                "--out-dir", str(tmp_path / "cli"), "--out-prefix", "completed"]  # fmt: skip
        proc = subprocess.run(
            [sys.executable, "-m", "pcimpute.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=_environment(),
        )
        assert proc.returncode == 0, proc.stderr
        spec = ImputationSpec(
            strategy="pcr-vbv",
            n_components=7,
            imputer="bayesian-normal",
            chains=2,
            iterations=2,
            seed=3,
        )
        loaded = load_csv(source)
        result = run_impute(spec, loaded)
        for index, completion in enumerate(result.completions, start=1):
            expected = tmp_path / f"expected_{index}.csv"
            write_csv(expected, completion, loaded.names)
            written = tmp_path / "cli" / f"completed_{index}.csv"
            assert written.read_bytes() == expected.read_bytes()


class TestLazyPackage:
    def test_public_names_are_their_submodules_objects(self):
        for name, module in pcimpute._SUBMODULE.items():
            source = importlib.import_module(f"pcimpute.{module}")
            assert getattr(pcimpute, name) is getattr(source, name), name

    def test_pca_stays_the_function_once_its_submodule_loads(self):
        # Importing pcimpute.cli above loaded pcimpute.pca, which binds the
        # submodule on the package unless the package refuses it.
        assert "pcimpute.pca" in sys.modules
        from pcimpute import pca

        assert pca is pcimpute.pca is sys.modules["pcimpute.pca"].pca

    def test_dir_lists_every_public_name(self):
        assert set(pcimpute.__all__) <= set(dir(pcimpute))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'pcimpute' has no attribute 'nothing'"):
            pcimpute.nothing  # noqa: B018
        with pytest.raises(ImportError, match="nothing"):
            from pcimpute import nothing  # noqa: F401


def _environment(threads: str | None = None) -> dict[str, str]:
    """This process's environment with ``OPENBLAS_NUM_THREADS`` set to ``threads``, or unset.

    Importing ``pcimpute.cli`` here set the variable for every child, so a
    child that tests the default must not inherit it.
    """
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _child(code: str, threads: str | None = None) -> str:
    """Stripped stdout of ``python -c code`` in ``_environment(threads)``."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=_environment(threads),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
