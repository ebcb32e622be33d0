"""End-to-end tests of the batch command line.

Everything goes through ``main(argv)`` so that flag parsing, config
merging, exit codes, and the stdout/stderr JSON contracts are all
exercised exactly as a shell user would hit them.
"""

import argparse
import contextlib
import copy
import functools
import io
import json
import operator
import os
import re
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmlab import fileio
from fcmlab.cli import _CONFIG_FIELDS, _build_parser, main
from fcmlab.estimator import assemble
from fcmlab.experiments import EXPERIMENT_NAMES
from fcmlab.fileio import read_design


def base_spec(**overrides):
    """A small noiseless simulation spec that fits cleanly."""
    spec = {
        "format_version": 1,
        "step": 0.125,
        "T": 1.5,
        "n": 3,
        "seed": 5,
        "lags": [0.5],
        "covariates": [
            {
                "kind": "filtered_noise",
                "params": {"n_modes": 64, "max_frequency": 4.0, "bandwidth": 0.05},
            }
        ],
        "beta0": [0.7, -0.3],
        "betas": [{"values": [0.0, 0.5, 1.0, 0.5, 0.0]}],
        "noise": {"kind": "white", "sd": 0.0},
    }
    spec.update(overrides)
    return spec


def write_spec(tmp_path: Path, name: str = "spec.json", **overrides) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(base_spec(**overrides)))
    return path


def simulate(tmp_path: Path, capsys, **overrides) -> Path:
    """Run the simulate command and return the manifest path."""
    spec = write_spec(tmp_path, **overrides)
    out_dir = tmp_path / "design"
    code = main(["simulate", "--spec", str(spec), "--out", str(out_dir)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    return Path(summary["manifest"])


def strict_json(text: str):
    """Parse ``text`` as RFC 8259 JSON, rejecting NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def single_error(capsys) -> dict:
    """The one JSON error object on stderr, with no traceback beside it."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    return strict_json(lines[0])


def deficient_overrides():
    """Spec overrides for a rank-deficient but penalizable design.

    A three-tone sinusoid observed through a 13-sample lag window has a
    kernel block of rank 7, so the direct solver must refuse it.
    """
    step = 1.0 / 16.0
    u = step * np.arange(13)
    return {
        "step": step,
        "T": 3.0,
        "n": 2,
        "seed": 7,
        "lags": [0.75],
        "covariates": [{"kind": "sinusoid_rich", "params": {"K": 3}}],
        "beta0": [0.5],
        "betas": [{"values": (np.sin(2.0 * np.pi * u) + 0.3).tolist()}],
        "noise": {"kind": "white", "sd": 0.05},
    }


class TestSimulateFitPipeline:
    def test_simulate_emits_manifest_and_truth(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out_dir = tmp_path / "design"
        assert main(["simulate", "--spec", str(spec), "--out", str(out_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["observations"] == 3
        assert summary["seed"] == 5
        assert Path(summary["manifest"]).is_file()
        assert Path(summary["truth"]).is_file()

    def test_fit_recovers_simulated_truth(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        fit_path = tmp_path / "fit.json"
        code = main(["fit", "--design", str(manifest), "--out", str(fit_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["solver_used"] == "direct"

        fit = json.loads(fit_path.read_text())
        truth = json.loads((manifest.parent / "truth.json").read_text())
        got = fit["coefficients"]
        want = truth["beta_true"]
        np.testing.assert_allclose(got["beta0"], want["beta0"], atol=1e-6)
        np.testing.assert_allclose(
            got["betas"][0]["values"], want["betas"][0]["values"], atol=1e-6
        )

    def test_fit_output_is_deterministic(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", "--design", str(manifest), "--out", str(a)]) == 0
        assert main(["fit", "--design", str(manifest), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_spec_seed(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--spec", str(spec), "--out", str(out_a), "--seed", "99"]) == 0
        seed_a = json.loads(capsys.readouterr().out)["seed"]
        assert main(["simulate", "--spec", str(spec), "--out", str(out_b)]) == 0
        assert seed_a == 99
        text_a = (out_a / "obs000" / "y.csv").read_text()
        text_b = (out_b / "obs000" / "y.csv").read_text()
        assert text_a != text_b


    def test_seed_flag_is_the_spec_with_that_seed(self, tmp_path, capsys):
        # --seed reseeds the covariates as well as the noise, and truth.json
        # records the spec that reproduces the design.
        flagged, edited = tmp_path / "flagged", tmp_path / "edited"
        spec = write_spec(tmp_path)
        assert main(["simulate", "--spec", str(spec), "--out", str(flagged), "--seed", "8"]) == 0
        spec = write_spec(tmp_path, "seed8.json", seed=8)
        assert main(["simulate", "--spec", str(spec), "--out", str(edited)]) == 0
        capsys.readouterr()
        files = sorted(p.relative_to(flagged) for p in flagged.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(edited) for p in edited.rglob("*") if p.is_file())
        assert {"manifest.json", "truth.json", "obs000/x00.csv"} <= {str(p) for p in files}
        for name in files:
            assert (flagged / name).read_bytes() == (edited / name).read_bytes(), name

    def test_negative_seed_flag_exits_2_naming_the_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out_dir = tmp_path / "design"
        code = main(["simulate", "--spec", str(spec), "--out", str(out_dir), "--seed", "-1"])
        err = single_error(capsys)
        assert code == 2
        assert (err["error"], err["field"], err["source"]) == ("ValidationError", "seed", str(spec))
        assert not out_dir.exists()


class TestDiagnoseCommand:
    def test_mode_limited_design_is_flagged(self, tmp_path, capsys):
        manifest = simulate(
            tmp_path,
            capsys,
            step=1.0 / 32.0,
            T=2.0,
            n=2,
            covariates=[{"kind": "orthogonal_counterexample", "params": {"K": 3}}],
            beta0=[0.2],
            betas=[{"values": [0.0] * 17}],
        )
        out = tmp_path / "diag.json"
        spectrum = tmp_path / "spectrum.csv"
        code = main(
            [
                "diagnose",
                "--design",
                str(manifest),
                "--out",
                str(out),
                "--spectrum-csv",
                str(spectrum),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "non-identifiable"
        assert summary["numerical_rank"] < summary["block_size"]
        assert json.loads(out.read_text())["verdict"] == "non-identifiable"
        assert spectrum.read_text().splitlines()[0] == "index,sigma"

    def test_broadband_design_is_identifiable(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--design", str(manifest), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "identifiable"


class TestDownsampleCommand:
    def test_writes_row_csv(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        out = tmp_path / "rows.csv"
        code = main(["downsample", "--design", str(manifest), "--U", "0.25", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        # (T - alpha*) / U + 1 = 1.0 / 0.25 + 1 rows per observation.
        assert summary["rows"] == 5 * 3
        lines = out.read_text().splitlines()
        assert len(lines) == 5 * 3 + 1
        assert lines[0].startswith("obs,l,y,")


class TestOutputFileModes:
    def test_every_output_follows_the_umask(self, tmp_path, capsys):
        # Outputs are created like a plain open(): mode 0o666 minus the umask.
        old = os.umask(0o022)
        try:
            manifest = simulate(tmp_path, capsys)
            out = tmp_path / "out"
            out.mkdir()
            commands = [
                ["fit", "--design", str(manifest), "--out", str(out / "fit.json")],
                [
                    "diagnose",
                    "--design",
                    str(manifest),
                    "--out",
                    str(out / "diagnosis.json"),
                    "--spectrum-csv",
                    str(out / "spectrum.csv"),
                    "--residuals-csv",
                    str(out / "residuals.csv"),
                ],
                ["downsample", "--design", str(manifest), "--U", "0.25", "--out", str(out / "rows.csv")],
            ]
            for argv in commands:
                assert main(argv) == 0
        finally:
            os.umask(old)
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p.name != "spec.json"]
        names = {p.name for p in written}
        assert {"manifest.json", "truth.json", "y.csv", "x00.csv", "fit.json", "rows.csv"} <= names
        assert {"diagnosis.json", "spectrum.csv", "residuals.csv"} <= names
        modes = {str(p.relative_to(tmp_path)): stat.S_IMODE(p.stat().st_mode) for p in written}
        assert modes == {name: 0o644 for name in modes}


class TestRankDeficientExit:
    def test_direct_solver_refuses_with_exit_3(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys, **deficient_overrides())
        fit_path = tmp_path / "fit.json"
        code = main(["fit", "--design", str(manifest), "--out", str(fit_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"] == "NearSingularError"
        assert "min_eigenvalue" in err
        assert not fit_path.exists()

    def test_allow_flag_falls_back_to_truncation(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys, **deficient_overrides())
        fit_path = tmp_path / "fit.json"
        code = main(
            [
                "fit",
                "--design",
                str(manifest),
                "--out",
                str(fit_path),
                "--allow-rank-deficient",
            ]
        )
        assert code == 0
        payload = json.loads(fit_path.read_text())
        assert payload["solver_used"] == "truncated_svd"
        assert payload["truncation_rank"] < len(payload["coefficients"]["betas"][0]["values"]) + 1

    def test_infinite_condition_is_written_as_null(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys, **deficient_overrides())
        fit_path = tmp_path / "fit.json"
        code = main(["fit", "--design", str(manifest), "--out", str(fit_path), "--solver", "svd"])
        assert code == 0
        summary = strict_json(capsys.readouterr().out)
        payload = strict_json(fit_path.read_text())
        assert payload["gram_min_eigenvalue"] <= 0.0
        assert summary["gram_condition"] is None
        assert payload["gram_condition"] is None


    @pytest.mark.parametrize("extra", [[], ["--allow-rank-deficient"]])
    def test_singular_ridge_system_exits_3_or_falls_back(self, tmp_path, capsys, extra):
        manifest = simulate(tmp_path, capsys, **deficient_overrides())
        fit_path = tmp_path / "fit.json"
        args = ["--design", str(manifest), "--out", str(fit_path), "--solver", "ridge"]
        code = main(["fit", *args, "--lambda", "0", *extra])
        if not extra:
            err = single_error(capsys)
            assert code == 3
            assert err["error"] == "NearSingularError"
            assert err["min_eigenvalue"] <= 1e-12 * err["max_eigenvalue"]
            assert not fit_path.exists()
        else:
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err == ""
            assert strict_json(captured.out)["solver_used"] == "truncated_svd"


class TestFitExtremes:
    @pytest.mark.parametrize("solver", ["direct", "svd", "ridge"])
    def test_extremes_are_the_ends_of_the_weighted_spectrum(self, tmp_path, capsys, solver):
        manifest = simulate(tmp_path, capsys)
        fit_path = tmp_path / "fit.json"
        args = ["--design", str(manifest), "--out", str(fit_path), "--solver", solver]
        assert main(["fit", *args, "--lambda", "1e-6"]) == 0
        payload = json.loads(fit_path.read_text())
        system = assemble(read_design(manifest))
        S = np.sqrt(system.weights)
        evals = scipy.linalg.eigvalsh(system.G / np.outer(S, S))
        assert payload["gram_min_eigenvalue"] == pytest.approx(evals[0], rel=1e-9)
        assert payload["gram_max_eigenvalue"] == pytest.approx(evals[-1], rel=1e-12)
        assert payload["gram_condition"] == pytest.approx(evals[-1] / evals[0], rel=1e-9)


class TestToleranceFlags:
    def test_svd_tol_one_keeps_a_single_mode(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        fit_path = tmp_path / "fit.json"
        args = ["--design", str(manifest), "--out", str(fit_path), "--solver", "svd"]
        code = main(["fit", *args, "--svd-tol", "1.0"])
        assert code == 0
        assert json.loads(fit_path.read_text())["truncation_rank"] == 1

    def test_svd_tol_refuses_a_full_rank_design(self, tmp_path, capsys):
        # The same design fits with the default cut
        # (test_fit_recovers_simulated_truth).
        manifest = simulate(tmp_path, capsys)
        fit_path = tmp_path / "fit.json"
        args = ["--design", str(manifest), "--out", str(fit_path)]
        code = main(["fit", *args, "--solver", "direct", "--svd-tol", "0.5"])
        err = single_error(capsys)
        assert code == 3
        assert err["error"] == "NearSingularError"
        assert not fit_path.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--svd-tol", "nan"], "svd-tol"),
            (["--svd-tol", "0"], "svd-tol"),
            (["--svd-tol", "1.5"], "svd-tol"),
            (["--solver", "ridge", "--lambda", "inf"], "lambda"),
            (["--solver", "ridge", "--lambda", "nan"], "lambda"),
        ],
    )
    def test_out_of_range_solver_flag_exits_2(self, tmp_path, capsys, flags, field):
        # On this rank-deficient design a NaN --svd-tol must not pass as
        # a rank cut that refuses nothing.
        manifest = simulate(tmp_path, capsys, **deficient_overrides())
        fit_path = tmp_path / "fit.json"
        code = main(["fit", "--design", str(manifest), "--out", str(fit_path), *flags])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == field
        assert "Warning" not in err["message"]
        assert not fit_path.exists()


class TestConfigFile:
    def test_config_supplies_missing_flags(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        fit_path = tmp_path / "fit.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "design_path": str(manifest),
                    "out_path": str(fit_path),
                    "solver": "ridge",
                    "lam": 1e-8,
                }
            )
        )
        assert main(["fit", "--config", str(cfg)]) == 0
        assert json.loads(fit_path.read_text())["solver_used"] == "ridge"

    def test_explicit_flags_beat_config_values(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        cfg_out = tmp_path / "cfg_fit.json"
        flag_out = tmp_path / "flag_fit.json"
        cfg = tmp_path / "cfg.json"
        # Dashed keys are accepted as spelled in the flag names.
        cfg.write_text(
            json.dumps({"design-path": str(manifest), "out-path": str(cfg_out), "solver": "direct"})
        )
        code = main(["fit", "--config", str(cfg), "--solver", "svd", "--out", str(flag_out)])
        assert code == 0
        assert not cfg_out.exists()
        assert json.loads(flag_out.read_text())["solver_used"] == "truncated_svd"

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["fit", "--config", str(cfg)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["field"] == "bogus"

    def test_solver_from_config_is_still_validated(self, tmp_path, capsys):
        # argparse guards the --solver flag, so a bad name can only
        # arrive through the config file; it must still exit 2.
        manifest = simulate(tmp_path, capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "cholesky"}))
        code = main(
            [
                "fit",
                "--config",
                str(cfg),
                "--design",
                str(manifest),
                "--out",
                str(tmp_path / "f.json"),
            ]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["field"] == "solver"


    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("fit", "lam", [1]),
            ("fit", "lam", float("nan")),
            ("fit", "allow_rank_deficient", "false"),
            ("simulate", "seed", 1.5),
            ("fit", "design_path", "design\0.json"),
            ("fit", "out_path", "fit\0.json"),
            ("simulate", "spec_path", "spec\0.json"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(cfg)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == key

    @pytest.mark.parametrize("overridden", [False, True])
    @pytest.mark.parametrize(
        "command, key, value, flag, field, message",
        [
            ("diagnose", "tol", 2, ["--tol", "0.5"], "tol", "--tol must lie in (0, 1)"),
            ("fit", "solver", "x", ["--solver", "svd"], "solver", "unknown solver 'x'"),
            ("fit", "lam", -1, ["--lambda", "0"], "lambda", "--lambda must be finite and nonnegative"),
            ("fit", "svd_rel_tol", 0, ["--svd-tol", "0.5"], "svd-tol", "--svd-tol must lie in (0, 1]"),
            ("downsample", "U", 0, ["--U", "0.25"], "U", "--U must be finite and positive"),
        ],
    )
    def test_config_value_out_of_range_exits_2_naming_the_config(
        self, tmp_path, capsys, command, key, value, flag, field, message, overridden
    ):
        # The value is checked as the file is read, with the flag's message
        # and field, so a flag that overrides it does not hide it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(cfg), *(flag if overridden else [])])
        err = single_error(capsys)
        assert code == 2
        assert (err["error"], err["field"], err["source"]) == ("ValidationError", field, str(cfg))
        assert message in err["message"]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--bogus", "1"],
            ["fit", "--svd-tol", "abc"],
            ["fit", "--pivot-tol", "1e-12"],
            ["fit", "--solver", "cholesky"],
            [],
        ],
    )
    def test_parser_error_is_one_json_object_and_exit_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert strict_json(lines[0])["error"] == "ValidationError"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "--svd-tol" in capsys.readouterr().out

    def test_removed_pivot_tol_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pivot_tol": 1e-12}))
        code = main(["fit", "--config", str(cfg)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == "pivot_tol"


class TestErrorReporting:
    def test_tampered_curve_reports_line_number(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        y_path = manifest.parent / "obs000" / "y.csv"
        lines = y_path.read_text().splitlines()
        t, v = lines[2].split(",")
        lines[2] = f"{float(t) + 0.011},{v}"
        y_path.write_text("\n".join(lines) + "\n")

        code = main(["fit", "--design", str(manifest), "--out", str(tmp_path / "f.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err.get("line") is not None

    @pytest.mark.parametrize("lag", [0.3, 0.0, "abc"])
    def test_lag_off_the_step_grid_exits_2(self, tmp_path, capsys, lag):
        spec = write_spec(tmp_path, lags=[lag])
        code = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "design")])
        err = single_error(capsys)
        assert code == 2
        assert err["field"] == "lags[0]"

    def test_non_numeric_generator_parameter_exits_2(self, tmp_path, capsys):
        covariates = [{"kind": "filtered_noise", "params": {"n_modes": "abc"}}]
        spec = write_spec(tmp_path, covariates=covariates)
        code = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "design")])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == "covariates[0].params.n_modes"

        # A non-object params entry is rejected by the spec parser.
        covariates = [{"kind": "filtered_noise", "params": [1]}]
        spec = write_spec(tmp_path, "list_params.json", covariates=covariates)
        code = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "design")])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == "covariates[0].params"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"T": float("inf")}, "T"),
            ({"lags": [float("inf")]}, "lags[0]"),
            ({"noise": {"kind": "white", "sd": float("nan")}}, "noise.sd"),
            ({"beta0": [float("nan"), -0.3]}, "beta0[0]"),
            ({"betas": [{"values": [0.0, 0.5, float("-inf"), 0.5, 0.0]}]}, "betas[0].values[2]"),
            (
                {"covariates": [{"kind": "filtered_noise", "params": {"max_frequency": float("nan")}}]},
                "covariates[0].params.max_frequency",
            ),
            ({"seed": 10**400}, "seed"),
        ],
    )
    def test_non_finite_spec_number_exits_2_and_writes_nothing(
        self, tmp_path, capsys, overrides, field
    ):
        spec = write_spec(tmp_path, **overrides)
        out_dir = tmp_path / "design"
        code = main(["simulate", "--spec", str(spec), "--out", str(out_dir)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == field
        assert "not a finite number" in err["message"]
        assert not out_dir.exists()

    def test_infinite_manifest_lag_exits_2(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        raw = json.loads(manifest.read_text())
        raw["lags"] = [float("inf")]
        manifest.write_text(json.dumps(raw))
        fit_path = tmp_path / "f.json"
        code = main(["fit", "--design", str(manifest), "--out", str(fit_path)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert not fit_path.exists()

    @pytest.mark.parametrize("command", ["fit", "diagnose", "downsample"])
    @pytest.mark.parametrize(
        "key, text, field",
        [
            ("z", "[null]", "observations[0].z[0]"),
            ("z", "[[1]]", "observations[0].z[0]"),
            ("z", "[true]", "observations[0].z[0]"),
            ("z", '["nan"]', "observations[0].z[0]"),
            ("z", "[1e400]", "observations[0].z[0]"),
            ("lags", "[null, 1.0]", "lags[0]"),
            ("x", "[5]", "observations[0].x[0]"),
            ("x", "[null]", "observations[0].x[0]"),
            ("x", '[["obs000/x00.csv"]]', "observations[0].x[0]"),
            ("x", '["obs000/x00\\u0000.csv"]', "observations[0].x[0]"),
            ("y", '"obs000/y\\u0000.csv"', "observations[0].y"),
        ],
    )
    def test_manifest_entry_of_the_wrong_type_exits_2(
        self, tmp_path, capsys, command, key, text, field
    ):
        # The entry goes into the manifest as raw JSON text, so 1e400
        # reaches the parser as written.
        manifest = simulate(tmp_path, capsys)
        raw = json.loads(manifest.read_text())
        (raw if key == "lags" else raw["observations"][0])[key] = "@entry@"
        manifest.write_text(json.dumps(raw).replace('"@entry@"', text))
        out = tmp_path / "out.json"
        extra = ["--U", "0.25"] if command == "downsample" else []
        code = main([command, "--design", str(manifest), "--out", str(out), *extra])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == field
        assert not out.exists()

    def test_interrupted_rerun_leaves_no_manifest_or_truth(self, tmp_path, capsys, monkeypatch):
        # A rerun into a used directory that fails on its third curve has
        # rewritten two curves; the old manifest must not name them beside
        # the old ones.
        manifest = simulate(tmp_path, capsys)
        truth = manifest.parent / "truth.json"
        assert truth.exists()
        written = []
        write_grid_csv = fileio.write_grid_csv

        def fail_third(path, f):
            written.append(path)
            if len(written) == 3:
                raise OSError("no space left on device")
            write_grid_csv(path, f)

        monkeypatch.setattr(fileio, "write_grid_csv", fail_third)
        spec = write_spec(tmp_path, "rerun.json", seed=6)
        code = main(["simulate", "--spec", str(spec), "--out", str(manifest.parent)])
        assert code == 1
        assert single_error(capsys)["error"] == "OSError"
        assert len(written) == 3
        assert not manifest.exists()
        assert not truth.exists()
        with pytest.raises(OSError):
            read_design(manifest)
        code = main(["fit", "--design", str(manifest), "--out", str(tmp_path / "f.json")])
        assert code == 1
        assert single_error(capsys)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"n": True}, "n"),
            ({"seed": True}, "seed"),
            ({"format_version": True}, "format_version"),
            ({"covariates": [{"kind": "filtered_noise", "seed": True}]}, "covariates[0].seed"),
            ({"covariates": [{"kind": "filtered_noise", "seed": 1.5}]}, "covariates[0].seed"),
        ],
    )
    def test_spec_integer_that_is_not_an_integer_exits_2(self, tmp_path, capsys, overrides, field):
        spec = write_spec(tmp_path, **overrides)
        out_dir = tmp_path / "design"
        code = main(["simulate", "--spec", str(spec), "--out", str(out_dir)])
        err = single_error(capsys)
        assert code == 2
        assert err["field"] == field
        assert "expected an integer" in err["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"beta0": [None, -0.3]}, "beta0[0]"),
            ({"beta0": [True, -0.3]}, "beta0[0]"),
            ({"betas": [{"values": [0.0, None, 1.0, 0.5, 0.0]}]}, "betas[0].values[1]"),
            ({"betas": [{"values": [0.0, "1", 1.0, 0.5, 0.0]}]}, "betas[0].values[1]"),
            ({"betas": [{"values": 3}]}, "betas[0].values"),
            ({"betas": [{"terms": 3}]}, "betas[0].terms"),
            ({"betas": [{"terms": [1.0]}]}, "betas[0].terms[0]"),
            ({"betas": [{"terms": [{"c": None}]}]}, "betas[0].terms[0].c"),
            ({"betas": [{"terms": [{"a": "0"}]}]}, "betas[0].terms[0].a"),
            ({"betas": [{"terms": [{"m": 1.5}]}]}, "betas[0].terms[0].m"),
            ({"betas": [{"terms": [{"m": True}]}]}, "betas[0].terms[0].m"),
            ({"noise": {"kind": "white", "sd": None}}, "noise.sd"),
            ({"noise": {"kind": "ar1", "sd": 0.1, "ar_coefficient": None}}, "noise.ar_coefficient"),
            ({"noise": {"kind": 1, "sd": 0.1}}, "noise.kind"),
            (
                {"covariates": [{"kind": "filtered_noise", "params": {"n_modes": None}}]},
                "covariates[0].params.n_modes",
            ),
            (
                {"covariates": [{"kind": "filtered_noise", "params": {"n_modes": 2.7}}]},
                "covariates[0].params.n_modes",
            ),
            (
                {"covariates": [{"kind": "filtered_noise", "params": {"bandwidth": "0.1"}}]},
                "covariates[0].params.bandwidth",
            ),
            (
                {"covariates": [{"kind": "filtered_noise", "params": {"max_frequency": -1.0}}]},
                "covariates[0].params.max_frequency",
            ),
            ({"covariates": [{"kind": "sinusoid_rich", "params": {"K": None}}]}, "covariates[0].params.K"),
            (
                {"covariates": [{"kind": "sinusoid_rich", "params": {"K": 2, "amplitudes": [1.0, None]}}]},
                "covariates[0].params.amplitudes[1]",
            ),
            (
                {"covariates": [{"kind": "self_similar", "params": {"terms": [{"m": 0.5}]}}]},
                "covariates[0].params.terms[0].m",
            ),
            ({"noise": {"kind": "white", "sd": -1.0}}, "noise.sd"),
            ({"noise": {"kind": "ar1", "sd": 0.1, "ar_coefficient": 1.5}}, "noise.ar_coefficient"),
            ({"covariates": [{"kind": "sinusoid_rich", "params": {"K": 0}}]}, "covariates[0].params.K"),
            ({"covariates": [{"kind": "bogus"}]}, "covariates[0].kind"),
            ({"step": -0.125}, "step"),
            ({"lags": [], "covariates": [], "betas": []}, "lags"),
            ({"lags": [], "covariates": [], "betas": [], "step": -0.125}, "step"),
            ({"lags": [], "covariates": [], "betas": [], "step": 0.0}, "step"),
            ({"T": 1.55}, "T"),
            ({"covariates": [{"kind": "orthogonal_counterexample"}]}, "T"),
            ({"n": 0}, "n"),
            ({"T": 0.5}, "T"),
            ({"beta0": []}, "beta0"),
            ({"seed": -1}, "seed"),
            ({"covariates": [{"kind": "filtered_noise", "seed": -5}]}, "covariates[0].seed"),
            # Grids of 8e14 samples or more at step 0.125, far beyond any
            # address space, so their allocation fails at once.
            ({"T": 1e14}, "T"),
            ({"T": 1e300}, "T"),
            (
                {
                    "lags": [1e14, 1.0],
                    "covariates": [{"kind": "sinusoid_rich"}, {"kind": "sinusoid_rich"}],
                    "betas": [{"terms": [{}]}, {"terms": [{}]}],
                },
                "lags[0]",
            ),
        ],
    )
    def test_spec_entry_of_the_wrong_type_exits_2_and_writes_nothing(
        self, tmp_path, capsys, overrides, field
    ):
        spec = write_spec(tmp_path, **overrides)
        out_dir = tmp_path / "design"
        code = main(["simulate", "--spec", str(spec), "--out", str(out_dir)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == field
        assert err["source"] == str(spec)
        assert not out_dir.exists()

    @pytest.mark.parametrize("curve, entry", [("y.csv", "nan"), ("x00.csv", "inf")])
    def test_non_finite_sample_exits_2_naming_the_line(self, tmp_path, capsys, curve, entry):
        manifest = simulate(tmp_path, capsys)
        path = manifest.parent / "obs000" / curve
        lines = path.read_text().splitlines()
        t, _ = lines[8].split(",")
        lines[8] = f"{t},{entry}"
        path.write_text("\n".join(lines) + "\n")

        code = main(["fit", "--design", str(manifest), "--out", str(tmp_path / "f.json")])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["line"] == 9
        assert err["source"].endswith(curve)

    @pytest.mark.parametrize(
        "curve, argv",
        [
            ("x00.csv", ["fit", "--solver", "svd"]),
            ("x00.csv", ["diagnose"]),
            ("y.csv", ["fit", "--solver", "ridge", "--lambda", "1e-6"]),
        ],
    )
    def test_sample_that_overflows_when_squared_exits_2_naming_the_manifest(self, tmp_path, capsys, curve, argv):
        manifest = simulate(tmp_path, capsys)
        path = manifest.parent / "obs000" / curve
        lines = path.read_text().splitlines()
        t, _ = lines[8].split(",")
        lines[8] = f"{t},1e200"
        path.write_text("\n".join(lines) + "\n")

        code = main([argv[0], "--design", str(manifest), "--out", str(tmp_path / "out.json"), *argv[1:]])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["source"] == str(manifest)
        assert "overflow" in err["message"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("kind", ["curve", "manifest", "spec", "config"])
    def test_undecodable_input_exits_2_naming_its_file_and_line(self, tmp_path, capsys, kind):
        manifest = simulate(tmp_path, capsys)
        spec, config = tmp_path / "spec.json", tmp_path / "cfg.json"
        spec.write_text(json.dumps(base_spec(), indent=1))
        config.write_text(json.dumps({"solver": "svd"}, indent=1))
        bad = {"curve": manifest.parent / "obs001" / "y.csv", "manifest": manifest, "spec": spec, "config": config}[kind]
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
        if kind == "spec":
            argv = ["simulate", "--spec", str(spec), "--out", str(tmp_path / "again")]
        else:
            argv = ["fit", "--design", str(manifest), "--out", str(tmp_path / "f.json")]

        code = main([*argv, "--config", str(config)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["source"] == str(bad)
        assert err["line"] == 2

    @pytest.mark.parametrize("kind", ["manifest", "spec", "config"])
    def test_deeply_nested_json_exits_2_naming_its_file(self, tmp_path, capsys, kind):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        out = str(tmp_path / "out")
        argv = {
            "manifest": ["fit", "--design", str(deep), "--out", out],
            "spec": ["simulate", "--spec", str(deep), "--out", out],
            "config": ["fit", "--config", str(deep)],
        }[kind]
        code = main(argv)
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["source"] == str(deep)

    def test_output_colliding_with_input_exits_2(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        code = main(["fit", "--design", str(manifest), "--out", str(manifest)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert "collides" in err["message"]

    def test_tolerance_out_of_range_exits_2(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        code = main(
            [
                "diagnose",
                "--design",
                str(manifest),
                "--out",
                str(tmp_path / "d.json"),
                "--tol",
                "1.5",
            ]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["field"] == "tol"

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        manifest = simulate(tmp_path, capsys)
        missing = tmp_path / "no_such_dir" / "fit.json"
        code = main(["fit", "--design", str(manifest), "--out", str(missing)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("U", ["nan", "inf"])
    def test_non_finite_sampling_interval_exits_2(self, tmp_path, capsys, U):
        # The manifest does not exist: --U is refused before it is read.
        out = tmp_path / "rows.csv"
        code = main(["downsample", "--design", str(tmp_path / "nowhere.json"), "--U", U, "--out", str(out)])
        err = single_error(capsys)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == "U"
        assert not out.exists()

    def test_missing_manifest_is_an_io_error(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--design",
                str(tmp_path / "nowhere.json"),
                "--out",
                str(tmp_path / "f.json"),
            ]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "FileNotFoundError"


# Values swapped into a mutated JSON entry: every JSON type, a NUL byte,
# and only small numbers, since a huge `T` or `n_modes` asks for
# gigabytes and no check bounds the size of a design.
_SWAPS = [None, "", "x", "a\0b", [], {}, True, 0, 1, -1, 0.5, 2]
# Cells swapped into a mutated curve CSV line; "1e200" is finite but
# overflows where it is squared.
_CELLS = ["", "x", "nan", "inf", "1e400", "1e200", "a\0b", '"1"', "-1"]
# Errors across options (a missing "needs --flag" option, colliding
# output paths) name no file; every other exit-2 error names its input.
_OPTION_MESSAGES = re.compile(r" needs --|collides with an input path|must be distinct")


def _json_paths(doc, prefix=()):
    """Every path (a tuple of keys and indices) into the parsed JSON ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def mutated_json(draw, doc):
    """``doc`` with one to three entries dropped, negated or swapped for another value."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        *at, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, at, doc)
        op = draw(st.sampled_from(["drop", "negate", "swap"]))
        if op == "drop":
            del parent[key]
        elif op == "negate" and isinstance(parent[key], (int, float)):
            parent[key] = -parent[key] if not isinstance(parent[key], bool) else not parent[key]
        else:
            parent[key] = draw(st.sampled_from(_SWAPS))
    return doc


@st.composite
def mutated_csv(draw, text):
    """``text`` with one to three lines dropped, repeated or given a swapped cell."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "cell"]))
        if op == "drop" and len(lines) > 1:
            del lines[k]
        elif op == "repeat":
            lines.insert(k, lines[k])
        else:
            cells = lines[k].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CELLS))
            lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small spec and the design it simulates, for :class:`TestMutatedInputs` to mutate."""
    base = tmp_path_factory.mktemp("fuzz_base")
    spec = base_spec(covariates=[{"kind": "filtered_noise", "seed": 7, "params": {"n_modes": 8}}])
    (base / "spec.json").write_text(json.dumps(spec))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--spec", str(base / "spec.json"), "--out", str(base / "design")]) == 0
    return spec, base / "design"


class TestMutatedInputs:
    """Fuzz the CLI contract over mutated specs, manifests, config files and curve CSVs."""

    @pytest.mark.parametrize("kind", ["spec", "manifest", "config", "curve"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_every_input_gets_one_json_line_and_a_contract_exit(self, tmp_path_factory, fuzz_inputs, kind, data):
        spec, design = fuzz_inputs
        work = tmp_path_factory.mktemp("fuzz")
        shutil.copytree(design, work / "design")
        manifest = work / "design" / "manifest.json"
        fit = ["fit", "--design", str(manifest), "--out", "out.json"]
        if kind == "spec":
            (work / "spec.json").write_text(json.dumps(data.draw(mutated_json(spec))))
            argv = ["simulate", "--spec", "spec.json", "--out", "sim"]
        elif kind == "manifest":
            manifest.write_text(json.dumps(data.draw(mutated_json(json.loads(manifest.read_text())))))
            argv = data.draw(st.sampled_from([fit, ["diagnose", *fit[1:]], ["downsample", *fit[1:], "--U", "0.25"]]))
        elif kind == "config":
            (work / "spec.json").write_text(json.dumps(spec))
            configs = [
                ("simulate", {"spec_path": "spec.json", "out_path": "sim", "seed": 3}),
                ("fit", {"design-path": str(manifest), "out_path": "out.json", "solver": "svd", "svd-tol": 1e-10}),
                ("fit", {"design_path": str(manifest), "out_path": "out.json", "solver": "ridge", "lam": 1e-6}),
            ]
            command, config = data.draw(st.sampled_from(configs))
            (work / "cfg.json").write_text(json.dumps(data.draw(mutated_json(config))))
            argv = [command, "--config", "cfg.json"]
        else:
            curve = data.draw(st.sampled_from(sorted(manifest.parent.rglob("*.csv"))))
            curve.write_text(data.draw(mutated_csv(curve.read_text())))
            argv = data.draw(st.sampled_from([fit, ["diagnose", *fit[1:]]]))
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)

        assert code in (0, 1, 2, 3)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        lines = (out if code == 0 else err).getvalue().splitlines()
        assert len(lines) == 1 and not (err if code == 0 else out).getvalue()
        payload = strict_json(lines[0])
        if code == 2:
            assert "source" in payload or _OPTION_MESSAGES.search(payload["message"]), payload
        if code != 0 and argv[0] == "simulate":
            assert [path for path in work.rglob("manifest.json") if path != manifest] == []


class TestReproduceCommand:
    def test_list_prints_the_registry(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        assert capsys.readouterr().out.splitlines() == list(EXPERIMENT_NAMES)

    def test_single_experiment_passes(self, capsys):
        code = main(["reproduce", "--name", "gram-positivity"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_unknown_name_exits_2(self, capsys):
        code = main(["reproduce", "--name", "no-such-check"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["field"] == "name"


class TestReadme:
    """The README documents exactly the options the command line has."""

    README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def commands(self):
        (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def flags(self, command):
        return {f for a in self.commands()[command]._actions for f in a.option_strings if f.startswith("--")}

    def test_config_key_list_is_the_config_fields(self):
        start = self.README.index("keyed by option name")
        listed = re.findall(r"`([A-Za-z_]+)`", self.README[start : self.README.index("Each value must", start)])
        assert sorted(listed) == sorted(_CONFIG_FIELDS)

    def test_every_fit_and_diagnose_flag_is_documented(self):
        missing = {f for c in ("fit", "diagnose") for f in self.flags(c) - {"--help"} if f not in self.README}
        assert missing == set()

    def test_every_documented_flag_exists(self):
        known = set().union(*(self.flags(c) for c in self.commands()))
        cli_docs = self.README[self.README.index("## Command line") :]
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_docs)) - known == set()
