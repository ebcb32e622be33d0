"""End-to-end tests of the batch command line.

Everything goes through ``main(argv)`` so that flag parsing, config
merging, exit codes, and the stdout/stderr JSON contracts are all
exercised exactly as a shell user would hit them.
"""

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from fcmlab.cli import main
from fcmlab.experiments import EXPERIMENT_NAMES


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
        assert err["error"] == "ValueError"

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
