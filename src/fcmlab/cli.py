"""Batch command line: simulate, fit, diagnose, downsample, reproduce.

Every command reads and writes files; stdout carries a single JSON
summary line on success and stderr carries a machine-readable JSON
error object on failure. All JSON is strict: no ``NaN`` or
``Infinity``. Exit codes: 0 success, 1 I/O or experiment failure, 2
validation error (including any other ``ValueError``), 3 near-singular
system without ``--allow-rank-deficient``.

Flags may also be supplied through ``--config file.json`` holding an
object keyed by :class:`RunConfig` field (dashes or underscores), each
value of that field's type and range; explicit flags win over
config-file values.

Each command imports the modules it runs inside its handler, so
``simulate``, ``downsample`` and ``reproduce --list`` load neither the
estimator nor the diagnostics. The runtime needs numpy alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from fcmlab import fileio
from fcmlab.errors import FcmlabError, NearSingularError, ValidationError, naming
from fcmlab.util import DEFAULT_RESIDUAL_TOL, DEFAULT_SVD_RTOL, json_value, read_json_object

__all__ = ["RunConfig", "main"]

_SOLVERS = {"direct": "direct", "svd": "truncated_svd", "ridge": "ridge"}


@dataclass
class RunConfig:
    """Resolved options of one command invocation."""

    command: str
    spec_path: str | None = None
    design_path: str | None = None
    out_path: str | None = None
    solver: str = "direct"
    lam: float = 0.0
    tol: float = DEFAULT_RESIDUAL_TOL
    svd_rel_tol: float = DEFAULT_SVD_RTOL
    seed: int | None = None
    U: float | None = None
    allow_rank_deficient: bool = False
    experiment: str | None = None
    list_experiments: bool = False
    spectrum_csv: str | None = None
    residuals_csv: str | None = None

    def validate(self) -> None:
        inputs = {p for p in (self.spec_path, self.design_path) if p}
        outputs = [p for p in (self.out_path, self.spectrum_csv, self.residuals_csv) if p]
        for out in outputs:
            if out in inputs:
                raise ValidationError(f"output path {out!r} collides with an input path")
        if len(outputs) != len(set(outputs)):
            raise ValidationError("output paths must be distinct")
        for f in fields(self):
            _check_option(f.name, getattr(self, f.name))


def _check_option(name: str, value) -> None:
    """Reject an out-of-range ``value`` of option ``name``, naming the option's flag.

    Only ``lam``, ``tol``, ``svd_rel_tol``, ``U`` and ``solver`` have a range.
    """
    if name == "lam" and not (math.isfinite(value) and value >= 0.0):
        raise ValidationError("--lambda must be finite and nonnegative", field="lambda")
    if name == "tol" and not 0.0 < value < 1.0:
        raise ValidationError("--tol must lie in (0, 1)", field="tol")
    if name == "svd_rel_tol" and not 0.0 < value <= 1.0:
        raise ValidationError("--svd-tol must lie in (0, 1]", field="svd-tol")
    if name == "U" and value is not None and not (math.isfinite(value) and value > 0.0):
        raise ValidationError("--U must be finite and positive", field="U")
    if name == "solver" and value not in _SOLVERS:
        raise ValidationError(
            f"unknown solver {value!r}, expected one of {sorted(_SOLVERS)}", field="solver"
        )


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")


def _cmd_simulate(config: RunConfig) -> int:
    from fcmlab.designs import gen_design

    if not config.spec_path or not config.out_path:
        raise ValidationError("simulate needs --spec and --out")
    parsed, raw = fileio.read_simulation_spec(config.spec_path, config.seed)
    cov_specs, beta_true, noise, n, seed = parsed
    with naming(config.spec_path):
        design, _ = gen_design(cov_specs, beta_true, noise, n, seed)
    out_dir = Path(config.out_path)
    truth = out_dir / "truth.json"
    # An old truth.json must not outlive a design write that fails midway.
    truth.unlink(missing_ok=True)
    manifest = fileio.write_design(design, out_dir)
    fileio.write_truth(truth, beta_true, simulation=raw)
    _emit(
        {
            "manifest": str(manifest),
            "truth": str(truth),
            "observations": design.n,
            "seed": seed,
        }
    )
    return 0


def _cmd_fit(config: RunConfig) -> int:
    from fcmlab.estimator import fit

    if not config.design_path or not config.out_path:
        raise ValidationError("fit needs --design and --out")
    design = fileio.read_design(config.design_path)
    with naming(config.design_path):
        result = fit(
            design,
            solver=_SOLVERS[config.solver],
            lam=config.lam,
            svd_rel_tol=config.svd_rel_tol,
            allow_rank_deficient=config.allow_rank_deficient,
        )
    fileio.write_fit_result(config.out_path, result)
    payload = fileio.fit_payload(result)
    summary = {k: payload[k] for k in ("solver_used", "sse", "gram_condition")}
    _emit({"out": config.out_path, **summary})
    return 0


def _cmd_diagnose(config: RunConfig) -> int:
    from fcmlab.identifiability import diagnose

    if not config.design_path or not config.out_path:
        raise ValidationError("diagnose needs --design and --out")
    design = fileio.read_design(config.design_path)
    with naming(config.design_path):
        report = diagnose(design, tol=config.tol)
    fileio.write_diagnosis(config.out_path, report)
    if config.spectrum_csv:
        fileio.write_spectrum_csv(config.spectrum_csv, report.spectrum.eigenvalues)
    if config.residuals_csv:
        fileio.write_residual_curves_csv(config.residuals_csv, report)
    _emit(
        {
            "out": config.out_path,
            "verdict": "identifiable" if report.identifiable else "non-identifiable",
            "numerical_rank": report.spectrum.numerical_rank,
            "block_size": report.spectrum.block_size,
        }
    )
    return 0


def _cmd_downsample(config: RunConfig) -> int:
    from fcmlab.downsample import to_flm

    if not config.design_path or not config.out_path:
        raise ValidationError("downsample needs --design and --out")
    if config.U is None:
        raise ValidationError("downsample needs --U")
    design = fileio.read_design(config.design_path)
    data = to_flm(design, config.U)
    fileio.write_flm_csv(config.out_path, data)
    _emit({"out": config.out_path, "rows": data.row_count})
    return 0


def _cmd_reproduce(config: RunConfig) -> int:
    from fcmlab.experiments import EXPERIMENT_NAMES, run_all, run_experiment

    if config.list_experiments:
        for name in EXPERIMENT_NAMES:
            sys.stdout.write(name + "\n")
        return 0
    if config.experiment is not None:
        if config.experiment not in EXPERIMENT_NAMES:
            raise ValidationError(
                f"unknown experiment {config.experiment!r}; "
                f"run `reproduce --list` for the registry",
                field="name",
            )
        results = [run_experiment(config.experiment)]
    else:
        results = run_all()
    ok = True
    for result in results:
        for line in result.lines():
            sys.stdout.write(line + "\n")
        ok = ok and result.passed
    return 0 if ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "diagnose": _cmd_diagnose,
    "downsample": _cmd_downsample,
    "reproduce": _cmd_reproduce,
}


def _error_json(exc: Exception) -> None:
    payload: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ValidationError):
        if exc.source is not None:
            payload["source"] = str(exc.source)
        if exc.line is not None:
            payload["line"] = exc.line
        if exc.field is not None:
            payload["field"] = exc.field
    if isinstance(exc, NearSingularError):
        payload["min_eigenvalue"] = exc.min_eig
        payload["max_eigenvalue"] = exc.max_eig
    sys.stderr.write(json.dumps(payload, allow_nan=False) + "\n")


class _Parser(argparse.ArgumentParser):
    """A parse error of any command (subparsers inherit the class) is a :class:`ValidationError`."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fcmlab",
        description="Convolution-model estimation and identifiability diagnostics "
        "on gridded functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file of default flag values (flags win)")

    p = sub.add_parser("simulate", help="generate a design from a simulation spec")
    add_common(p)
    p.add_argument("--spec", dest="spec_path", help="simulation spec JSON")
    p.add_argument("--out", dest="out_path", help="output directory for manifest and curves")
    p.add_argument("--seed", type=int, help="override the spec seed")

    p = sub.add_parser("fit", help="estimate coefficients from a design manifest")
    add_common(p)
    p.add_argument("--design", dest="design_path", help="design manifest JSON")
    p.add_argument("--out", dest="out_path", help="output fit JSON")
    p.add_argument("--solver", choices=sorted(_SOLVERS), help="direct, svd, or ridge")
    p.add_argument("--lambda", dest="lam", type=float, help="ridge penalty weight")
    p.add_argument("--svd-tol", dest="svd_rel_tol", type=float, help="relative rank cut")
    p.add_argument(
        "--allow-rank-deficient",
        action="store_true",
        default=None,
        help="fall back to the truncated solver instead of failing with exit 3",
    )

    p = sub.add_parser("diagnose", help="identifiability diagnosis of a design")
    add_common(p)
    p.add_argument("--design", dest="design_path", help="design manifest JSON")
    p.add_argument("--out", dest="out_path", help="output diagnosis JSON")
    p.add_argument("--tol", type=float, help="rank and residual detection tolerance")
    p.add_argument("--spectrum-csv", dest="spectrum_csv", help="also write the spectrum as CSV")
    p.add_argument(
        "--residuals-csv", dest="residuals_csv", help="also write residual-vs-order curves as CSV"
    )

    p = sub.add_parser("downsample", help="export the down-sampled row regression as CSV")
    add_common(p)
    p.add_argument("--design", dest="design_path", help="design manifest JSON")
    p.add_argument("--out", dest="out_path", help="output CSV")
    p.add_argument("--U", dest="U", type=float, help="sampling interval, a multiple of the step")

    p = sub.add_parser("reproduce", help="run named verification experiments")
    add_common(p)
    p.add_argument("--name", dest="experiment", help="experiment name (default: all)")
    p.add_argument("--list", dest="list_experiments", action="store_true", default=None)

    return parser


# Config-file keys are the RunConfig fields other than `command`, each
# with the type its annotation names first. JSON numbers (never
# booleans) become floats; `seed` must be a JSON integer.
_CONFIG_FIELDS = {
    f.name: {"str": str, "float": float, "int": int, "bool": bool}[f.type.split(" |")[0]]
    for f in fields(RunConfig)
    if f.name != "command"
}

_DEFAULTS = RunConfig(command="fit")


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge parsed flags over config-file values over built-in defaults."""
    file_values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        raw = read_json_object(config_path, "config file must hold a JSON object")
        with naming(config_path):
            for key, value in raw.items():
                name = key.replace("-", "_")
                kind = _CONFIG_FIELDS.get(name)
                if kind is None:
                    raise ValidationError(f"unknown config key {key!r}", field=key)
                file_values[name] = json_value(value, kind, key)
                _check_option(name, file_values[name])
    flags = {name: getattr(args, name, None) for name in _CONFIG_FIELDS}
    config = replace(_DEFAULTS, command=args.command, **file_values)
    return replace(config, **{name: v for name, v in flags.items() if v is not None})


def main(argv=None) -> int:
    """Run one command; report a failure as one JSON error object and an exit code."""
    try:
        config = _resolve(_build_parser().parse_args(argv))
        config.validate()
        return _COMMANDS[config.command](config)
    except (FcmlabError, ValueError, OSError) as exc:
        _error_json(exc)
        if isinstance(exc, NearSingularError):
            return 3
        return 1 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
