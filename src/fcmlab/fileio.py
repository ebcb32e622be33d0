"""On-disk formats: design manifests, results, and row exports.

A design lives on disk as a JSON manifest naming one CSV per curve
(paths relative to the manifest) with scalar covariates inline. Every
JSON artifact carries a ``format_version`` field. All writers are
atomic, through :func:`fcmlab.util.atomic_write`: content goes to a
temporary file in the destination directory and is renamed into place,
so readers never observe partial output. The CSV writers here stream
one line at a time.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from fcmlab.designs import GeneratorSpec, NoiseSpec
from fcmlab.errors import FcmlabError, GridError, ValidationError
from fcmlab.estimator import FitResult
from fcmlab.grids import GridFunction, read_grid_csv, snap_to_index, write_grid_csv
from fcmlab.identifiability import DiagnosisReport
from fcmlab.model import CoefficientSet, Design, Observation
from fcmlab.util import atomic_write

__all__ = [
    "FORMAT_VERSION",
    "write_design",
    "read_design",
    "coefficients_to_dict",
    "coefficients_from_dict",
    "write_truth",
    "read_truth",
    "fit_payload",
    "write_fit_result",
    "diagnosis_payload",
    "write_diagnosis",
    "write_spectrum_csv",
    "write_residual_curves_csv",
    "write_flm_csv",
    "parse_simulation_spec",
    "read_simulation_spec",
]

FORMAT_VERSION = 1


def _write_json(path, payload: Mapping[str, Any]) -> None:
    atomic_write(path, [json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"])


def write_design(design: Design, out_dir) -> Path:
    """Write a design as ``manifest.json`` plus per-curve CSVs.

    Curves go to ``obs000/y.csv`` and ``obs000/x00.csv`` style paths
    under ``out_dir``; returns the manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    observations = []
    for i, obs in enumerate(design.observations):
        obs_dir = out_dir / f"obs{i:03d}"
        obs_dir.mkdir(exist_ok=True)
        y_rel = f"obs{i:03d}/y.csv"
        write_grid_csv(out_dir / y_rel, obs.y)
        x_rels = []
        for j, xj in enumerate(obs.x):
            x_rel = f"obs{i:03d}/x{j:02d}.csv"
            write_grid_csv(out_dir / x_rel, xj)
            x_rels.append(x_rel)
        observations.append({"y": y_rel, "x": x_rels, "z": list(obs.z)})
    manifest = {
        "format_version": FORMAT_VERSION,
        "step": design.step,
        "lags": list(design.lags),
        "observations": observations,
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def _require(mapping: Mapping[str, Any], key: str, kind, field: str, source) -> Any:
    if key not in mapping:
        raise ValidationError(f"missing required key {key!r}", source=source, field=field)
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(
                f"expected a number for {key!r}, got {type(value).__name__}",
                source=source,
                field=field,
            )
        return float(value)
    if not isinstance(value, kind):
        raise ValidationError(
            f"expected {kind.__name__} for {key!r}, got {type(value).__name__}",
            source=source,
            field=field,
        )
    return value


def read_design(manifest_path) -> Design:
    """Read and validate a design manifest and its curve CSVs."""
    manifest_path = Path(manifest_path)
    try:
        raw = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}", source=manifest_path) from None
    if not isinstance(raw, dict):
        raise ValidationError("manifest must be a JSON object", source=manifest_path)
    version = _require(raw, "format_version", int, "format_version", manifest_path)
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version}", source=manifest_path, field="format_version"
        )
    step = _require(raw, "step", float, "step", manifest_path)
    lags = _require(raw, "lags", list, "lags", manifest_path)
    entries = _require(raw, "observations", list, "observations", manifest_path)
    if not entries:
        raise ValidationError("no observations listed", source=manifest_path, field="observations")
    base = manifest_path.parent
    observations = []
    for i, entry in enumerate(entries):
        field = f"observations[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError("observation entry must be an object", source=manifest_path, field=field)
        y_rel = _require(entry, "y", str, f"{field}.y", manifest_path)
        x_rels = _require(entry, "x", list, f"{field}.x", manifest_path)
        z = entry.get("z", [])
        if not isinstance(z, list):
            raise ValidationError("z must be a list of numbers", source=manifest_path, field=f"{field}.z")
        try:
            y = read_grid_csv(base / y_rel)
            xs = tuple(read_grid_csv(base / rel) for rel in x_rels)
        except OSError as exc:
            raise ValidationError(f"cannot read curve file: {exc}", source=manifest_path, field=field) from None
        try:
            observations.append(Observation(y, xs, tuple(float(v) for v in z)))
        except FcmlabError as exc:
            raise ValidationError(str(exc), source=manifest_path, field=field) from None
    try:
        return Design(tuple(observations), tuple(float(a) for a in lags), step)
    except FcmlabError as exc:
        raise ValidationError(str(exc), source=manifest_path) from None


def coefficients_to_dict(coef: CoefficientSet) -> dict[str, Any]:
    return {
        "beta0": list(coef.beta0),
        "betas": [
            {"start": b.start, "step": b.step, "values": b.values.tolist()}
            for b in coef.betas
        ],
    }


def coefficients_from_dict(raw: Mapping[str, Any], source=None) -> CoefficientSet:
    beta0 = _require(raw, "beta0", list, "beta0", source)
    betas_raw = _require(raw, "betas", list, "betas", source)
    betas = []
    for j, b in enumerate(betas_raw):
        if not isinstance(b, dict):
            raise ValidationError("kernel entry must be an object", source=source, field=f"betas[{j}]")
        betas.append(
            GridFunction(
                _require(b, "start", float, f"betas[{j}].start", source),
                _require(b, "step", float, f"betas[{j}].step", source),
                np.asarray(_require(b, "values", list, f"betas[{j}].values", source), dtype=float),
            )
        )
    return CoefficientSet(tuple(float(v) for v in beta0), tuple(betas))


def write_truth(path, coef: CoefficientSet, simulation: Mapping[str, Any] | None = None) -> None:
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "beta_true": coefficients_to_dict(coef),
    }
    if simulation is not None:
        payload["simulation"] = dict(simulation)
    _write_json(path, payload)


def read_truth(path) -> CoefficientSet:
    raw = json.loads(Path(path).read_text())
    return coefficients_from_dict(raw.get("beta_true", {}), source=path)


def fit_payload(result: FitResult) -> dict[str, Any]:
    """JSON-ready view of a fit result.

    ``gram_condition`` is None (JSON ``null``) when it is infinite,
    that is when the smallest eigenvalue of ``G`` is nonpositive.
    """
    cond = result.gram_condition
    return {
        "format_version": FORMAT_VERSION,
        "solver_used": result.solver_used,
        "sse": result.sse_value,
        "gram_min_eigenvalue": result.gram_min_eigenvalue,
        "gram_max_eigenvalue": result.gram_max_eigenvalue,
        "gram_condition": None if np.isinf(cond) else cond,
        "truncation_rank": result.truncation_rank,
        "coefficients": coefficients_to_dict(result.coef),
    }


def write_fit_result(path, result: FitResult) -> None:
    _write_json(path, fit_payload(result))


def diagnosis_payload(report: DiagnosisReport) -> dict[str, Any]:
    """JSON-ready view of a diagnosis report."""
    covariates = []
    for i, row in enumerate(report.covariate_reports):
        for j, rep in enumerate(row):
            covariates.append(
                {
                    "observation": i,
                    "covariate": j,
                    "estimated_order": rep.estimated_order,
                    "residual": rep.residual,
                    "finite_dimensional": rep.finite_dimensional,
                    "recurrence_coeffs": None
                    if rep.recurrence_coeffs is None
                    else rep.recurrence_coeffs.tolist(),
                    "modes": None
                    if rep.modes is None
                    else [
                        {
                            "a": m.a,
                            "b": m.b,
                            "multiplicity": m.multiplicity,
                            "conjugate_pair": m.conjugate_pair,
                        }
                        for m in rep.modes
                    ],
                    "singular_values": rep.singular_values.tolist(),
                }
            )
    return {
        "format_version": FORMAT_VERSION,
        "tol": report.tol,
        "verdict": "identifiable" if report.identifiable else "non-identifiable",
        "numerical_rank": report.spectrum.numerical_rank,
        "block_size": report.spectrum.block_size,
        "eigenvalues": report.spectrum.eigenvalues.tolist(),
        "finite_dimensional_covariates": list(report.finite_dimensional),
        "covariates": covariates,
    }


def write_diagnosis(path, report: DiagnosisReport) -> None:
    _write_json(path, diagnosis_payload(report))


def write_spectrum_csv(path, values: np.ndarray) -> None:
    """Write a descending spectrum as ``index,sigma`` rows."""
    rows = (f"{k},{v:.17g}\n" for k, v in enumerate(np.asarray(values, dtype=float)))
    atomic_write(path, chain(["index,sigma\n"], rows))


def write_residual_curves_csv(path, report: DiagnosisReport) -> None:
    """Write every residual-vs-order curve as ``observation,covariate,K,residual``."""
    rows = (
        f"{i},{j},{K},{r:.17g}\n"
        for i, row in enumerate(report.covariate_reports)
        for j, rep in enumerate(row)
        for K, r in enumerate(rep.residual_curve)
    )
    atomic_write(path, chain(["observation,covariate,K,residual\n"], rows))


def write_flm_csv(path, data) -> None:
    """Write down-sampled rows: observation, l, y, scalars, then windows."""

    def lines():
        header = ["obs", "l", "y"]
        header += [f"z{k}" for k in range(data.d)]
        for j, win in enumerate(data.windows):
            header += [f"x{j}_u{m}" for m in range(win.shape[1])]
        yield ",".join(header) + "\n"
        for r in range(data.row_count):
            cells = [str(int(data.obs_index[r])), str(int(data.l_index[r])), f"{data.y[r]:.17g}"]
            cells += [f"{v:.17g}" for v in data.z[r]]
            for win in data.windows:
                cells += [f"{v:.17g}" for v in win[r]]
            yield ",".join(cells) + "\n"

    atomic_write(path, lines())


def parse_simulation_spec(raw: Mapping[str, Any], source=None):
    """Parse a simulation spec into generator inputs.

    Returns ``(cov_specs, beta_true, noise, n, seed)`` ready for
    :func:`fcmlab.designs.gen_design`. Lag kernels are given either as
    inline ``values`` arrays or as mode-family ``terms`` evaluated on
    the lag grid.
    """
    from fcmlab.designs import mode_family_values

    if not isinstance(raw, Mapping):
        raise ValidationError("simulation spec must be a JSON object", source=source)
    version = _require(raw, "format_version", int, "format_version", source)
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version}", source=source)
    step = _require(raw, "step", float, "step", source)
    T = _require(raw, "T", float, "T", source)
    n = _require(raw, "n", int, "n", source)
    seed = _require(raw, "seed", int, "seed", source)
    lags = _require(raw, "lags", list, "lags", source)
    cov_raw = _require(raw, "covariates", list, "covariates", source)
    if len(cov_raw) != len(lags):
        raise ValidationError(
            f"{len(cov_raw)} covariates for {len(lags)} lags", source=source, field="covariates"
        )
    cov_specs = []
    for j, entry in enumerate(cov_raw):
        if not isinstance(entry, dict):
            raise ValidationError("covariate entry must be an object", source=source, field=f"covariates[{j}]")
        kind = _require(entry, "kind", str, f"covariates[{j}].kind", source)
        cov_specs.append(
            GeneratorSpec(
                kind=kind,
                T=T,
                step=step,
                seed=int(entry.get("seed", seed + 97 * (j + 1))),
                params=entry.get("params", {}),
            )
        )
    beta0 = [float(v) for v in _require(raw, "beta0", list, "beta0", source)]
    betas_raw = _require(raw, "betas", list, "betas", source)
    if len(betas_raw) != len(lags):
        raise ValidationError(
            f"{len(betas_raw)} lag kernels for {len(lags)} lags", source=source, field="betas"
        )
    betas = []
    for j, (entry, alpha) in enumerate(zip(betas_raw, lags)):
        if not isinstance(entry, dict):
            raise ValidationError("kernel entry must be an object", source=source, field=f"betas[{j}]")
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or not np.isfinite(alpha):
            raise ValidationError(
                f"lag {alpha!r} is not a finite number", source=source, field=f"lags[{j}]"
            )
        try:
            m = snap_to_index(float(alpha) / step)
        except GridError:
            m = 0  # off the grid: rejected below like a nonpositive lag
        if m < 1:
            raise ValidationError(
                f"lag {alpha!r} is not a positive multiple of the step",
                source=source,
                field=f"lags[{j}]",
            )
        times = step * np.arange(m + 1)
        if "values" in entry:
            values = np.asarray(entry["values"], dtype=float)
            if values.size != m + 1:
                raise ValidationError(
                    f"kernel needs {m + 1} samples for lag {alpha!r}, got {values.size}",
                    source=source,
                    field=f"betas[{j}].values",
                )
        elif "terms" in entry:
            values = mode_family_values(entry["terms"], times)
        else:
            raise ValidationError(
                "kernel entry needs 'values' or 'terms'", source=source, field=f"betas[{j}]"
            )
        betas.append(GridFunction(0.0, step, values))
    noise_raw = raw.get("noise", {})
    if not isinstance(noise_raw, Mapping):
        raise ValidationError("noise must be an object", source=source, field="noise")
    noise = NoiseSpec(
        kind=str(noise_raw.get("kind", "white")),
        sd=float(noise_raw.get("sd", 0.0)),
        ar_coefficient=float(noise_raw.get("ar_coefficient", 0.0)),
    )
    beta_true = CoefficientSet(tuple(beta0), tuple(betas))
    return cov_specs, beta_true, noise, n, seed


def read_simulation_spec(path):
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}", source=path) from None
    return parse_simulation_spec(raw, source=path), raw
