"""On-disk formats: design manifests, results, and row exports.

A design lives on disk as a JSON manifest naming one CSV per curve
(paths relative to the manifest) with scalar covariates inline. Every
JSON file carries a ``format_version``: :data:`FORMAT_VERSION` for
inputs (manifests, specs), :data:`ARTIFACT_VERSION` for results. All
writers are atomic, through :func:`fcmlab.util.atomic_write`: content
goes to a temporary file in the destination directory and is renamed
into place, so readers never observe partial output. Every CSV but the row export
goes through :func:`fcmlab.util.write_csv`, which streams its rows in
blocks; :func:`write_flm_csv` streams the same bytes but formats each
observation's segment of each covariate curve once and cuts every row's
delay window out of that text, so no sample is formatted twice.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from fcmlab.designs import GENERATOR_KINDS, GeneratorSpec, NoiseSpec, generator_params, mode_family_values
from fcmlab.errors import FcmlabError, GridError, ValidationError
from fcmlab.grids import GridFunction, read_grid_csv, snap_to_index, write_grid_csv
from fcmlab.model import CoefficientSet, Design, Observation, RowSet
from fcmlab.util import (
    CELL_FORMAT,
    atomic_write,
    block_rows,
    json_entry,
    json_value,
    read_json_object,
    reject_non_finite,
    write_csv,
)

if TYPE_CHECKING:
    from fcmlab.estimator import FitResult
    from fcmlab.identifiability import DiagnosisReport

__all__ = [
    "FORMAT_VERSION",
    "ARTIFACT_VERSION",
    "write_design",
    "read_design",
    "coefficients_to_dict",
    "coefficients_from_dict",
    "write_truth",
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
# 2: fit.json's eigenvalues are of the weighted normal matrix; 3: a curve
# certified broadband has a null order, residual and singular values.
ARTIFACT_VERSION = 3


def _write_json(path, payload: Mapping[str, Any]) -> None:
    atomic_write(path, [json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"])


def write_design(design: Design, out_dir) -> Path:
    """Write a design as ``manifest.json`` plus per-curve CSVs.

    Curves go to ``obs000/y.csv`` and ``obs000/x00.csv`` style paths
    under ``out_dir``; returns the manifest path. An existing manifest is
    removed before the first curve is written, so a write that fails
    midway leaves no manifest naming a mix of old and new curves.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.unlink(missing_ok=True)
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
    _write_json(path, manifest)
    return path


def _require(mapping: Mapping[str, Any], key: str, kind, field: str, source) -> Any:
    if key not in mapping:
        raise ValidationError(f"missing required key {key!r}", source=source, field=field)
    return json_value(mapping[key], kind, key, source, field)


def read_design(manifest_path) -> Design:
    """Read and validate a design manifest and its curve CSVs."""
    manifest_path = Path(manifest_path)
    raw = read_json_object(manifest_path, "manifest must be a JSON object")
    version = _require(raw, "format_version", int, "format_version", manifest_path)
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version}", source=manifest_path, field="format_version"
        )
    step = _require(raw, "step", float, "step", manifest_path)
    lags = _require(raw, "lags", list, "lags", manifest_path)
    lags = tuple(json_value(a, float, f"lags[{k}]", manifest_path) for k, a in enumerate(lags))
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
        x_rels = [json_value(rel, str, f"{field}.x[{k}]", manifest_path) for k, rel in enumerate(x_rels)]
        z = json_value(entry.get("z", []), list, "z", manifest_path, f"{field}.z")
        z = tuple(json_value(v, float, f"{field}.z[{k}]", manifest_path) for k, v in enumerate(z))
        try:
            y = read_grid_csv(base / y_rel)
            xs = tuple(read_grid_csv(base / rel) for rel in x_rels)
        except OSError as exc:
            raise ValidationError(f"cannot read curve file: {exc}", source=manifest_path, field=field) from None
        try:
            observations.append(Observation(y, xs, z))
        except FcmlabError as exc:
            raise ValidationError(str(exc), source=manifest_path, field=field) from None
    try:
        return Design(tuple(observations), lags, step)
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
        "format_version": ARTIFACT_VERSION,
        "beta_true": coefficients_to_dict(coef),
    }
    if simulation is not None:
        payload["simulation"] = dict(simulation)
    _write_json(path, payload)


def fit_payload(result: FitResult) -> dict[str, Any]:
    """JSON-ready view of a fit result.

    ``gram_condition`` is None (JSON ``null``) when it is infinite,
    that is when the smallest eigenvalue of ``G`` is nonpositive.
    """
    cond = result.gram_condition
    return {
        "format_version": ARTIFACT_VERSION,
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
                    "singular_values": None
                    if rep.singular_values is None
                    else rep.singular_values.tolist(),
                }
            )
    return {
        "format_version": ARTIFACT_VERSION,
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
    write_csv(path, ["index", "sigma"], [np.arange(len(values)), values])


def write_residual_curves_csv(path, report: DiagnosisReport) -> None:
    """Write every residual-vs-order curve as ``observation,covariate,K,residual``.

    A curve certified broadband has no residual curve and writes no rows.
    """
    curves = [
        (i, j, rep.residual_curve)
        for i, row in enumerate(report.covariate_reports)
        for j, rep in enumerate(row)
    ]
    rows = [(i, j, K, r) for i, j, c in curves if c is not None for K, r in enumerate(c.tolist())]
    write_csv(path, ["observation", "covariate", "K", "residual"], [rows])


def _window_text(segment: np.ndarray, rows: int, stride: int) -> tuple[str, list[slice]]:
    """Format one observation's segment of one covariate curve, each sample once.

    Row ``k``'s window holds the segment's samples ``k * stride`` to
    ``k * stride + width - 1``, newest first. Returns the reversed
    segment's CSV text and, for each row, the slice of that text that
    is its window.
    """
    width = segment.size - stride * (rows - 1)
    text = (CELL_FORMAT + ",") * segment.size % tuple(segment[::-1].tolist())
    commas = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord(","))
    starts = np.concatenate([[0], commas + 1])  # starts[q]: where sample q's text begins
    first = stride * np.arange(rows - 1, -1, -1)  # row k's newest sample in the reversed segment
    return text, list(map(slice, starts[first].tolist(), (starts[first + width] - 1).tolist()))


def write_flm_csv(path, rows: RowSet) -> None:
    """Write down-sampled rows: observation, l, y, scalars, then windows.

    The bytes are those of :func:`fcmlab.util.write_csv` on the same
    columns. The rows are written one observation at a time: every
    window of an observation is cut from that observation's segment of
    the covariate curve, so each segment is formatted once and each
    row's window is a substring of that text. Text is streamed in blocks
    of one observation's rows at most.
    """
    imap = rows.index_map
    header = ["obs", "l", "y"] + [f"z{k}" for k in range(imap.d)]
    header += [f"x{j}_u{m}" for j, size in enumerate(imap.sizes) for m in range(size)]
    template = ",".join([CELL_FORMAT] * (3 + imap.d))
    per_block = block_rows(len(header))

    def blocks():
        yield ",".join(header) + "\n"
        for i, (z, y, segs) in enumerate(rows.observations):
            n = y.size
            windows = [_window_text(seg, n, rows.stride) for seg in segs]
            scalars = np.column_stack([np.full(n, i), np.arange(n), y, np.tile(z, (n, 1))])
            heads = [template % tuple(r) for r in scalars.tolist()]
            for k in range(0, n, per_block):
                part = slice(k, k + per_block)
                cells = [heads[part]] + [[text[c] for c in cuts[part]] for text, cuts in windows]
                yield "".join([",".join(row) + "\n" for row in zip(*cells)])

    atomic_write(path, blocks())


def parse_simulation_spec(raw: Mapping[str, Any], source=None):
    """Parse a simulation spec into generator inputs.

    Returns ``(cov_specs, beta_true, noise, n, seed)`` ready for
    :func:`fcmlab.designs.gen_design`. Lag kernels are given either as
    inline ``values`` arrays or as mode-family ``terms`` evaluated on
    the lag grid. Every :class:`ValidationError` names ``source``.
    """
    try:
        return _parse_simulation_spec(raw, source)
    except ValidationError as exc:
        if exc.source is None:
            exc.source = source
        raise


def _parse_simulation_spec(raw: Mapping[str, Any], source):
    if not isinstance(raw, Mapping):
        raise ValidationError("simulation spec must be a JSON object", source=source)
    reject_non_finite(raw, source)
    version = _require(raw, "format_version", int, "format_version", source)
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version}", source=source)
    step = _require(raw, "step", float, "step", source)
    if step <= 0.0:
        raise ValidationError("step must be positive", source=source, field="step")
    T = _require(raw, "T", float, "T", source)
    n = _require(raw, "n", int, "n", source)
    seed = _require(raw, "seed", int, "seed", source)
    lags = _require(raw, "lags", list, "lags", source)
    if not lags:
        raise ValidationError("at least one lag is required", source=source, field="lags")
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
        if kind not in GENERATOR_KINDS:
            raise ValidationError(
                f"unknown covariate kind {kind!r}, expected one of {GENERATOR_KINDS}",
                source=source,
                field=f"covariates[{j}].kind",
            )
        params = entry.get("params", {})
        if not isinstance(params, Mapping):
            raise ValidationError("params must be an object", source=source, field=f"covariates[{j}].params")
        spec = GeneratorSpec(
            kind=kind,
            T=T,
            step=step,
            seed=_require(entry, "seed", int, f"covariates[{j}].seed", source)
            if "seed" in entry
            else seed + 97 * (j + 1),
            params=params,
        )
        generator_params(spec, f"covariates[{j}].params")
        cov_specs.append(spec)
    beta0 = _require(raw, "beta0", list, "beta0", source)
    beta0 = [json_value(v, float, f"beta0[{k}]", source) for k, v in enumerate(beta0)]
    betas_raw = _require(raw, "betas", list, "betas", source)
    if len(betas_raw) != len(lags):
        raise ValidationError(
            f"{len(betas_raw)} lag kernels for {len(lags)} lags", source=source, field="betas"
        )
    betas = []
    for j, (entry, alpha) in enumerate(zip(betas_raw, lags)):
        if not isinstance(entry, dict):
            raise ValidationError("kernel entry must be an object", source=source, field=f"betas[{j}]")
        alpha = json_value(alpha, float, f"lags[{j}]", source)
        try:
            m = snap_to_index(alpha / step)
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
            at = f"betas[{j}].values"
            values = _require(entry, "values", list, at, source)
            values = np.array([json_value(v, float, f"{at}[{q}]", source) for q, v in enumerate(values)])
            if values.size != m + 1:
                raise ValidationError(
                    f"kernel needs {m + 1} samples for lag {alpha!r}, got {values.size}",
                    source=source,
                    field=f"betas[{j}].values",
                )
        elif "terms" in entry:
            values = mode_family_values(entry["terms"], times, f"betas[{j}].terms")
        else:
            raise ValidationError(
                "kernel entry needs 'values' or 'terms'", source=source, field=f"betas[{j}]"
            )
        betas.append(GridFunction(0.0, step, values))
    noise_raw = raw.get("noise", {})
    if not isinstance(noise_raw, Mapping):
        raise ValidationError("noise must be an object", source=source, field="noise")
    noise = NoiseSpec(
        kind=json_entry(noise_raw, "kind", str, "white", "noise", source),
        sd=json_entry(noise_raw, "sd", float, 0.0, "noise", source),
        ar_coefficient=json_entry(noise_raw, "ar_coefficient", float, 0.0, "noise", source),
    )
    beta_true = CoefficientSet(tuple(beta0), tuple(betas))
    return cov_specs, beta_true, noise, n, seed


def read_simulation_spec(path):
    path = Path(path)
    raw = read_json_object(path, "simulation spec must be a JSON object")
    return parse_simulation_spec(raw, source=path), raw
