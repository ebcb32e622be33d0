"""On-disk formats: design manifests, results, and row exports.

A design lives on disk as a JSON manifest naming one CSV per curve
(paths relative to the manifest) with scalar covariates inline. Every
JSON file carries a ``format_version``: :data:`FORMAT_VERSION` for
inputs (manifests, specs), :data:`ARTIFACT_VERSION` for results. All
writers are atomic, through :func:`fcmlab.util.atomic_write`: content
goes to a temporary file in the destination directory and is renamed
into place, so readers never observe partial output. JSON files are
streamed as the encoder produces them, never held as one text. The
spectrum CSV goes through :func:`fcmlab.util.write_csv`, which streams
its rows in blocks, and the residual CSV through
:func:`fcmlab.util.write_csv_blocks`, one curve at a time. The other
two stream the same bytes with less formatting: curve CSVs go through
:func:`fcmlab.grids.write_grid_csv`, which formats a grid's time
column once for all curves on it, and :func:`write_flm_csv` formats
each observation's segment of each covariate curve once and cuts every
row's delay window out of that text, so no sample is formatted twice.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from fcmlab.designs import GENERATOR_KINDS, GeneratorSpec, NoiseSpec, generator_params, mode_family_values
from fcmlab.errors import GridError, ValidationError, naming
from fcmlab.grids import GridFunction, read_grid_csv, sample_times, snap_to_index, write_grid_csv
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
    write_csv_blocks,
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
    """Write ``payload`` as strict, indented JSON, streamed chunk by chunk.

    The bytes are those of ``json.dumps(payload, indent=2)`` and a
    newline: with an indent, ``dumps`` joins the chunks of the same
    encoder. A non-finite number raises ``ValueError`` midway, and
    :func:`fcmlab.util.atomic_write` then removes its temp file.
    """
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(payload)
    atomic_write(path, itertools.chain(chunks, ["\n"]))


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


def read_design(manifest_path) -> Design:
    """Read and validate a design manifest and its curve CSVs."""
    manifest_path = Path(manifest_path)
    raw = read_json_object(manifest_path, "manifest must be a JSON object")
    with naming(manifest_path):
        version = json_entry(raw, "format_version", int)
        if version != FORMAT_VERSION:
            raise ValidationError(f"unsupported format_version {version}", field="format_version")
        step = json_entry(raw, "step", float)
        lags = json_entry(raw, "lags", list)
        lags = tuple(json_value(a, float, f"lags[{k}]") for k, a in enumerate(lags))
        entries = json_entry(raw, "observations", list)
        if not entries:
            raise ValidationError("no observations listed", field="observations")
        base = manifest_path.parent
        observations = []
        for i, entry in enumerate(entries):
            field = f"observations[{i}]"
            with naming(manifest_path, field):
                if not isinstance(entry, dict):
                    raise ValidationError("observation entry must be an object")
                y_rel = json_entry(entry, "y", str, field=field)
                x_rels = json_entry(entry, "x", list, field=field)
                x_rels = [json_value(rel, str, f"{field}.x[{k}]") for k, rel in enumerate(x_rels)]
                z = json_entry(entry, "z", list, [], field)
                z = tuple(json_value(v, float, f"{field}.z[{k}]") for k, v in enumerate(z))
                try:
                    y = read_grid_csv(base / y_rel)
                    xs = tuple(read_grid_csv(base / rel) for rel in x_rels)
                except OSError as exc:
                    raise ValidationError(
                        f"cannot read curve file: {exc}", source=manifest_path, field=field
                    ) from None
                observations.append(Observation(y, xs, z))
        return Design(tuple(observations), lags, step)


def coefficients_to_dict(coef: CoefficientSet) -> dict[str, Any]:
    return {
        "beta0": list(coef.beta0),
        "betas": [
            {"start": b.start, "step": b.step, "values": b.values.tolist()}
            for b in coef.betas
        ],
    }


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
    The rows are formatted and written one curve at a time.
    """
    blocks = (
        np.column_stack([np.full(c.size, i), np.full(c.size, j), np.arange(c.size), c])
        for i, row in enumerate(report.covariate_reports)
        for j, rep in enumerate(row)
        if (c := rep.residual_curve) is not None
    )
    write_csv_blocks(path, ["observation", "covariate", "K", "residual"], blocks)


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
    the lag grid. Every error is a :class:`ValidationError` naming ``source``.
    """
    with naming(source):
        if not isinstance(raw, Mapping):
            raise ValidationError("simulation spec must be a JSON object")
        reject_non_finite(raw)
        version = json_entry(raw, "format_version", int)
        if version != FORMAT_VERSION:
            raise ValidationError(f"unsupported format_version {version}")
        step = json_entry(raw, "step", float)
        if step <= 0.0:
            raise ValidationError("step must be positive", field="step")
        T = json_entry(raw, "T", float)
        n = json_entry(raw, "n", int)
        seed = _seed(json_entry(raw, "seed", int), "seed")
        lags = json_entry(raw, "lags", list)
        if not lags:
            raise ValidationError("at least one lag is required", field="lags")
        cov_raw = json_entry(raw, "covariates", list)
        if len(cov_raw) != len(lags):
            raise ValidationError(f"{len(cov_raw)} covariates for {len(lags)} lags", field="covariates")
        cov_specs = []
        for j, entry in enumerate(cov_raw):
            at = f"covariates[{j}]"
            if not isinstance(entry, dict):
                raise ValidationError("covariate entry must be an object", field=at)
            kind = json_entry(entry, "kind", str, field=at)
            if kind not in GENERATOR_KINDS:
                raise ValidationError(
                    f"unknown covariate kind {kind!r}, expected one of {GENERATOR_KINDS}", field=f"{at}.kind"
                )
            params = entry.get("params", {})
            if not isinstance(params, Mapping):
                raise ValidationError("params must be an object", field=f"{at}.params")
            cov_seed = _seed(json_entry(entry, "seed", int, seed + 97 * (j + 1), at), f"{at}.seed")
            spec = GeneratorSpec(kind=kind, T=T, step=step, seed=cov_seed, params=params)
            generator_params(spec, f"{at}.params")
            cov_specs.append(spec)
        beta0 = json_entry(raw, "beta0", list)
        beta0 = [json_value(v, float, f"beta0[{k}]") for k, v in enumerate(beta0)]
        if not beta0:
            raise ValidationError("beta0 must at least contain the intercept", field="beta0")
        betas_raw = json_entry(raw, "betas", list)
        if len(betas_raw) != len(lags):
            raise ValidationError(f"{len(betas_raw)} lag kernels for {len(lags)} lags", field="betas")
        betas = []
        for j, (entry, alpha) in enumerate(zip(betas_raw, lags)):
            at = f"betas[{j}]"
            if not isinstance(entry, dict):
                raise ValidationError("kernel entry must be an object", field=at)
            alpha = json_value(alpha, float, f"lags[{j}]")
            try:
                m = snap_to_index(alpha / step)
            except GridError:
                m = 0  # off the grid: rejected below like a nonpositive lag
            if m < 1:
                raise ValidationError(
                    f"lag {alpha!r} is not a positive multiple of the step", field=f"lags[{j}]"
                )
            times = sample_times(step, m + 1, f"lags[{j}]")
            if "values" in entry:
                values = json_entry(entry, "values", list, field=at)
                values = np.array([json_value(v, float, f"{at}.values[{q}]") for q, v in enumerate(values)])
                if values.size != m + 1:
                    raise ValidationError(
                        f"kernel needs {m + 1} samples for lag {alpha!r}, got {values.size}",
                        field=f"{at}.values",
                    )
            elif "terms" in entry:
                values = mode_family_values(entry["terms"], times, f"{at}.terms")
            else:
                raise ValidationError("kernel entry needs 'values' or 'terms'", field=at)
            betas.append(GridFunction(0.0, step, values))
        noise_raw = raw.get("noise", {})
        if not isinstance(noise_raw, Mapping):
            raise ValidationError("noise must be an object", field="noise")
        noise = NoiseSpec(
            kind=json_entry(noise_raw, "kind", str, "white", "noise"),
            sd=json_entry(noise_raw, "sd", float, 0.0, "noise"),
            ar_coefficient=json_entry(noise_raw, "ar_coefficient", float, 0.0, "noise"),
        )
        return cov_specs, CoefficientSet(tuple(beta0), tuple(betas)), noise, n, seed


def _seed(seed: int, field: str) -> int:
    """``seed`` if it can seed a random generator (numpy takes no negative seed)."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}", field=field)
    return seed


def read_simulation_spec(path, seed: int | None = None):
    """Parse the spec file ``path``, its ``seed`` replaced by ``seed`` when given.

    Returns the parsed spec and the raw object it was parsed from, which
    carries the replaced seed.
    """
    path = Path(path)
    raw = read_json_object(path, "simulation spec must be a JSON object")
    if seed is not None:
        raw = {**raw, "seed": seed}
    return parse_simulation_spec(raw, source=path), raw
