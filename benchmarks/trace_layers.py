"""In-process pass that times the public calls of each fcmlab module.

Run by run.py as a child process with the workload's thread environment
and ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 benchmarks/trace_layers.py --spec SPEC --out DIR --lambda LAM --U U

It first makes the calls the five CLI commands make, in the same order,
with no spans, and times the whole (``trace.untraced_total_s``). It then
makes them again inside spans, plus the calls that split ``fit`` and
``diagnose`` into their stages, each timed from outside around one
public call. Spans (name, start, end, parent) and counts are kept in
memory and written to ``DIR/spans.json`` when the pass ends. The last
line of stdout is ``{"metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from fcmlab import fileio
from fcmlab.designs import gen_design
from fcmlab.downsample import to_flm
from fcmlab.errors import NearSingularError
from fcmlab.estimator import CoefficientIndexMap, assemble, fit, solve_penalized, solve_truncated_svd
from fcmlab.identifiability import diagnose, fit_recurrence, gram_spectrum
from fcmlab.model import sse

COMMAND_SPANS = ("simulate", "fit_svd", "fit_ridge", "diagnose", "downsample")


class Tracer:
    """Nested wall-clock spans and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))


@contextmanager
def no_span(name: str):
    yield


def cli_calls(spec_path: Path, out: Path, lam: float, U: float, span=no_span) -> dict:
    """The public calls the five commands make, with their file I/O."""
    out.mkdir(parents=True, exist_ok=True)
    design_dir = out / "design"
    with span("simulate"):
        (cov_specs, beta_true, noise, n, seed), raw = fileio.read_simulation_spec(spec_path)
        with span("designs.gen_design"):
            design, _ = gen_design(cov_specs, beta_true, noise, n, seed)
        with span("fileio.write_design"):
            manifest = fileio.write_design(design, design_dir)
        fileio.write_truth(design_dir / "truth.json", beta_true, simulation=raw)
    results = {}
    for name, solver, lam_arg in (("fit_svd", "truncated_svd", 0.0), ("fit_ridge", "ridge", lam)):
        with span(name):
            with span("fileio.read_design"):
                design = fileio.read_design(manifest)
            with span(f"estimator.{name}"):
                results[name] = fit(design, solver=solver, lam=lam_arg)
            with span("fileio.write_fit_result"):
                fileio.write_fit_result(out / f"{name}.json", results[name])
    with span("diagnose"):
        with span("fileio.read_design"):
            design = fileio.read_design(manifest)
        with span("identifiability.diagnose"):
            report = diagnose(design)
        with span("fileio.write_diagnosis"):
            fileio.write_diagnosis(out / "diagnosis.json", report)
    with span("downsample"):
        with span("fileio.read_design"):
            design = fileio.read_design(manifest)
        with span("downsample.to_flm"):
            data = to_flm(design, U)
        with span("fileio.write_flm_csv"):
            fileio.write_flm_csv(out / "rows.csv", data)
    return {"manifest": manifest, "design": design, "report": report, "rows": data.row_count}


def layer_calls(tracer: Tracer, design, report, lam: float) -> None:
    """The stages of ``fit`` and ``diagnose``, each around one public call."""
    span = tracer.span
    with span("fit_stages"):
        with span("estimator.assemble"):
            system = assemble(design)
        with span("estimator.solve_truncated_svd"):
            coef, rank = solve_truncated_svd(system)
        with span("estimator.solve_penalized"):
            solve_penalized(system, lam)
        with span("model.sse"):
            sse(design, coef)
    tracer.count("estimator.truncation_rank", rank)
    with span("diagnose_stages"):
        with span("identifiability.gram_spectrum"):
            gram_spectrum(system, tol=report.tol)
        # Re-fit the recurrences diagnose attempted: an order below the
        # number of singular values, with enough samples to fit it.
        attempted = [
            (x, rep.estimated_order)
            for obs, row in zip(design.observations, report.covariate_reports)
            for x, rep in zip(obs.x, row)
            if rep.finite_dimensional and len(x) >= 3 * rep.estimated_order
        ]
        with span("identifiability.fit_recurrence"):
            for x, order in attempted:
                try:
                    fit_recurrence(x, order)
                except NearSingularError:
                    pass
    reports = [rep for row in report.covariate_reports for rep in row]
    tracer.count("identifiability.curves_analysed", len(reports))
    tracer.count("identifiability.recurrences_attempted", len(attempted))
    tracer.count("identifiability.recurrences_kept", sum(rep.recurrence_coeffs is not None for rep in reports))
    imap = CoefficientIndexMap.from_design(design)
    k0 = design.alpha_star_index()
    tracer.count("estimator.assemble_flops", sum((len(o.y) - k0) * imap.size**2 for o in design.observations))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--lambda", dest="lam", required=True, type=float)
    parser.add_argument("--U", required=True, type=float)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli_calls(args.spec, args.out / "untraced", args.lam, args.U)
    untraced_s = time.perf_counter() - start
    shutil.rmtree(args.out / "untraced")

    tracer = Tracer()
    out = args.out / "traced"
    found = cli_calls(args.spec, out, args.lam, args.U, span=tracer.span)
    layer_calls(tracer, found["design"], found["report"], args.lam)
    design_dir = out / "design"
    tracer.count(
        "fileio.curve_bytes",
        sum(p.stat().st_size for p in design_dir.rglob("*.csv")),
    )
    tracer.count("fileio.flm_csv_bytes", (out / "rows.csv").stat().st_size)
    tracer.count("downsample.rows", found["rows"])
    (args.out / "spans.json").write_text(
        json.dumps({"spans": tracer.spans, "counts": tracer.counts}, indent=1) + "\n"
    )
    shutil.rmtree(out)

    metrics = {}
    for name in (
        "designs.gen_design",
        "fileio.write_design",
        "fileio.read_design",
        "estimator.assemble",
        "estimator.fit_svd",
        "estimator.fit_ridge",
        "estimator.solve_truncated_svd",
        "estimator.solve_penalized",
        "model.sse",
        "identifiability.diagnose",
        "identifiability.gram_spectrum",
        "identifiability.fit_recurrence",
        "downsample.to_flm",
        "fileio.write_flm_csv",
        "fileio.write_fit_result",
        "fileio.write_diagnosis",
    ):
        metrics[f"{name}_s"] = {"value": tracer.median(name), "unit": "s"}
    metrics["identifiability.curve_analysis_s"] = {
        "value": tracer.median("identifiability.diagnose")
        - tracer.median("estimator.assemble")
        - tracer.median("identifiability.gram_spectrum"),
        "unit": "s",
    }
    for name, value in tracer.counts.items():
        unit = "flop-computed" if name.endswith("_flops") else ("bytes" if name.endswith("_bytes") else "count")
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.untraced_total_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_total_s"] = {
        "value": sum(sum(tracer.durations(name)) for name in COMMAND_SPANS),
        "unit": "s",
    }
    print(json.dumps({"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
