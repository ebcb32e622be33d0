#!/usr/bin/env python3
"""End-to-end benchmark of the fcmlab command line.

Runs the five CLI commands as users run them, each as its own process,
one child at a time, on one workload (see workloads.py and README.md):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times ``S`` seconds of whole rounds of
``simulate -> fit --solver svd -> fit --solver ridge -> diagnose ->
downsample`` and prints the end-to-end metrics (medians over the rounds
after the first, which is a warm-up).
With ``--trace 1`` it runs one round for the per-child CPU and memory
figures, then one in-process pass (trace_layers.py) that times the
public calls of each module. Either way the outputs of the last round
are checked by check.py, which shares no code with fcmlab, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Must be started from, or live in, a source checkout: the children run
``python3 -m fcmlab`` with ``PYTHONPATH`` set to the checkout's ``src``.
Everything the run writes goes under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import RIDGE_LAMBDA, WORKLOADS, Workload, thread_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COMMANDS = ("simulate", "fit_svd", "fit_ridge", "diagnose", "downsample")
# Interpreter-and-import probes: a warm-up that is not counted, a few
# before the first round and a few after every round, so that their
# median samples the whole run rather than its first seconds.
SETUP_FIRST = 4
SETUP_PER_ROUND = 2
# Hard limit on one run; children still running then are killed.
RUN_LIMIT_S = 170.0


@dataclass
class Child:
    name: str
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts fcmlab children one at a time and records their resource use."""

    def __init__(self, workload: Workload, deadline: float):
        self.workload = workload
        self.env = workload.child_env(str(SRC))
        self.deadline = deadline
        self.children: list[Child] = []

    def run(self, name: str, argv: list[str], log_dir: Path) -> Child:
        with open(log_dir / f"{name}.stdout", "wb") as out, open(log_dir / f"{name}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        child = Child(
            name,
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )
        self.children.append(child)
        return child

    def fcmlab(self, name: str, args: list[str], log_dir: Path) -> Child:
        return self.run(name, [sys.executable, "-m", "fcmlab", *args], log_dir)


def command_args(workload: Workload, spec_path: Path, out: Path) -> dict[str, list[str]]:
    manifest = str(out / "design" / "manifest.json")
    return {
        "simulate": ["simulate", "--spec", str(spec_path), "--out", str(out / "design")],
        "fit_svd": ["fit", "--design", manifest, "--out", str(out / "fit_svd.json"), "--solver", "svd"],
        "fit_ridge": [
            "fit", "--design", manifest, "--out", str(out / "fit_ridge.json"),
            "--solver", "ridge", "--lambda", repr(RIDGE_LAMBDA),
        ],
        "diagnose": ["diagnose", "--design", manifest, "--out", str(out / "diagnosis.json")],
        "downsample": ["downsample", "--design", manifest, "--U", repr(workload.U), "--out", str(out / "rows.csv")],
    }


def fresh_dir(path: Path) -> Path:
    # Outputs always go to new files: replacing an existing file makes
    # ext4 flush it at once, which would add disk waits to the timings.
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_round(runner: Runner, spec_path: Path, out: Path) -> tuple[list[Child], float]:
    """One chain of the five commands into a fresh ``out``; stops at a failure."""
    fresh_dir(out)
    args = command_args(runner.workload, spec_path, out)
    children = []
    start = time.perf_counter()
    for name in COMMANDS:
        child = runner.fcmlab(name, args[name], out)
        children.append(child)
        if child.returncode != 0:
            break
    return children, time.perf_counter() - start


def round_digest(out: Path) -> str:
    """Digest of a round's small outputs, to show every round wrote the same."""
    h = hashlib.sha256()
    for name in ("design/manifest.json", "design/truth.json", "fit_svd.json", "fit_ridge.json", "diagnosis.json"):
        path = out / name
        h.update(path.read_bytes() if path.exists() else b"missing")
    for name in COMMANDS:
        h.update((out / f"{name}.stdout").read_bytes())
    rows = out / "rows.csv"
    h.update(str(rows.stat().st_size if rows.exists() else -1).encode())
    return h.hexdigest()


def check(spec: dict, out: Path, workload: Workload) -> list[str]:
    # Imported here so that the benchmark process loads numpy only after
    # every timed child has ended.
    import check as checker

    try:
        return checker.check_outputs(spec, out, workload.U, RIDGE_LAMBDA)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs could not be checked: {type(exc).__name__}: {exc}"]


def library_versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, spec: dict, spec_path: Path, wdir: Path, seconds: float):
    """Set-up probes, then whole rounds for ``seconds``; returns metrics and errors."""
    errors: list[str] = []
    setup: list[float] = []
    probe_dir = fresh_dir(wdir / "setup")

    def probe(reps: int) -> None:
        for _ in range(reps):
            if errors:
                return
            child = runner.fcmlab("setup", ["reproduce", "--list"], probe_dir)
            if child.returncode != 0:
                errors.append("`fcmlab reproduce --list` failed")
                return
            setup.append(child.wall_s)

    probe(1)
    setup.clear()  # the warm-up
    probe(SETUP_FIRST)
    rounds: list[tuple[list[Child], float]] = []
    digests = set()
    out = wdir / "round"
    start = time.perf_counter()
    while not errors:
        children, chain_s = run_round(runner, spec_path, out)
        rounds.append((children, chain_s))
        if any(c.returncode != 0 for c in children):
            errors.append(f"{children[-1].name} exited with {children[-1].returncode}")
            break
        digests.add(round_digest(out))
        probe(SETUP_PER_ROUND)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    if len(digests) > 1:
        errors.append(f"rounds wrote {len(digests)} different sets of outputs")
    if errors:
        return {}, errors, len(rounds)
    errors += check(spec, out, runner.workload)
    # The first round is a warm-up and is not counted unless it is the
    # only one: after an idle spell the first commands run up to a third
    # slower, mostly in system time, while the machine's memory warms up.
    timed = rounds[1:] or rounds
    metrics = {"setup_s": metric(statistics.median(setup), "s")}
    for k, name in enumerate(COMMANDS):
        metrics[f"{name}_s"] = metric(statistics.median(r[0][k].wall_s for r in timed), "s")
    metrics["pipeline_s"] = metric(statistics.median(r[1] for r in timed), "s")
    metrics["peak_rss_mb"] = metric(statistics.median(max(c.rss_mb for c in r[0]) for r in timed), "MB")
    return metrics, errors, len(rounds)


def per_layer(runner: Runner, spec: dict, spec_path: Path, wdir: Path):
    """One CLI round for per-child figures, then the traced in-process pass."""
    out = wdir / "round"
    children, _ = run_round(runner, spec_path, out)
    errors = [f"{c.name} exited with {c.returncode}" for c in children if c.returncode != 0]
    metrics = {}
    for c in children:
        metrics[f"cli.{c.name}.cpu_s"] = metric(c.cpu_s, "s")
        metrics[f"cli.{c.name}.rss_mb"] = metric(c.rss_mb, "MB")
    if not errors:
        errors += check(spec, out, runner.workload)
    # The in-process pass writes its own copies; the checked ones can go.
    shutil.rmtree(out, ignore_errors=True)
    inproc = fresh_dir(wdir / "inprocess")
    argv = [
        sys.executable, str(HERE / "trace_layers.py"),
        "--spec", str(spec_path), "--out", str(inproc),
        "--lambda", repr(RIDGE_LAMBDA), "--U", repr(runner.workload.U),
    ]
    child = runner.run("trace", argv, inproc)
    if child.returncode != 0:
        errors.append(f"trace_layers.py exited with {child.returncode}")
    else:
        lines = (inproc / "trace.stdout").read_text().strip().splitlines()
        metrics.update(json.loads(lines[-1])["metrics"])
    return metrics, errors, 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fcmlab" / "__init__.py").is_file():
        sys.stderr.write(f"no fcmlab sources under {SRC}; run from a source checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, time.monotonic() + RUN_LIMIT_S)
    wdir = fresh_dir(WORK / workload.name)
    spec = workload.spec(args.seed)
    spec_path = wdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    if args.trace:
        metrics, errors, rounds = per_layer(runner, spec, spec_path, wdir)
    else:
        metrics, errors, rounds = end_to_end(runner, spec, spec_path, wdir, args.seconds)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "thread_env": thread_env(runner.env),
        "versions": library_versions(),
        "errors": errors,
        "children": [asdict(c) for c in runner.children],
    }
    (wdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(wdir / "round", ignore_errors=True)
    for e in errors:
        sys.stderr.write(f"check failed: {e}\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "rounds", "thread_env", "versions")}))
    failed = sum(1 for c in runner.children if c.returncode != 0)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(runner.children),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
