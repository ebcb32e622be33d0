"""The output checker accepts real outputs and rejects perturbed ones.

Runs the five commands on a small self-similar design, then edits one
output at a time. Run from the repository root:

    python3 -m pytest benchmarks/test_check.py
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

import check
from run import COMMANDS, Runner, run_round
from workloads import RIDGE_LAMBDA, Workload

TINY = Workload(
    name="tiny",
    covariate_kind="self_similar",
    step=1.0 / 32.0,
    T=3.0,
    lag=0.5,
    n=3,
    why="checker test",
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    spec = TINY.spec(seed=7)
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec))
    children, _ = run_round(Runner(TINY, time.monotonic() + 120.0), spec_path, base / "round")
    assert [c.returncode for c in children] == [0] * len(COMMANDS)
    return spec, base / "round"


@pytest.fixture
def copy(outputs, tmp_path):
    spec, out = outputs
    dst = tmp_path / "round"
    shutil.copytree(out, dst)
    return spec, dst


def run_check(spec, out):
    return check.check_outputs(spec, out, TINY.U, RIDGE_LAMBDA)


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_accepts_unmodified_outputs(outputs):
    assert run_check(*outputs) == []


def test_rejects_perturbed_coefficient(copy):
    spec, out = copy

    def bump(payload):
        payload["coefficients"]["betas"][0]["values"][3] += 1e-3

    edit_json(out / "fit_svd.json", bump)
    errors = run_check(spec, out)
    assert any("fit_svd: reported sse" in e for e in errors), errors


def test_rejects_coefficient_worse_than_truth(copy):
    spec, out = copy
    curves = check.read_design(out / "design" / "manifest.json")

    def bump_consistently(payload):
        values = payload["coefficients"]["betas"][1]["values"]
        payload["coefficients"]["betas"][1]["values"] = [v + 5.0 for v in values]
        beta0, kernels = check.coefficients(payload["coefficients"])
        payload["sse"] = check.criterion(curves, beta0, kernels)

    edit_json(out / "fit_svd.json", bump_consistently)
    errors = run_check(spec, out)
    assert errors and all("fit_svd: criterion" in e for e in errors), errors


def test_rejects_reordered_eigenvalues(copy):
    spec, out = copy
    edit_json(out / "diagnosis.json", lambda d: d["eigenvalues"].reverse())
    assert any("descending" in e for e in run_check(spec, out))


def test_rejects_wrong_numerical_rank(copy):
    spec, out = copy

    def shift(d):
        d["numerical_rank"] -= 1

    edit_json(out / "diagnosis.json", shift)
    assert any("numerical_rank" in e for e in run_check(spec, out))


def test_rejects_wrong_recovered_mode(copy):
    spec, out = copy

    def shift(d):
        d["covariates"][1]["modes"][0]["b"] += 1e-4

    edit_json(out / "diagnosis.json", shift)
    assert any("modes" in e for e in run_check(spec, out))


def test_rejects_perturbed_row(copy):
    spec, out = copy
    lines = (out / "rows.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-12)
    lines[5] = ",".join(cells)
    (out / "rows.csv").write_text("\n".join(lines) + "\n")
    errors = run_check(spec, out)
    assert any("rows.csv observation 0 row 4" in e for e in errors), errors


def test_rejects_missing_row(copy):
    spec, out = copy
    lines = (out / "rows.csv").read_text().splitlines()
    (out / "rows.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in e for e in run_check(spec, out))
