"""One test per registered verification experiment.

Each experiment bundles the checks that certify a headline behavior of
the library: Gram positivity, exact gradients, mode-family orders,
broadband spectral floors, invisible-direction detection, recovery
under refinement, rank agreement between routes, down-sampled row
consistency, solver agreement, and byte-level determinism. ``pytest -v``
therefore prints one pass/fail line per criterion, and a failure
message carries the experiment's own check lines. A last test makes
sure a failed child process of ``determinism`` fails its check with the
reason instead of crashing the run.
"""

import sys

import pytest

from fcmlab.experiments import EXPERIMENT_NAMES, run_experiment


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_criterion(name):
    result = run_experiment(name)
    report = "\n".join(result.lines())
    print(report)
    assert result.passed, report


@pytest.mark.parametrize("child", ["missing", "failing"])
def test_determinism_fails_with_detail_when_a_child_fails(tmp_path, monkeypatch, child):
    executable = tmp_path / "python"
    if child == "failing":
        executable.write_text("#!/bin/sh\necho 'child broke' >&2\nexit 7\n")
        executable.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(executable))
    result = run_experiment("determinism")
    blas = result.checks[-1]
    assert blas.label == "BLAS thread count does not change results"
    assert not blas.passed
    assert "1-thread child" in blas.detail
    if child == "failing":
        assert "exited 7: child broke" in blas.detail
