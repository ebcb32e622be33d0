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

import numpy as np
import pytest

from fcmlab.designs import GeneratorSpec, filtered_noise_modes
from fcmlab.experiments import (
    _RECOVERY_INTERCEPT,
    _RECOVERY_PARAMS,
    _RECOVERY_TERMS,
    EXPERIMENT_NAMES,
    _analytic_design,
    _kernel_transform,
    run_experiment,
)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_criterion(name):
    result = run_experiment(name)
    report = "\n".join(result.lines())
    print(report)
    assert result.passed, report


def test_analytic_responses_match_the_complex_carrier_closed_form():
    # recovery-refinement's responses are Im sum_q A_q B(w_q) e^{i(w_q t + phi_q)};
    # the design evaluates them as a sine sum with amplitude |B| and phase arg B.
    step, T, alpha, seed = 1.0 / 32.0, 2.0, 0.5, 61
    design = _analytic_design(step, T, alpha, n=3, seed=seed, params=_RECOVERY_PARAMS)
    t = step * np.arange(round(T / step) + 1)
    for i, obs in enumerate(design.observations):
        spec = GeneratorSpec("filtered_noise", T, step, seed=seed + 1009 * i, params=_RECOVERY_PARAMS)
        amps, omegas, phases = filtered_noise_modes(spec)
        B = _kernel_transform(_RECOVERY_TERMS, alpha, omegas)
        carrier = np.exp(1j * (t[:, None] * omegas + phases))
        expected = _RECOVERY_INTERCEPT + (carrier * B).imag @ amps
        assert np.max(np.abs(obs.y.values - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("child", ["missing", "failing"])
def test_determinism_fails_with_detail_when_a_child_fails(tmp_path, monkeypatch, child):
    executable = tmp_path / "python"
    if child == "failing":
        executable.write_text("#!/bin/sh\necho 'child broke' >&2\nexit 7\n")
        executable.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(executable))
    result = run_experiment("determinism")
    blas = result.checks[-1]
    assert blas.label == "fresh interpreters on 1- and 2-thread BLAS reproduce this bundle byte for byte"
    assert not blas.passed
    assert "1-thread child" in blas.detail
    if child == "failing":
        assert "exited 7: child broke" in blas.detail
