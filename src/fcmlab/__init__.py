"""Convolution-model estimation and identifiability diagnostics.

The library fits a functional regression in which a response curve
depends on the recent history of covariate curves through lag kernels,
all on a shared uniform grid. Estimation discretizes the squared-error
criterion with trapezoid weights and solves the exact normal equations;
diagnostics decide whether a covariate design pins the kernels down at
all, connecting rank deficits of the design's Gram operator to
self-similarity of the covariate curves.

Typical entry points: :func:`fcmlab.designs.gen_design` to simulate,
:func:`fcmlab.estimator.fit` to estimate, and
:func:`fcmlab.identifiability.diagnose` for the identifiability
verdict. The ``fcmlab`` command line wraps the same pipeline for batch
use.
"""

import importlib

__version__ = "0.1.0"

# Every exported name, by the module that defines it. A name is imported
# on first access (PEP 562), so ``import fcmlab`` loads no submodule and
# each command loads only the layers it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "grids": "GridFunction read_grid_csv write_grid_csv",
        "model": "Observation Design CoefficientSet predict sse",
        "estimator": "GramSystem FitResult assemble fit fit_flm",
        "identifiability": "SpectrumReport SelfSimilarityReport DiagnosisReport Mode "
        "quadratic_form gram_spectrum self_similarity_residual diagnose",
        "designs": "GeneratorSpec NoiseSpec gen_covariate gen_design",
        "downsample": "to_flm",
        "errors": "FcmlabError GridError ConformalityError ValidationError NearSingularError",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
