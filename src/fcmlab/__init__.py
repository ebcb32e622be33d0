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

from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_covariate, gen_design
from fcmlab.downsample import fit_flm, to_flm
from fcmlab.errors import (
    ConformalityError,
    FcmlabError,
    GridError,
    NearSingularError,
    ValidationError,
)
from fcmlab.estimator import FitResult, GramSystem, assemble, fit
from fcmlab.grids import GridFunction, read_grid_csv, write_grid_csv
from fcmlab.identifiability import (
    DiagnosisReport,
    Mode,
    SelfSimilarityReport,
    SpectrumReport,
    diagnose,
    gram_spectrum,
    quadratic_form,
    self_similarity_residual,
)
from fcmlab.model import CoefficientSet, Design, Observation, predict, sse

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GridFunction",
    "read_grid_csv",
    "write_grid_csv",
    "Observation",
    "Design",
    "CoefficientSet",
    "predict",
    "sse",
    "GramSystem",
    "FitResult",
    "assemble",
    "fit",
    "SpectrumReport",
    "SelfSimilarityReport",
    "DiagnosisReport",
    "Mode",
    "quadratic_form",
    "gram_spectrum",
    "self_similarity_residual",
    "diagnose",
    "GeneratorSpec",
    "NoiseSpec",
    "gen_covariate",
    "gen_design",
    "to_flm",
    "fit_flm",
    "FcmlabError",
    "GridError",
    "ConformalityError",
    "ValidationError",
    "NearSingularError",
]
