"""Down-sampled functional linear model view of a design.

Observing each response only every ``U`` time units turns the
convolution model into a scalar-on-function regression: row ``(i, l)``
pairs the response sample at ``t = alpha_star + l * U`` with the
reversed covariate windows ``x_ij(t - u)`` on the lag grids. Fitting
those rows by least squares (:func:`fcmlab.estimator.fit_flm`: same lag
quadrature weights as the full estimator, optional second-difference
penalty) recovers coefficients on the same grids, and at ``U = step``
reproduces the full estimator up to the endpoint weights of the time
quadrature. The rows are the design's row set at stride ``U / step``
(:meth:`fcmlab.model.Design.rows`), the same cut that
:func:`fcmlab.estimator.assemble` reads at stride one.
"""

from __future__ import annotations

import numpy as np

from fcmlab.errors import GridError
from fcmlab.grids import snap_to_index
from fcmlab.model import CoefficientSet, Design, RowSet, _predictions

__all__ = ["to_flm", "flm_row_residuals"]


def to_flm(design: Design, U: float) -> RowSet:
    """Extract the functional-linear-model rows at sampling interval ``U``.

    ``U`` must be a positive integer multiple of the grid step; the
    result is :meth:`Design.rows` at stride ``U / step``. Observation
    ``i`` contributes ``floor((T_i - alpha_star) / U) + 1`` rows at
    times ``alpha_star + l * U``, all inside ``[alpha_star, T_i]``. No
    sample is copied.
    """
    stride = snap_to_index(float(U) / design.step, what=f"sampling interval {U!r}")
    if stride < 1:
        raise GridError(f"sampling interval {U!r} must be at least one grid step")
    return design.rows(stride)


def flm_row_residuals(rows: RowSet, coef: CoefficientSet) -> np.ndarray:
    """Row-wise residuals ``y - prediction``, observations in order."""
    fitted = _predictions(rows, coef)
    return np.concatenate([y - f for (_, y, _), f in zip(rows.observations, fitted)])
