"""Down-sampled functional linear model view of a design.

Observing each response only every ``U`` time units turns the
convolution model into a scalar-on-function regression: row ``(i, l)``
pairs the response sample at ``t = alpha_star + l * U`` with the
reversed covariate windows ``x_ij(t - u)`` on the lag grids. Fitting
those rows by least squares (same lag quadrature weights as the full
estimator, optional second-difference penalty) recovers coefficients on
the same grids, and at ``U = step`` reproduces the full estimator up to
the endpoint weights of the time quadrature. The rows are the design's
row set at stride ``U / step`` (:meth:`fcmlab.model.Design.rows`), the
same cut that :func:`fcmlab.estimator.assemble` reads at stride one.
"""

from __future__ import annotations

import numpy as np

from fcmlab.errors import GridError
from fcmlab.estimator import GramSystem, _normal_equations, solve_direct, solve_penalized
from fcmlab.grids import snap_to_index
from fcmlab.model import CoefficientSet, Design, RowSet, _predictions

__all__ = ["to_flm", "fit_flm", "flm_normal_equations", "flm_row_residuals"]


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


def flm_normal_equations(rows: RowSet) -> GramSystem:
    """Normal equations ``A'A c = A'y`` of the row regression, without forming ``A``.

    Rows count equally (no time quadrature); the entry weights are the
    lag quadrature weights of the full estimator.
    """
    return _normal_equations(rows, trapezoid=False)


def flm_row_residuals(rows: RowSet, coef: CoefficientSet) -> np.ndarray:
    """Row-wise residuals ``y - prediction``, observations in order."""
    fitted = _predictions(rows, coef)
    return np.concatenate([y - f for (_, y, _), f in zip(rows.observations, fitted)])


def fit_flm(rows: RowSet, lam: float = 0.0) -> CoefficientSet:
    """Least-squares fit of the down-sampled rows.

    Minimizes the sum of squared row residuals plus ``lam`` times the
    squared second differences of each lag kernel. Without a penalty a
    rank-deficient normal matrix raises :class:`NearSingularError`;
    with ``lam > 0`` the penalty usually restores uniqueness.
    """
    system = flm_normal_equations(rows)
    if float(lam) == 0.0:
        return solve_direct(system)
    return solve_penalized(system, lam)
