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

from dataclasses import dataclass

import numpy as np

from fcmlab.errors import GridError
from fcmlab.estimator import (
    CoefficientIndexMap,
    GramSystem,
    _normal_equations,
    solve_direct,
    solve_penalized,
)
from fcmlab.grids import snap_to_index
from fcmlab.model import CoefficientSet, Design, _predictions

__all__ = ["FlmDataset", "to_flm", "fit_flm", "flm_normal_equations", "flm_row_residuals"]


@dataclass(frozen=True)
class FlmDataset:
    """Rows of the down-sampled functional linear model.

    Row ``(i, l)`` pairs the response ``y`` at ``t = alpha_star + l * U``
    of observation ``i`` with its scalars ``z`` and each covariate's
    reversed window ``x_ij(t - u)``, ``u = 0, ..., alpha_j``. ``rows`` is
    the design's row set at stride ``U / step`` (see
    :meth:`fcmlab.model.Design.rows`): per observation, the scalars and
    views into the design's curves, so the dataset holds no array of its
    own and no window is ever formed.
    """

    U: float
    step: float
    lags: tuple[float, ...]
    rows: tuple

    @property
    def row_count(self) -> int:
        return sum(y.size for _, y, _ in self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0][0])

    @property
    def stride(self) -> int:
        return snap_to_index(self.U / self.step)

    def index_map(self) -> CoefficientIndexMap:
        return CoefficientIndexMap.from_parts(self.d, self.lags, self.step)


def to_flm(design: Design, U: float) -> FlmDataset:
    """Extract the functional-linear-model rows at sampling interval ``U``.

    ``U`` must be a positive integer multiple of the grid step.
    Observation ``i`` contributes ``floor((T_i - alpha_star) / U) + 1``
    rows at times ``alpha_star + l * U``, all inside ``[alpha_star,
    T_i]``. No sample is copied.
    """
    stride = snap_to_index(float(U) / design.step, what=f"sampling interval {U!r}")
    if stride < 1:
        raise GridError(f"sampling interval {U!r} must be at least one grid step")
    return FlmDataset(U=float(U), step=design.step, lags=design.lags, rows=design.rows(stride))


def flm_normal_equations(data: FlmDataset) -> GramSystem:
    """Normal equations ``A'A c = A'y`` of the row regression, without forming ``A``.

    Rows count equally (no time quadrature); the entry weights are the
    lag quadrature weights of the full estimator.
    """
    return _normal_equations(data.index_map(), data.rows, data.stride, trapezoid=False)


def flm_row_residuals(data: FlmDataset, coef: CoefficientSet) -> np.ndarray:
    """Row-wise residuals ``y - prediction``, observations in order."""
    data.index_map().pack(coef)  # conformality check
    fitted = _predictions(data.rows, coef, data.step, data.stride)
    return np.concatenate([y - f for (_, y, _), f in zip(data.rows, fitted)])


def fit_flm(data: FlmDataset, lam: float = 0.0) -> CoefficientSet:
    """Least-squares fit of the down-sampled rows.

    Minimizes the sum of squared row residuals plus ``lam`` times the
    squared second differences of each lag kernel. Without a penalty a
    rank-deficient normal matrix raises :class:`NearSingularError`;
    with ``lam > 0`` the penalty usually restores uniqueness.
    """
    system = flm_normal_equations(data)
    if float(lam) == 0.0:
        return solve_direct(system)
    return solve_penalized(system, lam)
