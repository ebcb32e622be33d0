"""Down-sampled functional linear model view of a design.

Observing each response only every ``U`` time units turns the
convolution model into a scalar-on-function regression: row ``(i, l)``
pairs the response sample at ``t = alpha_star + l * U`` with the
reversed covariate windows ``x_ij(t - u)`` on the lag grids. Fitting
those rows by least squares (same lag quadrature weights as the full
estimator, optional second-difference penalty) recovers coefficients on
the same grids, and at ``U = step`` reproduces the full estimator up to
the endpoint weights of the time quadrature.
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
from fcmlab.model import CoefficientSet, Design, _lag_sum

__all__ = ["FlmDataset", "to_flm", "fit_flm", "flm_normal_equations", "flm_row_residuals"]


@dataclass(frozen=True)
class FlmDataset:
    """Rows of the down-sampled functional linear model.

    Row ``(i, l)`` pairs the response ``y`` at ``t = alpha_star + l * U``
    of observation ``i`` with its scalars ``z`` and each covariate's
    reversed window ``x_ij(t - u)``, ``u = 0, ..., alpha_j``. Only ``y``
    and ``z`` are stored per row; the ``counts[i]`` rows of observation
    ``i`` are consecutive, in order of ``l``, and their windows, never
    formed, are cut from ``segments[i][j]``: the view ``x_ij[k0 - L_j :
    t_last + 1]`` into the design's curve, in which row ``l``'s newest
    sample sits at ``L_j + stride * l``, the form in which
    :mod:`fcmlab.estimator` assembles normal equations. ``obs_index`` and
    ``l_index`` are read-only arrays built from ``counts`` on each access.
    """

    U: float
    step: float
    lags: tuple[float, ...]
    y: np.ndarray
    z: np.ndarray
    segments: tuple[tuple[np.ndarray, ...], ...]
    counts: tuple[int, ...]

    @property
    def row_count(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.z.shape[1]

    @property
    def stride(self) -> int:
        return snap_to_index(self.U / self.step)

    def index_map(self) -> CoefficientIndexMap:
        return CoefficientIndexMap.from_parts(self.d, self.lags, self.step)

    @property
    def obs_index(self) -> np.ndarray:
        return _read_only(np.repeat(np.arange(len(self.counts)), self.counts))

    @property
    def l_index(self) -> np.ndarray:
        return _read_only(np.concatenate([np.arange(c) for c in self.counts]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def to_flm(design: Design, U: float) -> FlmDataset:
    """Extract the functional-linear-model rows at sampling interval ``U``.

    ``U`` must be a positive integer multiple of the grid step.
    Observation ``i`` contributes ``floor((T_i - alpha_star) / U) + 1``
    rows at times ``alpha_star + l * U``, all inside ``[alpha_star,
    T_i]``. No covariate sample is copied.
    """
    stride = snap_to_index(float(U) / design.step, what=f"sampling interval {U!r}")
    if stride < 1:
        raise GridError(f"sampling interval {U!r} must be at least one grid step")
    k0 = design.alpha_star_index()
    lag_lengths = design.lag_lengths()
    ys = [obs.y.values[k0::stride] for obs in design.observations]
    counts = tuple(y.size for y in ys)
    segments = tuple(
        tuple(xj.values[k0 - L : k0 + stride * (n - 1) + 1] for xj, L in zip(obs.x, lag_lengths))
        for obs, n in zip(design.observations, counts)
    )
    return FlmDataset(
        U=float(U),
        step=design.step,
        lags=design.lags,
        y=np.concatenate(ys),
        z=np.repeat([obs.z for obs in design.observations], counts, axis=0),
        segments=segments,
        counts=counts,
    )


def flm_normal_equations(data: FlmDataset) -> GramSystem:
    """Normal equations ``A'A c = A'y`` of the row regression, without forming ``A``.

    Rows count equally (no time quadrature); the entry weights are the
    lag quadrature weights of the full estimator.
    """
    starts = np.cumsum([0, *data.counts[:-1]]).tolist()
    observations = (
        (data.z[a], data.y[a : a + n], segs) for a, n, segs in zip(starts, data.counts, data.segments)
    )
    return _normal_equations(data.index_map(), observations, data.stride, trapezoid=False)


def flm_row_residuals(data: FlmDataset, coef: CoefficientSet) -> np.ndarray:
    """Row-wise residuals ``y - prediction``: each lag sum runs over a segment, read at the rows."""
    imap = data.index_map()
    c = imap.pack(coef)
    conv = [
        sum(
            _lag_sum(seg, c[imap.covariate_slice(j)], data.step)[size - 1 : seg.size : data.stride]
            for j, (seg, size) in enumerate(zip(segs, imap.sizes))
        )
        for segs in data.segments
    ]
    return data.y - (c[0] + data.z @ c[1 : imap.d + 1] + np.concatenate(conv))


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
