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

from fcmlab.errors import ConformalityError, GridError
from fcmlab.estimator import (
    DEFAULT_PIVOT_TOL,
    CoefficientIndexMap,
    GramSystem,
    solve_direct,
    solve_penalized,
)
from fcmlab.grids import snap_to_index
from fcmlab.model import CoefficientSet, Design, delay_matrix

__all__ = ["FlmDataset", "to_flm", "fit_flm", "flm_normal_equations", "flm_row_residuals"]


@dataclass(frozen=True)
class FlmDataset:
    """Rows of the down-sampled functional linear model.

    ``windows[j][r]`` holds covariate ``j`` of row ``r`` reversed onto
    the lag grid ``u = 0, ..., alpha_j``; ``obs_index`` and ``l_index``
    identify the source observation and the sampling index ``l`` such
    that the row time is ``alpha_star + l * U``. ``counts[i]`` is the
    number of rows contributed by observation ``i``; its rows are
    consecutive, in order of ``l``.

    Within one observation the windows are delay windows: with
    ``stride = U / step`` samples, ``windows[j][r + 1][u + stride] ==
    windows[j][r][u]`` bit for bit wherever both sides exist.
    :func:`fcmlab.fileio.write_flm_csv` checks this and formats each
    covariate sample once.
    """

    U: float
    step: float
    lags: tuple[float, ...]
    alpha_star: float
    y: np.ndarray
    z: np.ndarray
    windows: tuple[np.ndarray, ...]
    obs_index: np.ndarray
    l_index: np.ndarray
    counts: tuple[int, ...]

    @property
    def row_count(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.z.shape[1]

    def index_map(self) -> CoefficientIndexMap:
        return CoefficientIndexMap.from_parts(self.d, self.lags, self.step)


def to_flm(design: Design, U: float) -> FlmDataset:
    """Extract the functional-linear-model rows at sampling interval ``U``.

    ``U`` must be a positive integer multiple of the grid step.
    Observation ``i`` contributes ``floor((T_i - alpha_star) / U) + 1``
    rows at times ``alpha_star + l * U``, all inside ``[alpha_star,
    T_i]``.
    """
    stride = snap_to_index(float(U) / design.step, what=f"sampling interval {U!r}")
    if stride < 1:
        raise GridError(f"sampling interval {U!r} must be at least one grid step")
    k0 = design.alpha_star_index()
    ys, zs, obs_ids, l_ids = [], [], [], []
    window_parts: list[list[np.ndarray]] = [[] for _ in range(design.p)]
    counts = []
    lag_lengths = design.lag_lengths()
    for i, obs in enumerate(design.observations):
        n_rows = (len(obs.y) - 1 - k0) // stride + 1
        counts.append(n_rows)
        t_idx = k0 + stride * np.arange(n_rows)
        ys.append(obs.y.values[t_idx])
        zs.append(np.tile(np.asarray(obs.z, dtype=float), (n_rows, 1)))
        obs_ids.append(np.full(n_rows, i, dtype=int))
        l_ids.append(np.arange(n_rows, dtype=int))
        for j, (xj, L) in enumerate(zip(obs.x, lag_lengths)):
            window_parts[j].append(delay_matrix(xj.values, t_idx, L))
    return FlmDataset(
        U=float(U),
        step=design.step,
        lags=design.lags,
        alpha_star=design.alpha_star,
        y=np.concatenate(ys),
        z=np.concatenate(zs, axis=0),
        windows=tuple(np.concatenate(parts, axis=0) for parts in window_parts),
        obs_index=np.concatenate(obs_ids),
        l_index=np.concatenate(l_ids),
        counts=tuple(counts),
    )


def flm_normal_equations(data: FlmDataset) -> GramSystem:
    """Normal equations ``A'A c = A'y`` of the row regression.

    Rows count equally (no time quadrature); the entry weights are the
    lag quadrature weights of the full estimator.
    """
    imap = data.index_map()
    A = imap.rows(data.z, data.windows)
    return GramSystem(A.T @ A, A.T @ data.y, imap, imap.lag_weights())


def flm_row_residuals(data: FlmDataset, coef: CoefficientSet) -> np.ndarray:
    """Row-wise residuals ``y - prediction`` at the given coefficients."""
    imap = data.index_map()
    return data.y - imap.rows(data.z, data.windows) @ imap.pack(coef)


def fit_flm(
    data: FlmDataset,
    lam: float = 0.0,
    pivot_tol: float = DEFAULT_PIVOT_TOL,
) -> CoefficientSet:
    """Least-squares fit of the down-sampled rows.

    Minimizes the sum of squared row residuals plus ``lam`` times the
    squared second differences of each lag kernel. Without a penalty a
    rank-deficient normal matrix raises :class:`NearSingularError`;
    with ``lam > 0`` the penalty usually restores uniqueness.
    """
    if data.row_count < 1:
        raise ConformalityError("no rows to fit")
    system = flm_normal_equations(data)
    if float(lam) == 0.0:
        return solve_direct(system, pivot_tol)
    return solve_penalized(system, lam)
