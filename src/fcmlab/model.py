"""Functional convolution regression model on gridded data.

An observation pairs a response curve ``y`` on ``[0, T]`` with ``p``
covariate curves on the same grid and optional scalar covariates. The
model predicts

    y(t) = b00 + sum_k b0k * z_k + sum_j integral_0^alpha_j b_j(u) x_j(t - u) du

on ``t in [alpha_star, T]`` where ``alpha_star = max_j alpha_j``; earlier
times would need covariate history from before 0 and are excluded from
prediction and from the squared-error criterion. All integrals are
trapezoid sums on the shared grid.

The regression rows are cut in one place, :meth:`Design.rows`, as views
into the curves; normal-equation assembly, prediction, the criterion
and the quadratic form of the Gram operator all read that row set, and
one private routine computes the prediction over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fcmlab.errors import ConformalityError, GridError
from fcmlab.grids import GridFunction, quadrature_weights, snap_to_index

__all__ = [
    "Observation",
    "Design",
    "CoefficientSet",
    "delay_matrix",
    "predict",
    "sse",
    "check_conformal",
]


@dataclass(frozen=True)
class Observation:
    """One response curve, its covariate curves, and scalar covariates.

    All curves must share start 0, the same step, and the same length;
    response and covariates are sampled on one common clock.
    """

    y: GridFunction
    x: tuple[GridFunction, ...]
    z: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        x = tuple(self.x)
        z = tuple(float(v) for v in self.z)
        if not x:
            raise ConformalityError("an observation needs at least one covariate curve")
        tol = 1e-9 * self.y.step
        if abs(self.y.start) > tol:
            raise ConformalityError(f"curves must start at 0, response starts at {self.y.start!r}")
        for j, xj in enumerate(x):
            if not self.y.combinable_with(xj):
                raise ConformalityError(
                    f"covariate {j} is not on the response grid "
                    f"(start={xj.start}, step={xj.step}, len={len(xj)})"
                )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def domain_length(self) -> float:
        return self.y.domain_length


@dataclass(frozen=True)
class Design:
    """A collection of observations sharing lags and grid step.

    Domain lengths may differ across observations; lags and lengths
    must be integer multiples of the step, and every domain must extend
    at least one step beyond the largest lag so the fitting range
    ``[alpha_star, T_i]`` carries positive measure.
    """

    observations: tuple[Observation, ...]
    lags: tuple[float, ...]
    step: float

    def __post_init__(self) -> None:
        observations = tuple(self.observations)
        lags = tuple(float(a) for a in self.lags)
        step = float(self.step)
        if not observations:
            raise ConformalityError("a design needs at least one observation")
        if not lags:
            raise ConformalityError("a design needs at least one lag")
        if step <= 0.0:
            raise GridError(f"step must be positive, got {step!r}")
        for a in lags:
            if a <= 0.0:
                raise GridError(f"lags must be positive, got {a!r}")
            snap_to_index(a / step, what=f"lag {a!r}")
        p = len(lags)
        d = len(observations[0].z)
        alpha_star = max(lags)
        tol = 1e-9 * step
        for i, obs in enumerate(observations):
            if len(obs.x) != p:
                raise ConformalityError(
                    f"observation {i} has {len(obs.x)} covariate curves, expected {p}"
                )
            if len(obs.z) != d:
                raise ConformalityError(
                    f"observation {i} has {len(obs.z)} scalar covariates, expected {d}"
                )
            if abs(obs.y.step - step) > tol:
                raise ConformalityError(
                    f"observation {i} uses step {obs.y.step!r}, design step is {step!r}"
                )
            snap_to_index(obs.domain_length / step, what=f"domain length of observation {i}")
            if obs.domain_length < alpha_star + step - tol:
                raise ConformalityError(
                    f"observation {i} spans [0, {obs.domain_length!r}], which leaves no "
                    f"room beyond the largest lag {alpha_star!r}"
                )
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "step", step)

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def p(self) -> int:
        return len(self.lags)

    @property
    def d(self) -> int:
        return len(self.observations[0].z)

    @property
    def alpha_star(self) -> float:
        return max(self.lags)

    def lag_lengths(self) -> tuple[int, ...]:
        """Number of grid intervals under each lag window."""
        return tuple(snap_to_index(a / self.step) for a in self.lags)

    def alpha_star_index(self) -> int:
        return snap_to_index(self.alpha_star / self.step)

    def rows(self, stride: int) -> tuple:
        """The regression rows ``stride`` grid steps apart, per observation.

        Observation ``i`` contributes ``(z, y, segments)``: its scalar
        covariates, the view ``y_i[k0::stride]`` of its responses at the
        row times ``t_r = alpha_star + r * stride * step`` and, per
        covariate ``j``, the view ``x_ij[k0 - L_j : t_last + 1]`` of its
        curve, in which row ``r``'s window ``x_ij(t_r - u)`` ends at
        sample ``L_j + stride * r``. Every assembly, prediction and
        residual reads its rows from here; no sample is copied.
        """
        k0 = self.alpha_star_index()
        lags = self.lag_lengths()
        rows = []
        for obs in self.observations:
            y = obs.y.values[k0::stride]
            end = k0 + stride * (y.size - 1) + 1
            rows.append((obs.z, y, tuple(xj.values[k0 - L : end] for xj, L in zip(obs.x, lags))))
        return tuple(rows)


@dataclass(frozen=True)
class CoefficientSet:
    """Model coefficients: intercept, scalar effects, and lag kernels.

    ``beta0[0]`` is the intercept, ``beta0[1:]`` the scalar-covariate
    coefficients. ``betas[j]`` lives on ``[0, alpha_j]`` with the design
    step; ``betas[j].values[0]`` is the instantaneous effect of
    covariate ``j``.
    """

    beta0: tuple[float, ...]
    betas: tuple[GridFunction, ...]

    def __post_init__(self) -> None:
        beta0 = tuple(float(v) for v in self.beta0)
        betas = tuple(self.betas)
        if not beta0:
            raise ConformalityError("beta0 must at least contain the intercept")
        if not betas:
            raise ConformalityError("at least one lag kernel is required")
        for j, b in enumerate(betas):
            if abs(b.start) > 1e-9 * b.step:
                raise ConformalityError(f"lag kernel {j} must start at 0, got {b.start!r}")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "betas", betas)

    @property
    def intercept(self) -> float:
        return self.beta0[0]


def check_conformal(design: Design, coef: CoefficientSet) -> None:
    """Raise :class:`ConformalityError` unless ``coef`` fits ``design``."""
    if len(coef.beta0) != design.d + 1:
        raise ConformalityError(
            f"beta0 has {len(coef.beta0)} entries, design needs {design.d + 1}"
        )
    if len(coef.betas) != design.p:
        raise ConformalityError(
            f"{len(coef.betas)} lag kernels for {design.p} functional covariates"
        )
    tol = 1e-9 * design.step
    for j, (b, length) in enumerate(zip(coef.betas, design.lag_lengths())):
        if abs(b.step - design.step) > tol:
            raise ConformalityError(
                f"lag kernel {j} uses step {b.step!r}, design step is {design.step!r}"
            )
        if len(b) != length + 1:
            raise ConformalityError(
                f"lag kernel {j} has {len(b)} samples, lag {design.lags[j]!r} needs {length + 1}"
            )


def delay_matrix(values: np.ndarray, rows: np.ndarray, L: int) -> np.ndarray:
    """Delay matrix ``H[r, l] = values[rows[r] - l]`` for ``l = 0 .. L``.

    Every row index must lie in ``[L, len(values))``. Column ``l`` times
    the trapezoid weight ``w_l`` of the lag grid is the share of the
    kernel sample at ``u = l * step`` in the convolution at each row's
    time. Rows are gathered from a sliding-window view, so no index
    array as large as ``H`` is formed.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, L + 1)
    return windows[np.asarray(rows) - L, ::-1]


def _lag_sum(x: np.ndarray, beta: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid lag sum ``sum_l w_l beta_l x[k - l]`` for every ``k``.

    Entries ``k < len(beta) - 1`` use a truncated window.
    """
    return np.convolve(x, quadrature_weights(beta.size, step) * beta)


def _predictions(rows, coef: CoefficientSet, step: float, stride: int):
    """Prediction at the rows of each observation in ``rows`` (see :meth:`Design.rows`).

    Yields, per observation, the level ``b00 + sum_k b0k z_k`` plus, in
    covariate order, the lag sum of each segment read at the rows.
    """
    for z, y, segments in rows:
        level = coef.beta0[0]
        for zk, bk in zip(z, coef.beta0[1:]):
            level += bk * zk
        out = np.full(y.size, level)
        for seg, bj in zip(segments, coef.betas):
            out += _lag_sum(seg, bj.values, step)[len(bj) - 1 : seg.size : stride]
        yield out


def predict(design: Design, coef: CoefficientSet, i: int) -> GridFunction:
    """Model prediction for observation ``i`` on ``[alpha_star, T_i]``."""
    check_conformal(design, coef)
    (out,) = _predictions([design.rows(1)[i]], coef, design.step, 1)
    return GridFunction(design.alpha_star, design.step, out)


def sse(design: Design, coef: CoefficientSet) -> float:
    """Sum over observations of the integrated squared prediction error.

    Each term is the trapezoid integral of ``(y_i - prediction)^2`` over
    ``[alpha_star, T_i]``. Observations are accumulated in index order
    so repeated evaluations are bit-reproducible.
    """
    check_conformal(design, coef)
    rows = design.rows(1)
    total = 0.0
    for (_, y, _), fitted in zip(rows, _predictions(rows, coef, design.step, 1)):
        resid = y - fitted
        w = quadrature_weights(resid.size, design.step)
        total += float(w @ (resid * resid))
    return total
