"""Functional convolution regression model on gridded data.

An observation pairs a response curve ``y`` on ``[0, T]`` with ``p``
covariate curves on the same grid and optional scalar covariates. The
model predicts

    y(t) = b00 + sum_k b0k * z_k + sum_j integral_0^alpha_j b_j(u) x_j(t - u) du

on ``t in [alpha_star, T]`` where ``alpha_star = max_j alpha_j``; earlier
times would need covariate history from before 0 and are excluded from
prediction and from the squared-error criterion. All integrals are
trapezoid sums on the shared grid.

The regression rows are cut in one place, :meth:`Design.rows`, as a
:class:`RowSet` of views into the curves that carries its coefficient
layout; normal-equation assembly, prediction, the criterion and the
quadratic form of the Gram operator all read that row set, and one
private routine computes the prediction over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fcmlab.errors import ConformalityError, GridError
from fcmlab.grids import ALIGN_RTOL, GridFunction, quadrature_weights, snap_to_index

__all__ = [
    "Observation",
    "Design",
    "CoefficientSet",
    "CoefficientIndexMap",
    "RowSet",
    "delay_matrix",
    "predict",
    "sse",
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
        tol = ALIGN_RTOL * self.y.step
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
        tol = ALIGN_RTOL * step
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

    @cached_property
    def index_map(self) -> CoefficientIndexMap:
        """Layout of the coefficient vector of this design."""
        return CoefficientIndexMap.from_parts(self.d, self.lags, self.step)

    def rows(self, stride: int) -> RowSet:
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
        return RowSet(self.index_map, stride, tuple(rows))


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
            if abs(b.start) > ALIGN_RTOL * b.step:
                raise ConformalityError(f"lag kernel {j} must start at 0, got {b.start!r}")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "betas", betas)

    @property
    def intercept(self) -> float:
        return self.beta0[0]


@dataclass(frozen=True)
class CoefficientIndexMap:
    """Layout of the stacked coefficient vector.

    Row 0 is the intercept, rows ``1 .. d`` the scalar coefficients,
    followed by one contiguous block of ``L_j + 1`` kernel samples per
    functional covariate.
    """

    d: int
    lags: tuple[float, ...]
    step: float
    sizes: tuple[int, ...]
    offsets: tuple[int, ...]
    size: int

    @classmethod
    def from_parts(cls, d: int, lags: tuple[float, ...], step: float) -> "CoefficientIndexMap":
        sizes = tuple(snap_to_index(a / step, what=f"lag {a!r}") + 1 for a in lags)
        offsets = []
        pos = d + 1
        for s in sizes:
            offsets.append(pos)
            pos += s
        return cls(int(d), tuple(float(a) for a in lags), float(step), sizes, tuple(offsets), pos)

    @classmethod
    def from_design(cls, design: Design) -> "CoefficientIndexMap":
        return design.index_map

    def covariate_slice(self, j: int) -> slice:
        return slice(self.offsets[j], self.offsets[j] + self.sizes[j])

    @property
    def covariate_block(self) -> slice:
        """All functional-covariate rows (everything past intercept and scalars)."""
        return slice(self.d + 1, self.size)

    def lag_weights(self) -> np.ndarray:
        """Per-entry quadrature weights: 1 for intercept/scalars, trapezoid in u."""
        w = np.ones(self.size)
        for j, sl in enumerate(self.covariate_slice(j) for j in range(len(self.lags))):
            w[sl] = quadrature_weights(self.sizes[j], self.step)
        return w

    def pack(self, coef: CoefficientSet) -> np.ndarray:
        """Stack ``coef`` into one vector; :class:`ConformalityError` unless it fits.

        This is the one conformality check of coefficients against a
        design: the number of scalar coefficients and of lag kernels,
        and each kernel's step and length.
        """
        if len(coef.beta0) != self.d + 1:
            raise ConformalityError(f"beta0 has {len(coef.beta0)} entries, design needs {self.d + 1}")
        if len(coef.betas) != len(self.lags):
            raise ConformalityError(
                f"{len(coef.betas)} lag kernels for {len(self.lags)} functional covariates"
            )
        c = np.empty(self.size)
        c[: self.d + 1] = coef.beta0
        for j, b in enumerate(coef.betas):
            if abs(b.step - self.step) > ALIGN_RTOL * self.step:
                raise ConformalityError(
                    f"lag kernel {j} uses step {b.step!r}, design step is {self.step!r}"
                )
            if len(b) != self.sizes[j]:
                raise ConformalityError(
                    f"lag kernel {j} has {len(b)} samples, lag {self.lags[j]!r} needs {self.sizes[j]}"
                )
            c[self.covariate_slice(j)] = b.values
        return c

    def unpack(self, c: np.ndarray) -> CoefficientSet:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.size,):
            raise ConformalityError(f"coefficient vector has shape {c.shape}, expected ({self.size},)")
        beta0 = tuple(float(v) for v in c[: self.d + 1])
        betas = tuple(
            GridFunction(0.0, self.step, c[self.covariate_slice(j)])
            for j in range(len(self.lags))
        )
        return CoefficientSet(beta0, betas)


@dataclass(frozen=True)
class RowSet:
    """Regression rows ``stride`` grid steps apart, with their coefficient layout.

    ``observations`` holds, per observation, ``(z, y, segments)`` as
    :meth:`Design.rows` cuts them: views into the design's curves, so a
    row set holds no array of its own and no window is ever formed.
    """

    index_map: CoefficientIndexMap
    stride: int
    observations: tuple

    @property
    def row_count(self) -> int:
        return sum(y.size for _, y, _ in self.observations)


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


def _predictions(rows: RowSet, coef: CoefficientSet):
    """Prediction at each observation's rows in ``rows``.

    Yields, per observation, the level ``b00 + sum_k b0k z_k`` plus, in
    covariate order, the lag sum of each segment read at the rows.
    ``coef`` is checked against the layout of ``rows`` before the first
    prediction.
    """
    rows.index_map.pack(coef)
    step, stride = rows.index_map.step, rows.stride
    for z, y, segments in rows.observations:
        level = coef.beta0[0]
        for zk, bk in zip(z, coef.beta0[1:]):
            level += bk * zk
        out = np.full(y.size, level)
        for seg, bj in zip(segments, coef.betas):
            out += _lag_sum(seg, bj.values, step)[len(bj) - 1 : seg.size : stride]
        yield out


def predict(design: Design, coef: CoefficientSet, i: int) -> GridFunction:
    """Model prediction for observation ``i`` on ``[alpha_star, T_i]``."""
    rows = design.rows(1)
    (out,) = _predictions(RowSet(rows.index_map, 1, (rows.observations[i],)), coef)
    return GridFunction(design.alpha_star, design.step, out)


def sse(design: Design, coef: CoefficientSet) -> float:
    """Sum over observations of the integrated squared prediction error.

    Each term is the trapezoid integral of ``(y_i - prediction)^2`` over
    ``[alpha_star, T_i]``. Observations are accumulated in index order
    so repeated evaluations are bit-reproducible.
    """
    rows = design.rows(1)
    total = 0.0
    for (_, y, _), fitted in zip(rows.observations, _predictions(rows, coef)):
        resid = y - fitted
        w = quadrature_weights(resid.size, design.step)
        total += float(w @ (resid * resid))
    return total
