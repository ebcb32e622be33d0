"""Uniform-grid sampled functions and trapezoid quadrature.

Every curve in the package (responses, covariates, lag kernels) is a
:class:`GridFunction`: samples on a uniform grid described by a start
point and a positive step. Quadrature is trapezoidal throughout, which
is exact for piecewise linear integrands and keeps every downstream
linear-algebra object an explicit weighted sum of samples.

Grid alignment is exact-match only. Binary operations never
interpolate; operands must live on the same grid (checked to a
relative tolerance of 1e-9 of the step, to absorb float formatting
round trips).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from fcmlab.errors import GridError, ValidationError
from fcmlab.util import atomic_write

__all__ = [
    "GridFunction",
    "quadrature_weights",
    "trapezoid_integral",
    "inner_product",
    "snap_to_index",
    "read_grid_csv",
    "write_grid_csv",
]

# Relative tolerance used when snapping times onto grid indices and when
# comparing grid descriptors. Matches the ingestion tolerance for CSVs.
ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class GridFunction:
    """A real function sampled on a uniform grid.

    Parameters
    ----------
    start : float
        Time of the first sample.
    step : float
        Grid spacing; must be strictly positive.
    values : array_like
        Samples at ``start + m * step`` for ``m = 0, ..., len - 1``.
        Copied to a read-only float64 array at construction.
    """

    start: float
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        step = float(self.step)
        if not np.isfinite(step) or step <= 0.0:
            raise GridError(f"step must be positive and finite, got {self.step!r}")
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise GridError(f"values must be one-dimensional, got shape {values.shape}")
        if values.size == 0:
            raise GridError("a grid function needs at least one sample")
        values.setflags(write=False)
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> float:
        """Time of the last sample."""
        return self.start + (len(self) - 1) * self.step

    @property
    def domain_length(self) -> float:
        return (len(self) - 1) * self.step

    def times(self) -> np.ndarray:
        """Sample times ``start + m * step``."""
        return self.start + self.step * np.arange(len(self))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same grid, new samples (must keep the length)."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise GridError(
                f"replacement values have length {values.size}, expected {len(self)}"
            )
        return GridFunction(self.start, self.step, values)

    def combinable_with(self, other: "GridFunction") -> bool:
        """True when both functions live on the same grid."""
        tol = ALIGN_RTOL * self.step
        return (
            len(self) == len(other)
            and abs(self.step - other.step) <= tol
            and abs(self.start - other.start) <= tol
        )

    def require_combinable(self, other: "GridFunction") -> None:
        if not self.combinable_with(other):
            raise GridError(
                "grids do not match: "
                f"(start={self.start}, step={self.step}, len={len(self)}) vs "
                f"(start={other.start}, step={other.step}, len={len(other)})"
            )

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``; ``t`` must sit on the grid."""
        pos = (float(t) - self.start) / self.step
        k = snap_to_index(pos, what=f"time {t!r}")
        if k < 0 or k >= len(self):
            raise GridError(f"time {t!r} lies outside the function domain")
        return k

    def restrict(self, t0: float, t1: float) -> "GridFunction":
        """Sub-function on ``[t0, t1]``; both ends must sit on the grid."""
        k0 = self.index_of(t0)
        k1 = self.index_of(t1)
        if k1 < k0:
            raise GridError(f"empty restriction [{t0!r}, {t1!r}]")
        return GridFunction(float(t0), self.step, self.values[k0 : k1 + 1])


def snap_to_index(pos: float, what: str = "value") -> int:
    """Round ``pos`` to the nearest integer, failing if it is not one.

    Used to validate that lags, domain lengths, and sampling intervals
    are integer multiples of the grid step.
    """
    k = round(pos)
    if abs(pos - k) > ALIGN_RTOL * max(1.0, abs(pos)):
        raise GridError(f"{what} is not an integer multiple of the grid step (got {pos!r} steps)")
    return int(k)


def quadrature_weights(n: int, step: float) -> np.ndarray:
    """Trapezoid weights for ``n`` samples spaced ``step`` apart.

    Returns ``step * [1/2, 1, ..., 1, 1/2]``. The endpoint halving is
    what makes the discrete normal equations the exact gradient of the
    discrete squared-error criterion downstream.
    """
    if n < 2:
        raise GridError("trapezoid quadrature needs at least two samples")
    w = np.full(n, float(step))
    w[0] = 0.5 * step
    w[-1] = 0.5 * step
    return w


def trapezoid_integral(f: GridFunction) -> float:
    """Trapezoid-rule integral of ``f`` over its whole domain."""
    return float(quadrature_weights(len(f), f.step) @ f.values)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Discrete L2 inner product ``integral of f * g`` on a shared grid.

    Symmetric by construction: the pointwise product commutes exactly
    and the summation order does not depend on the operand order.
    """
    f.require_combinable(g)
    return float(quadrature_weights(len(f), f.step) @ (f.values * g.values))


_CSV_HEADER = ("t", "value")


def write_grid_csv(path, f: GridFunction) -> None:
    """Write ``f`` atomically as a two-column CSV ``t,value`` with full precision.

    Curve files are small and a design has thousands of them, so each is
    formatted from Python floats into one string and written in one piece.
    """
    rows = [f"{t:.17g},{v:.17g}\n" for t, v in zip(f.times().tolist(), f.values.tolist())]
    atomic_write(path, ["t,value\n" + "".join(rows)])


def read_grid_csv(path) -> GridFunction:
    """Read a ``t,value`` CSV written on a uniform, strictly increasing grid.

    Every entry must be a finite number, and spacing is validated to a
    relative tolerance of 1e-9; violations raise :class:`ValidationError`
    with the offending line number.
    """
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty file", source=path, line=1) from None
        if [c.strip() for c in header] != list(_CSV_HEADER):
            raise ValidationError(
                f"expected header 't,value', got {','.join(header)!r}", source=path, line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(
                    f"expected 2 fields, got {len(row)}", source=path, line=lineno
                )
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError:
                raise ValidationError(
                    f"non-numeric entry {row!r}", source=path, line=lineno
                ) from None
    if len(times) < 2:
        raise ValidationError("need at least two samples", source=path)
    t = np.asarray(times)
    v = np.asarray(values)
    bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(v)))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"non-finite entry {times[k]!r},{values[k]!r}", source=path, line=k + 2
        )
    step = (t[-1] - t[0]) / (len(t) - 1)
    if step <= 0.0:
        raise ValidationError("times must be strictly increasing", source=path, line=2)
    gaps = np.diff(t)
    bad = np.nonzero(np.abs(gaps - step) > ALIGN_RTOL * step)[0]
    if bad.size:
        lineno = int(bad[0]) + 3
        raise ValidationError(
            f"non-uniform spacing: gap {gaps[bad[0]]!r} vs step {step!r}",
            source=path,
            line=lineno,
        )
    return GridFunction(float(t[0]), float(step), v)
