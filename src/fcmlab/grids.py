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

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from fcmlab.errors import GridError, ValidationError
from fcmlab.util import CELL_FORMAT, atomic_write, block_rows, read_text

__all__ = [
    "GridFunction",
    "quadrature_weights",
    "inner_product",
    "snap_to_index",
    "sample_times",
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
    are integer multiples of the grid step. A non-finite ``pos`` is
    never one.
    """
    if not np.isfinite(pos):
        raise GridError(f"{what} is not a finite multiple of the grid step (got {pos!r} steps)")
    k = round(pos)
    if abs(pos - k) > ALIGN_RTOL * max(1.0, abs(pos)):
        raise GridError(f"{what} is not an integer multiple of the grid step (got {pos!r} steps)")
    return int(k)


def sample_times(step: float, count: int, field: str) -> np.ndarray:
    """``step * arange(count)``: the first ``count`` times of a grid from 0.

    A grid too large to allocate raises :class:`ValidationError` naming
    the JSON path ``field`` that asked for it.
    """
    try:
        return step * np.arange(count)
    except (MemoryError, ValueError):  # numpy refuses a huge size with a ValueError
        raise ValidationError(
            f"a grid of {count:.3g} samples is too large to allocate", field=field
        ) from None


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


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Discrete L2 inner product ``integral of f * g`` on a shared grid.

    Symmetric by construction: the pointwise product commutes exactly
    and the summation order does not depend on the operand order.
    """
    f.require_combinable(g)
    return float(quadrature_weights(len(f), f.step) @ (f.values * g.values))


_CSV_HEADER = ("t", "value")


@lru_cache(maxsize=4)
def _row_template(start: float, step: float, k0: int, k1: int) -> str:
    """Rows ``k0`` to ``k1 - 1`` of a curve on the grid ``(start, step)``, values left as ``%.17g``.

    Each row holds its time, formatted with :data:`CELL_FORMAT`, and a
    value field, so one ``%`` with the block's values fills the rows.
    The times are those of :meth:`GridFunction.times`, bit for bit. All
    curves of a design share one grid, so each block is built once.
    """
    times = start + step * np.arange(k0, k1)
    return (CELL_FORMAT + ",%" + CELL_FORMAT + "\n") * times.size % tuple(times.tolist())


def write_grid_csv(path, f: GridFunction) -> None:
    """Write ``f`` atomically as a two-column CSV ``t,value`` with full precision.

    The bytes are those of :func:`fcmlab.util.write_csv` on the columns
    ``f.times()`` and ``f.values``, streamed in blocks of the same rows;
    only the value column is formatted per curve.
    """
    n = len(f)
    rows = block_rows(2)

    def blocks():
        yield ",".join(_CSV_HEADER) + "\n"
        for k0 in range(0, n, rows):
            k1 = min(k0 + rows, n)
            yield _row_template(f.start, f.step, k0, k1) % tuple(f.values[k0:k1].tolist())

    atomic_write(path, blocks())


def read_grid_csv(path) -> GridFunction:
    """Read a ``t,value`` CSV written on a uniform, strictly increasing grid.

    Empty lines are skipped. Every entry must be an unquoted finite number,
    as ``float()`` reads it, and spacing is validated to a relative
    tolerance of 1e-9; violations raise :class:`ValidationError` with the
    offending line number.
    """
    text = read_text(path)
    if not text:
        raise ValidationError("empty file", source=path, line=1)
    header, *lines = text.split("\n")
    if [c.strip() for c in header.split(",")] != list(_CSV_HEADER):
        raise ValidationError(f"expected header 't,value', got {header!r}", source=path, line=1)
    # Rows stay strings, and the cells one flat list: a list per row would
    # keep thousands of containers alive and wake the garbage collector.
    rows = list(filter(None, lines))
    cells = ",".join(rows).split(",") if rows else []
    # 2R cells hold R commas; if every row has one, every row has exactly one.
    samples = None
    if len(cells) == 2 * len(rows) and all(map(operator.contains, rows, repeat(","))):
        try:
            samples = np.fromiter(map(float, cells), float, len(cells)).reshape(len(rows), 2)
        except ValueError:
            pass
    if samples is None:
        _raise_first_bad_row(path, lines)
    if len(samples) < 2:
        raise ValidationError("need at least two samples", source=path)
    t, v = samples.T
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"non-finite entry {float(t[k])!r},{float(v[k])!r}", source=path, line=_row_line(lines, k)
        )
    gaps = np.diff(t)
    bad = np.flatnonzero(gaps <= 0.0)
    if bad.size:
        raise ValidationError(
            "times must be strictly increasing", source=path, line=_row_line(lines, int(bad[0]) + 1)
        )
    step = (t[-1] - t[0]) / (len(t) - 1)
    bad = np.nonzero(np.abs(gaps - step) > ALIGN_RTOL * step)[0]
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"non-uniform spacing: gap {float(gaps[k])!r} vs step {float(step)!r}",
            source=path,
            line=_row_line(lines, k + 1),
        )
    return GridFunction(float(t[0]), float(step), v)


def _row_line(lines: list[str], k: int) -> int:
    """File line of data row ``k``: ``lines`` follow the header, and empty ones hold no row."""
    return [lineno for lineno, line in enumerate(lines, start=2) if line][k]


def _raise_first_bad_row(path, lines: list[str]) -> None:
    """Raise for the first line that is not two numbers."""
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValidationError(f"expected 2 fields, got {len(fields)}", source=path, line=lineno)
        try:
            list(map(float, fields))
        except ValueError:
            raise ValidationError(f"non-numeric entry {fields!r}", source=path, line=lineno) from None
