import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dsytrf, dsytrf_lwork

from fcmlab import identifiability
from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_design
from fcmlab.errors import NearSingularError, ValidationError
from fcmlab.estimator import _lag_shift_fill
from fcmlab.grids import ALIGN_RTOL, GridFunction
from fcmlab.identifiability import SelfSimilarityReport
from fcmlab.model import CoefficientIndexMap, CoefficientSet, Design, Observation, RowSet, delay_matrix
from fcmlab.util import write_csv


@pytest.fixture
def noisy_design():
    """Small full-rank design: one broadband covariate, 9-sample kernel."""
    step = 1.0 / 16.0
    spec = GeneratorSpec(
        "filtered_noise", 1.5, step, seed=11,
        params={"n_modes": 64, "max_frequency": 6.0, "bandwidth": 0.02},
    )
    u = step * np.arange(9)
    beta = CoefficientSet(
        (0.7, -0.3),
        (GridFunction(0.0, step, np.sin(2.0 * np.pi * u) + 0.5),),
    )
    design, truth = gen_design(
        [spec], beta, NoiseSpec("white", sd=0.1), n=2, seed=21
    )
    return design, truth


@pytest.fixture
def noiseless_design():
    """Same layout as noisy_design but sd=0, so y is the exact forward map."""
    step = 1.0 / 16.0
    spec = GeneratorSpec(
        "filtered_noise", 1.5, step, seed=13,
        params={"n_modes": 64, "max_frequency": 6.0, "bandwidth": 0.02},
    )
    u = step * np.arange(9)
    beta = CoefficientSet(
        (0.4,),
        (GridFunction(0.0, step, np.exp(-u) * np.cos(np.pi * u)),),
    )
    design, truth = gen_design(
        [spec], beta, NoiseSpec("white", sd=0.0), n=3, seed=5
    )
    return design, truth


@pytest.fixture
def deficient_design():
    """Three-tone covariate with a 13-sample window: kernel block rank 7."""
    step = 1.0 / 16.0
    u = step * np.arange(13)
    beta = CoefficientSet(
        (0.5,), (GridFunction(0.0, step, np.sin(2.0 * np.pi * u) + 0.3),)
    )
    design, truth = gen_design(
        [GeneratorSpec("sinusoid_rich", 3.0, step, params={"K": 3})],
        beta,
        NoiseSpec("white", sd=0.05),
        n=2,
        seed=7,
    )
    return design, truth


@pytest.fixture
def unequal_design():
    """Two covariates with lags 0.25 and 0.5, one scalar, unequal lengths."""
    step = 1.0 / 16.0
    rng = np.random.default_rng(3)
    observations = []
    for n_pts, z in ((33, 0.5), (41, -1.2), (25, 2.0)):
        y = GridFunction(0.0, step, rng.standard_normal(n_pts))
        xs = tuple(GridFunction(0.0, step, rng.standard_normal(n_pts)) for _ in range(2))
        observations.append(Observation(y, xs, (z,)))
    return Design(tuple(observations), (0.25, 0.5), step)


# The dense reference. `assemble` and `flm_normal_equations` never form
# regression rows; the tests compare them with the rows built here.


def dense_rows(imap: CoefficientIndexMap, z, windows) -> np.ndarray:
    """Regression rows ``[1, z, w * windows]`` in the layout of ``imap``.

    ``z`` holds the scalar covariates (one row per regression row, or
    one row for all); ``windows[j]`` is covariate ``j``'s delay matrix,
    scaled here by the lag quadrature weights ``w``, so that
    ``rows @ c`` is the prediction.
    """
    A = np.zeros((windows[0].shape[0], imap.size))
    A[:, 0] = 1.0
    A[:, 1 : imap.d + 1] = z
    w = imap.lag_weights()
    for j, H in enumerate(windows):
        sl = imap.covariate_slice(j)
        A[:, sl] = H * w[sl]
    return A


def observation_rows(design: Design, i: int, t_indices) -> tuple[np.ndarray, np.ndarray]:
    """Dense rows of observation ``i`` at the grid indices ``t_indices``, and its responses there."""
    imap = CoefficientIndexMap.from_design(design)
    obs = design.observations[i]
    t_indices = np.asarray(t_indices, dtype=int)
    windows = [delay_matrix(xj.values, t_indices, s - 1) for xj, s in zip(obs.x, imap.sizes)]
    return dense_rows(imap, obs.z, windows), obs.y.values[t_indices]


def flm_windows(data: RowSet) -> tuple[np.ndarray, ...]:
    """``windows[j][r]``: covariate ``j`` of row ``r`` reversed onto its lag grid."""
    return tuple(
        np.concatenate([delay_matrix(segs[j], L + data.stride * np.arange(y.size), L) for _, y, segs in data.observations])
        for j, L in enumerate(size - 1 for size in data.index_map.sizes)
    )


def flm_rows(data: RowSet) -> tuple[np.ndarray, np.ndarray]:
    """The dense row matrix ``A`` of the down-sampled regression, and its responses."""
    z = np.concatenate([np.tile(z, (y.size, 1)) for z, y, _ in data.observations])
    y = np.concatenate([y for _, y, _ in data.observations])
    return dense_rows(data.index_map, z, flm_windows(data)), y


# The reference curve writer: the generic CSV writer on the time and
# value columns. `write_grid_csv`, which formats a grid's times once for
# every curve on it, must write the same bytes.


def write_csv_grid(path, f: GridFunction) -> None:
    """Write ``f`` as ``t,value`` rows through ``util.write_csv``."""
    write_csv(path, ("t", "value"), [f.times(), f.values])


# The reference curve reader: `csv.reader` with one `float()` per cell,
# and a second parse of the file to find a sample's line. The tests
# compare `read_grid_csv`, which reads and parses each file once, with it.


def csv_reader_grid(path) -> GridFunction:
    """Read a ``t,value`` curve CSV the way ``csv.reader`` splits it."""
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty file", source=path, line=1) from None
        if [c.strip() for c in header] != ["t", "value"]:
            raise ValidationError(
                f"expected header 't,value', got {','.join(header)!r}", source=path, line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"expected 2 fields, got {len(row)}", source=path, line=lineno)
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError:
                raise ValidationError(f"non-numeric entry {row!r}", source=path, line=lineno) from None
    if len(times) < 2:
        raise ValidationError("need at least two samples", source=path)
    t = np.asarray(times)
    v = np.asarray(values)
    bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(v)))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"non-finite entry {times[k]!r},{values[k]!r}", source=path, line=_sample_line(path, k)
        )
    gaps = np.diff(t)
    bad = np.flatnonzero(gaps <= 0.0)
    if bad.size:
        raise ValidationError(
            "times must be strictly increasing", source=path, line=_sample_line(path, int(bad[0]) + 1)
        )
    step = (t[-1] - t[0]) / (len(t) - 1)
    bad = np.nonzero(np.abs(gaps - step) > ALIGN_RTOL * step)[0]
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"non-uniform spacing: gap {float(gaps[k])!r} vs step {float(step)!r}",
            source=path,
            line=_sample_line(path, k + 1),
        )
    return GridFunction(float(t[0]), float(step), v)


def _sample_line(path, k: int) -> int:
    """File line of sample ``k`` of a curve CSV, counting past the header and blank lines."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [reader.line_num for row in reader if row][k]


# The reference curve analysis: the broadband certificate, decided by
# the `dsytrf` inertia count, on the Gram of the delay embedding `H`
# first, then the singular values for every curve it does not certify.
# Both run on the curve scaled by the power of two that brings its
# largest sample into [0.5, 1), as in `_analyze_curves`. `_analyze_curves`,
# which forms the Grams from the curves without `H`, decides the
# certificate through one pivoted Cholesky pass per curve and stacks
# same-shape curves into one SVD, must give the same reports, one curve
# at a time.


def embedding_gram(H: np.ndarray) -> np.ndarray:
    """``H' H`` for a delay embedding ``H``, from its first row ``H[:, 0] @ H`` and its end rows."""
    first = H[:, 0] @ H
    U, V = H[0][:, None], H[-1][:, None]
    return _lag_shift_fill(first[None], first[None], U, U, V, V, 1)[0]


def positive_inertia(A: np.ndarray) -> int:
    """Number of positive eigenvalues of the symmetric ``A``, which is overwritten.

    By Sylvester's law of inertia this is the number of positive
    eigenvalues of ``D`` in the Bunch-Kaufman factorization ``A = L D
    L'`` (LAPACK ``dsytrf``; Bunch & Kaufman, Math. Comp. 31, 1977).
    ``D`` holds 1x1 and 2x2 blocks. Bunch-Kaufman pivoting takes a 2x2
    block only when its determinant is negative, so that it has one
    eigenvalue of each sign, and such a block counts once; any other
    2x2 block, and a factor that is not finite, would undercount.
    """
    lwork = int(dsytrf_lwork(A.shape[0], lower=1)[0])
    ldu, ipiv, _ = dsytrf(A, lower=1, lwork=lwork, overwrite_a=1)
    d = np.diagonal(ldu)
    if not np.all(np.isfinite(d)):
        return 0
    k = np.flatnonzero(ipiv < 0)  # 2x2 blocks: consecutive pairs (k, k+1)
    det = d[k[0::2]] * d[k[1::2]] - ldu[k[1::2], k[0::2]] ** 2
    return int(np.count_nonzero((ipiv > 0) & (d > 0.0)) + np.count_nonzero(det < 0.0))


def certified_broadband(H: np.ndarray, tol: float) -> bool:
    """The broadband certificate on ``M = embedding_gram(H)``, decided by the ``dsytrf`` inertia of ``M - theta I``.

    ``theta`` is the threshold of ``identifiability._gram_thresholds`` for
    ``n`` columns over a curve of ``R + n - 1`` samples. The curve is
    certified when more than ``n // 2`` eigenvalues of ``M`` exceed
    ``theta``.
    """
    R, n = H.shape
    M = embedding_gram(H)
    rho = 8.0 * n * (R + 2 * n - 1) * np.finfo(float).eps
    M[np.diag_indices(n)] -= (float(tol) ** 2 + rho) * float(np.trace(M))
    return positive_inertia(M) > n // 2


def certificate_first_report(x: GridFunction, alpha: float, tol: float) -> SelfSimilarityReport:
    """The self-similarity report of ``x`` with the certificate consulted first."""
    e = int(np.frexp(np.max(np.abs(x.values)))[1])
    x = x.with_values(np.ldexp(x.values, -e))
    H = identifiability.delay_embed(x, alpha)
    if certified_broadband(H, tol):
        return SelfSimilarityReport(None, None, None, None)
    s = np.ldexp(np.linalg.svd(H, compute_uv=False), e)
    order = 1 + int(np.argmax(identifiability._tail_energy(s)[1:] < tol))
    report = SelfSimilarityReport(s, order, None, None)
    if not report.finite_dimensional or len(x) < 3 * order:
        return report
    try:
        coeffs = identifiability.fit_recurrence(x, order)
    except NearSingularError:
        return report
    modes = identifiability.recurrence_modes(coeffs, x.step)
    return replace(report, recurrence_coeffs=coeffs, modes=modes)


def assert_same_report(got: SelfSimilarityReport, expected: SelfSimilarityReport) -> None:
    """Singular values and coefficients bit for bit; the same order and modes."""

    def raw(values):
        return None if values is None else values.tobytes()

    assert raw(got.singular_values) == raw(expected.singular_values)
    assert got.estimated_order == expected.estimated_order
    assert raw(got.recurrence_coeffs) == raw(expected.recurrence_coeffs)
    assert repr(got.modes) == repr(expected.modes)


# The reference residual writer: every curve's rows, then their
# concatenation, through `write_csv`. `write_residual_curves_csv`, which
# streams one curve at a time, must write the same bytes.


def write_residual_curves_whole(path, report) -> None:
    """Write every residual-vs-order curve of ``report`` from one table of all rows."""
    rows = [
        np.column_stack([np.full(c.size, i), np.full(c.size, j), np.arange(c.size), c])
        for i, row in enumerate(report.covariate_reports)
        for j, rep in enumerate(row)
        if (c := rep.residual_curve) is not None
    ]
    rows = np.concatenate(rows) if rows else np.empty((0, 4))
    write_csv(path, ["observation", "covariate", "K", "residual"], [rows])


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak of the memory traced during the call, in bytes.

    The peak counts what the call allocated beyond what was traced when
    it began; numpy reports its array buffers to ``tracemalloc``.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak
