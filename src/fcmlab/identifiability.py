"""Identifiability diagnostics for convolution regression designs.

Two complementary views are implemented. The spectral view
eigendecomposes the covariate block of the assembled normal matrix in
the quadrature-weighted geometry: a design identifies its lag kernels
exactly when that block has full numerical rank, and the near-null
eigenvectors are certificates of directions the data cannot see.

The structural view explains rank deficits through self-similarity of
individual covariate curves. A curve whose shifts span a
finite-dimensional space satisfies a fixed-order linear recurrence on
the grid and is a finite combination of polynomial-exponential-
sinusoid modes; its delay-embedding matrix then has low rank. The
detector sweeps the recurrence order, reports the tail singular-value
energy at each order, and recovers the continuous-time mode parameters
from the recurrence roots. A curve whose embedding Gram has too many
eigenvalues above the tolerance to be explained by half of its
spectrum is certified broadband with no singular value decomposition.
The Gram comes from the curve's autocorrelation and end samples; only
the singular values form the embedding matrix. One greedy pivoted
Cholesky pass over the Gram decides each curve. If pivots on at most
half of its columns leave a trace no larger than the threshold, the
curve is not certified; if one pivot more is needed, and the Gram less
the threshold has a Cholesky factor on the pivot rows, it is. Only
otherwise are its eigenvalues counted exactly. Curves are analyzed in
stacks of one sample count and one window, a chunk at a time. A chunk
fills its Grams at once, makes one singular value decomposition call
for the embeddings the certificate leaves, and one eigenvalue call for
the characteristic roots of its recurrences of each order. Each report
is bit for bit the one the curve gets when analyzed alone. numpy is
the only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from fcmlab.errors import GridError, NearSingularError
from fcmlab.estimator import GramSystem, _lag_shift_fill, assemble
from fcmlab.grids import GridFunction, quadrature_weights, snap_to_index
from fcmlab.model import CoefficientSet, Design, _predictions, delay_matrix
from fcmlab.util import DEFAULT_RESIDUAL_TOL, numerical_rank

__all__ = [
    "SpectrumReport",
    "Mode",
    "SelfSimilarityReport",
    "DiagnosisReport",
    "quadratic_form",
    "gram_spectrum",
    "delay_embed",
    "fit_recurrence",
    "recurrence_modes",
    "self_similarity_residual",
    "diagnose",
]

# Recurrence roots closer than this are merged into one repeated mode.
ROOT_CLUSTER_TOL = 1e-6


def quadratic_form(design: Design, coef: CoefficientSet) -> float:
    """Energy of the lag kernels under the design's Gram operator.

    Computed forward, without assembling the normal matrix: the
    prediction of the kernels alone (zero level) over the design's rows
    on ``[alpha_star, T_i]`` is formed as :func:`fcmlab.model.predict`
    forms it, and its trapezoid-integrated square is accumulated over
    observations. Intercept and scalar entries of ``coef`` are ignored.
    Nonnegative up to rounding, and zero exactly on directions the
    design cannot distinguish from the zero kernel.
    """
    kernels_only = CoefficientSet((0.0,) * len(coef.beta0), coef.betas)
    total = 0.0
    for c in _predictions(design.rows(1), kernels_only):
        w = quadrature_weights(c.size, design.step)
        total += float(w @ (c * c))
    return total


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the covariate block of the normal matrix.

    ``eigenvalues`` are sorted descending in the weighted geometry;
    ``numerical_rank`` counts those at or above ``tol`` times the
    largest. ``_system`` is the assembled system they come from.
    """

    eigenvalues: np.ndarray
    numerical_rank: int
    tol: float
    _system: GramSystem = field(repr=False, compare=False)

    @property
    def block_size(self) -> int:
        return self.eigenvalues.size

    @property
    def full_rank(self) -> bool:
        return self.numerical_rank == self.block_size

    @cached_property
    def null_basis(self) -> tuple[CoefficientSet, ...]:
        """Coefficient directions spanning the numerically unseen subspace.

        They have zero intercept and scalar parts, are orthonormal in the
        quadrature-weighted inner product, and follow the order of the
        ``block_size - numerical_rank`` smallest eigenvalues. Built on
        first access from an eigendecomposition of the block with
        vectors, since :func:`gram_spectrum` decomposes values only.
        """
        if self.full_rank:
            return ()
        imap = self._system.index_map
        blk = imap.covariate_block
        _, vecs, S = self._system.weighted_eigh(blk)
        basis = []
        for k in range(self.block_size - self.numerical_rank - 1, -1, -1):
            c = np.zeros(imap.size)
            c[blk] = vecs[:, k] / S
            basis.append(imap.unpack(c))
        return tuple(basis)


def gram_spectrum(system: GramSystem, tol: float) -> SpectrumReport:
    """Eigenvalues of the covariate block of ``G`` in weighted form.

    The block is symmetrized by the square roots of the lag quadrature
    weights before the decomposition, so eigenvalues approximate the
    continuous Gram operator's spectrum. The decomposition computes
    values only; the report's ``null_basis`` decomposes the block again,
    with vectors, when it is first read.
    """
    evals = system.weighted_eigh(system.index_map.covariate_block, vectors=False)[0][::-1]
    evals.setflags(write=False)
    return SpectrumReport(evals, numerical_rank(evals, tol), float(tol), system)


def delay_embed(x: GridFunction, alpha: float) -> np.ndarray:
    """Delay-embedding matrix ``H[l, m] = x(t_l - u_m)``.

    Columns run over the lag grid ``u_m = m * step`` on ``[0, alpha]``;
    rows run over the grid times ``t_l`` from ``alpha`` to the end of the
    domain. The rank of ``H`` is the dimension of the sampled shift
    family of ``x`` over that window.
    """
    L = _window_steps(x, alpha)
    return delay_matrix(x.values, np.arange(L, len(x)), L)


def _window_steps(x: GridFunction, alpha: float) -> int:
    """Grid steps ``L`` of the embedding window ``alpha``: at least one, and fewer than ``len(x)``."""
    L = snap_to_index(float(alpha) / x.step, what=f"window {alpha!r}")
    if L < 1:
        raise GridError(f"window {alpha!r} must span at least one step")
    if len(x) - 1 < L:
        raise GridError("curve domain is shorter than the embedding window")
    return L


def fit_recurrence(x: GridFunction, order: int) -> np.ndarray:
    """Least-squares linear recurrence of the given order.

    Fits ``x(t) ~ sum_k c_k x(t - k * step)`` over all grid times with a
    full history, returning ``(c_1, ..., c_order)``. Needs at least
    ``3 * order`` samples. If the regressor matrix is rank deficient
    (the curve already satisfies a shorter recurrence), raises
    :class:`NearSingularError` rather than returning one of the many
    minimizers. The regression runs on ``x`` scaled by the power of two
    that brings its largest absolute sample into ``[0.5, 1)``, as
    :func:`_analyze_curves` does, so a curve and its exact multiples by
    powers of two get the same coefficients or the same error. The
    eigenvalues the error reports are scaled back, and saturate at zero
    or infinity rather than overflow.
    """
    if int(order) != order or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    order = int(order)
    n = len(x)
    if n < 3 * order:
        raise GridError(
            f"need at least {3 * order} samples to fit an order-{order} recurrence, got {n}"
        )
    e = _exponent(x.values)
    H = delay_matrix(np.ldexp(x.values, -e), np.arange(order, n), order)
    coeffs, _, rank, sv = np.linalg.lstsq(H[:, 1:], H[:, 0], rcond=None)
    if rank < order:
        with np.errstate(over="ignore"):
            small, large = np.ldexp(np.square(sv[[-1, 0]]), 2 * e)
        raise NearSingularError(small, large)
    return coeffs


@dataclass(frozen=True)
class Mode:
    """One continuous-time mode ``t^(multiplicity-1) * exp(a t) * osc(b t)``.

    ``conjugate_pair`` marks modes recovered from a complex root pair;
    such a mode spans both a sine and a cosine component, so it counts
    two dimensions per multiplicity.
    """

    a: float
    b: float
    multiplicity: int
    conjugate_pair: bool

    @property
    def dimension(self) -> int:
        return self.multiplicity * (2 if self.conjugate_pair else 1)


def recurrence_modes(coeffs: np.ndarray, step: float) -> tuple[Mode, ...]:
    """Continuous-time modes implied by recurrence coefficients.

    The characteristic roots ``rho`` of the recurrence are clustered
    (radius 1e-6) to recover multiplicities, conjugate pairs are merged,
    and each cluster is mapped to ``a = log|rho| / step`` and
    ``b = arg(rho) / step``. Modes are sorted by descending ``a``.
    """
    return _modes(_characteristic_roots([np.asarray(coeffs, dtype=float)])[0], step)


def _characteristic_roots(coeffs: list[np.ndarray]) -> list[list]:
    """The roots of ``z^K - c_1 z^(K-1) - ... - c_K`` for each coefficient vector, as ``np.roots`` gives them.

    ``np.roots`` drops trailing zero coefficients as zero roots and takes
    the eigenvalues of the companion matrix of the rest; its roots are
    real when every eigenvalue is. Here the companion matrices of one
    size are stacked into one ``np.linalg.eigvals`` call, which
    decomposes each matrix of the stack as a call of its own would, so
    every list holds the roots of ``np.roots``, bit for bit and in its
    order.
    """
    roots: list = [None] * len(coeffs)
    by_size: dict[int, list[int]] = {}
    for i, c in enumerate(coeffs):
        nonzero = np.flatnonzero(c)
        by_size.setdefault(int(nonzero[-1]) + 1 if nonzero.size else 0, []).append(i)
    for k, members in by_size.items():
        if k == 0:
            values = np.empty((len(members), 0))
        else:
            companion = np.zeros((len(members), k, k))
            companion[:, 0] = [coeffs[i][:k] for i in members]
            companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
            values = np.linalg.eigvals(companion)
        for i, w in zip(members, values):
            if not np.any(w.imag):
                w = w.real
            roots[i] = np.concatenate((w, np.zeros(coeffs[i].size - k, w.dtype))).tolist()
    return roots


def _modes(roots: list, step: float) -> tuple[Mode, ...]:
    """The modes of :func:`recurrence_modes` from the characteristic roots."""
    clusters: list[list[complex]] = []
    centers: list[complex] = []  # the mean of each cluster, updated when it grows
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for q, center in enumerate(centers):
            if abs(r - center) <= ROOT_CLUSTER_TOL:
                clusters[q].append(r)
                centers[q] = complex(np.mean(clusters[q]))
                break
        else:
            clusters.append([r])
            centers.append(r)
    modes: list[Mode] = []
    seen_conjugate: set[int] = set()
    for idx, (cluster, center) in enumerate(zip(clusters, centers)):
        if idx in seen_conjugate:
            continue
        mult = len(cluster)
        if abs(center.imag) <= ROOT_CLUSTER_TOL:
            rho = abs(center.real)
            a = float(np.log(rho) / step) if rho > 0.0 else float("-inf")
            b = 0.0 if center.real >= 0.0 else float(np.pi / step)
            modes.append(Mode(a, b, mult, conjugate_pair=False))
        else:
            # Pair the cluster with its conjugate; both describe one mode.
            for other_idx, other in enumerate(centers):
                if other_idx != idx and abs(other - center.conjugate()) <= ROOT_CLUSTER_TOL:
                    seen_conjugate.add(other_idx)
                    break
            a = float(np.log(abs(center)) / step)
            b = float(abs(np.angle(center)) / step)
            modes.append(Mode(a, b, mult, conjugate_pair=True))
    modes.sort(key=lambda m: (-m.a, m.b))
    return tuple(modes)


def _exponent(values: np.ndarray) -> int:
    """The binary exponent of the largest absolute entry of ``values``: 0 for an empty or all-zero array."""
    return int(np.frexp(np.max(np.abs(values), initial=0.0))[1])


def _tail_energy(s: np.ndarray) -> np.ndarray:
    """Relative tail energy ``||s[K:]|| / ||s||`` for every ``K = 0 .. len(s)``.

    The last entry is zero by construction; an all-zero spectrum gives
    all zeros. ``s`` is scaled by the power of two that brings its
    largest entry into ``[0.5, 1)``, so no square overflows; the scaling
    is exact and cancels in the ratio.
    """
    s = np.ldexp(s, -_exponent(s))
    total = float(np.linalg.norm(s))
    if total == 0.0:
        return np.zeros(s.size + 1)
    tails = np.sqrt(np.concatenate((np.cumsum((s**2)[::-1])[::-1], [0.0])))
    return tails / total


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Self-similarity analysis of one covariate curve.

    ``singular_values`` come from the delay-embedding matrix.
    ``estimated_order`` is the smallest order ``K >= 1`` whose relative
    tail energy falls below the detection tolerance; the tail at the
    full spectrum length is zero, so the search always ends there at
    the latest. ``recurrence_coeffs`` and ``modes`` are populated when
    the order is parsimonious (see :attr:`finite_dimensional`) and the
    recurrence at that order is well posed; otherwise they are None.
    A curve certified broadband (see :func:`_inertia_certifies`) has
    no singular values and no order: both are None, and so are its
    residual and residual curve.
    """

    singular_values: np.ndarray | None
    estimated_order: int | None
    recurrence_coeffs: np.ndarray | None
    modes: tuple[Mode, ...] | None

    @cached_property
    def residual_curve(self) -> np.ndarray | None:
        """Relative tail energy for every order ``K = 0 .. len(sigma)``, computed once per report."""
        if self.singular_values is None:
            return None
        curve = _tail_energy(self.singular_values)
        curve.setflags(write=False)
        return curve

    @property
    def residual(self) -> float | None:
        """Relative misfit of the best approximation at the estimated order."""
        if self.estimated_order is None:
            return None
        return float(self.residual_curve[self.estimated_order])

    @property
    def finite_dimensional(self) -> bool:
        """True when the curve is explained by at most half the embedding spectrum.

        An order that needs more than half of the singular values is not
        a parsimonious explanation: broadband curves reach the detection
        tolerance only there, as the spectrum runs out. A certified
        broadband curve, which has no order, is never finite-dimensional.
        """
        if self.estimated_order is None:
            return False
        return self.estimated_order <= self.singular_values.size // 2


def self_similarity_residual(
    x: GridFunction,
    order: int,
    alpha: float | None = None,
) -> float:
    """Relative tail energy of the delay embedding beyond ``order`` modes.

    A value near zero means the shifts of ``x`` are explained by an
    ``order``-dimensional family (equivalently a linear recurrence of
    that order); broadband curves stay bounded away from zero for all
    orders well below the window size. ``alpha`` defaults to half the
    domain of ``x``, rounded down to the grid.
    """
    if int(order) != order or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if alpha is None:
        half = (len(x) - 1) // 2
        if half < 1:
            raise GridError("curve is too short for a default embedding window")
        alpha = half * x.step
    H = delay_embed(x, alpha)
    if order > H.shape[1]:
        raise ValueError(
            f"order {order} exceeds the {H.shape[1]} embedding columns"
        )
    s = np.linalg.svd(H, compute_uv=False)
    return float(_tail_energy(s)[int(order)])


@dataclass(frozen=True)
class DiagnosisReport:
    """Joint identifiability diagnosis of a design.

    ``spectrum`` covers the assembled Gram operator;
    ``covariate_reports[i][j]`` analyzes covariate ``j`` of observation
    ``i``; ``finite_dimensional[j]`` flags covariates whose curves are
    parsimoniously self-similar in every observation. ``identifiable``
    is True exactly when the Gram block has full numerical rank.
    """

    spectrum: SpectrumReport
    covariate_reports: tuple[tuple[SelfSimilarityReport, ...], ...]
    finite_dimensional: tuple[bool, ...]
    identifiable: bool
    tol: float


def _embedding_grams(units: np.ndarray, L: int) -> np.ndarray:
    """``H' H`` for the delay embedding ``H`` of each row of ``units`` over ``L`` steps, without forming ``H``.

    ``units`` stacks curves of ``N > L`` samples, one a row; the
    embedding of a row is :func:`delay_embed` of it over a window of
    ``L >= 1`` steps. The Gram of a delay matrix has the displacement
    structure that :func:`fcmlab.estimator.assemble` uses (Kailath, Kung
    & Morf, J. Math. Anal. Appl. 68, 1979): it follows from its first
    row ``H[:, 0] @ H``, the curve's autocorrelation over the window's
    lags (``np.correlate``, one row at a time), and the first and last
    rows of ``H``, the curve's first and last ``L + 1`` samples reversed.
    One :func:`fcmlab.estimator._lag_shift_fill` fills the stack. For
    ``n = L + 1`` columns that is ``O(N n + n^2)`` work and ``O(n^2)``
    memory a row, against ``O(N n^2)`` and ``O(N n)`` through ``H``.
    """
    first = np.empty((units.shape[0], 1, L + 1))
    for row, v in zip(first, units):
        row[0] = np.correlate(v, v[L:])[::-1]
    U, V = units[:, L::-1, None], units[:, ::-1][:, : L + 1, None]
    return _lag_shift_fill(first, first, U, U, V, V, 1)[0]


def _gram_thresholds(units: np.ndarray, L: int, tol: float) -> tuple[np.ndarray, list[float]]:
    """The embedding Grams ``M`` of the rows of ``units`` over ``L`` steps and the certificate's thresholds ``theta``.

    ``M`` comes from :func:`_embedding_grams`; ``theta = (tol**2 + rho)
    trace(M)`` with ``rho = 8 n (N + n) eps``, for ``n = L + 1`` columns
    over a curve of ``N`` samples and ``eps`` the machine epsilon.
    ``rho`` covers rounding. Each entry of ``M`` sums at most ``N + 2n``
    products of samples whose absolute values add up to at most ``3
    ||x||^2 <= 3 trace(M)`` (every sample enters some column of ``H``),
    so the computed ``M`` lies within ``3 n (N + n + 1) eps trace(M)`` of
    the exact one in the 2-norm. Cholesky has no element growth (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, ch.
    10): ``k <= n // 2 + 1`` pivots of a pivoted Cholesky of ``M``, with
    the Schur complement they leave, and a Cholesky factor of ``k`` rows
    and columns of ``M - theta I`` are each exact for a matrix within ``k
    (k + 1) eps trace(M)`` of it, and the eigenvalues of
    ``np.linalg.eigvalsh`` for one within a small multiple of ``n eps
    trace(M)`` of ``M``. For ``n >= 4`` that is all at most
    ``rho / 2`` times the trace; the other half of ``rho`` is the margin
    for the rounding of the singular values the certificate stands in
    for. Adding ``rho`` to ``tol**2``, rather than taking the larger of
    the two, keeps that margin for any ``tol``. See
    :func:`_inertia_certifies`.
    """
    M = _embedding_grams(units, L)
    n = L + 1
    rho = 8.0 * n * (units.shape[1] + n) * np.finfo(float).eps
    return M, [(float(tol) ** 2 + rho) * float(np.trace(m)) for m in M]


def _pivoted_cholesky(M: np.ndarray, pivots: int, trace_goal: float) -> list[int]:
    """Greedy diagonal-pivoted Cholesky of the positive semidefinite ``M``: the rows it pivots on.

    Each step pivots on the largest diagonal entry of the Schur
    complement (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62,
    2012), in ``O(n k)`` for the ``k``-th pivot. It stops after
    ``pivots`` pivots, or once the Schur complement's trace is at most
    ``trace_goal``. With ``trace_goal >= 0`` every pivot taken is
    positive, and the pivots index distinct rows. ``M`` is not modified.
    """
    residual = M.diagonal().copy()
    L = np.empty((pivots, M.shape[0]))
    taken: list[int] = []
    for k in range(pivots):
        if residual.sum() <= trace_goal:
            break
        p = int(np.argmax(residual))
        L[k] = (M[p] - L[:k, p] @ L[:k]) / np.sqrt(residual[p])
        residual -= L[k] ** 2
        residual[p] = 0.0
        taken.append(p)
    return taken


def _inertia_certifies(M: np.ndarray, theta: float) -> bool:
    """The broadband certificate: whether more than half of the eigenvalues of ``M`` exceed ``theta``.

    ``M`` and ``theta`` come from :func:`_gram_threshold`. With ``half =
    n // 2`` for ``n`` columns, one :func:`_pivoted_cholesky` of ``M``
    takes at most ``half + 1`` pivots and decides most curves. If it
    leaves a trace of at most ``theta`` after ``k <= half`` pivots,
    ``M`` is a rank-``k`` matrix plus a positive semidefinite one of
    trace at most ``theta``, so by Weyl's inequality at most ``k``
    eigenvalues of ``M`` exceed ``theta``: not certified. If it takes
    ``half + 1`` pivots and ``M - theta I`` restricted to their rows
    and columns has a Cholesky factor, that principal submatrix is
    positive definite, and by Cauchy interlacing (Horn & Johnson,
    *Matrix Analysis*, 2nd ed., 2013, section 4.3) ``M - theta I`` has
    at least ``half + 1`` positive eigenvalues: certified. Otherwise the
    eigenvalues of ``M`` counted exactly decide. A certified curve has
    ``sigma[half]**2 > tol**2 * ||sigma||**2`` for the singular values
    ``sigma`` of the embedding, so their tail energy is at least ``tol``
    at every order up to ``half``: the order search of
    :func:`_analyze_curves` would end past ``half`` and find the curve
    not finite-dimensional.
    """
    half = M.shape[0] // 2
    rows = _pivoted_cholesky(M, half + 1, theta)
    if len(rows) <= half:
        return False
    block = M[rows][:, rows]
    block[np.diag_indices_from(block)] -= theta
    try:
        np.linalg.cholesky(block)
        return True
    except np.linalg.LinAlgError:
        return int(np.count_nonzero(np.linalg.eigvalsh(M) > theta)) > half


# Cells of one stack of embedding Grams that the curve pass fills at a
# time (at least one curve); the fill holds three stacks of that size.
# On the selfsimilar-many benchmark design (1000 curves of 65 columns,
# BLAS on one thread, 2-core Xeon), the pass took 0.78 s at 2**15 cells
# (7 curves a chunk), 0.74 s at 2**16 and 0.71 s at 2**17, against about
# 1.0 s curve by curve; 2**16 cells raised the maximum RSS of `diagnose`
# by 0.2 MB, and 2**15 left it where it was.
_CURVE_STACK_CELLS = 1 << 15


def _analyze_curves(curves: list[tuple[GridFunction, float]], tol: float) -> list[SelfSimilarityReport]:
    """Self-similarity reports of ``curves``, pairs of a curve and its window ``alpha``; see :class:`SelfSimilarityReport`.

    The analysis runs on each curve scaled by the power of two that
    brings its largest absolute sample into ``[0.5, 1)``, so no square of
    a finite curve overflows, and only the singular values are scaled
    back. The scaling is exact for samples that are not subnormal, so a
    curve whose samples and squares neither overflow nor underflow gets
    the report of the unscaled pass, bit for bit, and a curve and any
    exact multiple of it by a power of two get the same report but for
    the singular values' scale.

    Curves are grouped by sample count and window, and each group is
    analyzed in chunks whose stack of embedding Grams holds at most
    :data:`_CURVE_STACK_CELLS` cells. A chunk scales its curves, fills
    their Grams (:func:`_gram_thresholds`) and decides each curve by
    :func:`_inertia_certifies`. A certified curve gets a report with no
    singular values, order or recurrence, and forms no embedding matrix.
    The others take one ``np.linalg.svd`` of their stacked embeddings
    and the order search; those of a parsimonious order fit their
    recurrence (:func:`fit_recurrence`), and the roots of all the
    chunk's recurrences come from :func:`_characteristic_roots`. Every
    stacked step treats each curve as a pass over that curve alone
    would, so each report is bit for bit the one a list of that curve
    alone gets.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (x, alpha) in enumerate(curves):
        groups.setdefault((len(x), _window_steps(x, alpha)), []).append(i)
    reports: list = [None] * len(curves)
    for (_, L), members in groups.items():
        size = max(1, _CURVE_STACK_CELLS // (L + 1) ** 2)
        for b in range(0, len(members), size):
            chunk = members[b : b + size]
            for i, report in zip(chunk, _analyze_chunk([curves[i][0] for i in chunk], L, tol)):
                reports[i] = report
    return reports


def _analyze_chunk(xs: list[GridFunction], L: int, tol: float) -> list[SelfSimilarityReport]:
    """:func:`_analyze_curves` of curves of one sample count over one window of ``L`` steps."""
    units = np.array([x.values for x in xs])
    e = np.frexp(np.max(np.abs(units), axis=1, initial=0.0))[1]
    np.ldexp(units, -e[:, None], out=units)
    M, theta = _gram_thresholds(units, L, tol)
    keep = [k for k in range(len(xs)) if not _inertia_certifies(M[k], theta[k])]
    del M  # before the SVD's workspace is allocated
    reports = [SelfSimilarityReport(None, None, None, None) for _ in xs]
    if not keep:
        return reports
    windows = np.lib.stride_tricks.sliding_window_view(units[keep], L + 1, axis=-1)[..., ::-1]
    S = np.ldexp(np.linalg.svd(windows, compute_uv=False), e[keep, None])
    S.setflags(write=False)
    fitted: dict[int, np.ndarray] = {}
    for k, s in zip(keep, S):
        # The last tail is zero, so some K >= 1 is always below tol.
        order = 1 + int(np.argmax(_tail_energy(s)[1:] < tol))
        reports[k] = SelfSimilarityReport(s, order, None, None)
        if reports[k].finite_dimensional and units.shape[1] >= 3 * order:
            try:
                fitted[k] = fit_recurrence(xs[k].with_values(units[k]), order)
            except NearSingularError:
                pass
    roots = _characteristic_roots(list(fitted.values()))
    for (k, coeffs), r in zip(fitted.items(), roots):
        reports[k] = replace(reports[k], recurrence_coeffs=coeffs, modes=_modes(r, xs[k].step))
    return reports


def diagnose(design: Design, tol: float = DEFAULT_RESIDUAL_TOL) -> DiagnosisReport:
    """Full identifiability diagnosis of a design.

    Assembles the normal matrix once for the spectral verdict and runs
    the self-similarity detector on every covariate curve, in stacks of
    curves of one shape (:func:`_analyze_curves`). The detection
    tolerance ``tol`` applies to both the spectrum rank cut and the
    recurrence-order search.
    """
    system = assemble(design)
    spectrum = gram_spectrum(system, tol=tol)
    curves = _analyze_curves([(x, a) for obs in design.observations for x, a in zip(obs.x, design.lags)], tol)
    reports = tuple(tuple(curves[i : i + design.p]) for i in range(0, len(curves), design.p))
    finite = tuple(
        all(reports[i][j].finite_dimensional for i in range(design.n))
        for j in range(design.p)
    )
    return DiagnosisReport(
        spectrum=spectrum,
        covariate_reports=reports,
        finite_dimensional=finite,
        identifiable=spectrum.full_rank,
        tol=float(tol),
    )
