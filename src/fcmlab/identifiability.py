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
spectrum is certified broadband from the inertia of that Gram, with no
singular value decomposition. The Gram comes from the curve's
autocorrelation and end samples; only the singular values form the
embedding matrix. A few pivots of a pivoted Cholesky
factorization of the Gram route each curve: one they explain takes
its singular values first and reaches the certificate (and scipy,
which counts the inertia) only if the order search does not find it
finite-dimensional. The route never changes a report.
"""

from __future__ import annotations

import math
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
    minimizers.
    """
    if int(order) != order or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    order = int(order)
    n = len(x)
    if n < 3 * order:
        raise GridError(
            f"need at least {3 * order} samples to fit an order-{order} recurrence, got {n}"
        )
    H = delay_matrix(x.values, np.arange(order, n), order)
    coeffs, _, rank, sv = np.linalg.lstsq(H[:, 1:], H[:, 0], rcond=None)
    if rank < order:
        small = float(sv[-1]) if sv.size else 0.0
        large = float(sv[0]) if sv.size else 0.0
        raise NearSingularError(small**2, large**2)
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
    coeffs = np.asarray(coeffs, dtype=float)
    poly = np.concatenate(([1.0], -coeffs))
    roots = np.roots(poly).tolist()
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


def _tail_energy(s: np.ndarray) -> np.ndarray:
    """Relative tail energy ``||s[K:]|| / ||s||`` for every ``K = 0 .. len(s)``.

    The last entry is zero by construction; an all-zero spectrum gives
    all zeros.
    """
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


def _positive_inertia(A: np.ndarray) -> int:
    """Number of positive eigenvalues of the symmetric ``A``, which is overwritten.

    By Sylvester's law of inertia this is the number of positive
    eigenvalues of ``D`` in the Bunch-Kaufman factorization ``A = L D
    L'`` (LAPACK ``dsytrf``; Bunch & Kaufman, Math. Comp. 31, 1977).
    ``D`` holds 1x1 and 2x2 blocks. Bunch-Kaufman pivoting takes a 2x2
    block only when its determinant is negative, so that it has one
    eigenvalue of each sign, and such a block counts once; any other
    2x2 block, and a factor that is not finite, would undercount.
    """
    # Imported here rather than with the module: scipy's pages (about
    # 20 MB) then load after `gram_spectrum` has released numpy's
    # eigendecomposition workspace, and the two never add up in the peak
    # memory of `diagnose`.
    from scipy.linalg.lapack import dsytrf, dsytrf_lwork

    lwork = int(dsytrf_lwork(A.shape[0], lower=1)[0])
    ldu, ipiv, _ = dsytrf(A, lower=1, lwork=lwork, overwrite_a=1)
    d = np.diagonal(ldu)
    if not np.all(np.isfinite(d)):
        return 0
    k = np.flatnonzero(ipiv < 0)  # 2x2 blocks: consecutive pairs (k, k+1)
    det = d[k[0::2]] * d[k[1::2]] - ldu[k[1::2], k[0::2]] ** 2
    return int(np.count_nonzero((ipiv > 0) & (d > 0.0)) + np.count_nonzero(det < 0.0))


def _embedding_gram(x: GridFunction, alpha: float) -> np.ndarray:
    """``H' H`` for the delay embedding ``H = delay_embed(x, alpha)``, without forming ``H``.

    The Gram of a delay matrix has the displacement structure that
    :func:`fcmlab.estimator.assemble` uses (Kailath, Kung & Morf, J.
    Math. Anal. Appl. 68, 1979): it follows from its first row ``H[:, 0]
    @ H``, the curve's autocorrelation over the window's lags, and the
    first and last rows of ``H``, the curve's first and last ``L + 1``
    samples reversed. For ``N`` samples and ``n = L + 1`` columns that is
    ``O(N n + n^2)`` work and ``O(n^2)`` memory, against ``O(N n^2)`` and
    ``O(N n)`` through ``H``. A window under one step or longer than the
    curve raises the :class:`GridError` of :func:`delay_embed`.
    """
    L = _window_steps(x, alpha)
    v = x.values
    first = np.correlate(v, v[L:])[::-1]
    U, V = v[L::-1, None], v[::-1][: L + 1, None]
    return _lag_shift_fill(first[None], first[None], U, U, V, V, 1)[0]


def _gram_threshold(x: GridFunction, alpha: float, tol: float) -> tuple[np.ndarray, float]:
    """The embedding Gram ``M`` of ``x`` over ``alpha`` and the certificate's threshold ``theta``.

    ``M`` comes from :func:`_embedding_gram`; ``theta = (tol**2 + rho)
    trace(M)`` with ``rho = 8 n (N + n) eps``, for ``n = L + 1`` columns
    over a curve of ``N`` samples and ``eps`` the machine epsilon.
    ``rho`` covers rounding. Each entry of ``M`` sums at most ``N + 2n``
    products of samples whose absolute values add up to at most ``3
    ||x||^2 <= 3 trace(M)`` (every sample enters some column of ``H``),
    so the computed ``M`` lies within ``3 n (N + n + 1) eps trace(M)`` of
    the exact one in the 2-norm. Without element growth, the
    factorization's inertia is exact for a matrix within ``n eps ||M||``
    of ``M - theta I``. Together that is at most ``rho / 2`` times the
    trace; the other half of ``rho`` is the margin for the rounding of
    the singular values the certificate stands in for. Adding ``rho`` to
    ``tol**2``, rather than taking the larger of the two, keeps that
    margin for any ``tol``. See :func:`_inertia_certifies`.
    """
    M = _embedding_gram(x, alpha)
    n = M.shape[0]
    rho = 8.0 * n * (len(x) + n) * np.finfo(float).eps
    return M, (float(tol) ** 2 + rho) * float(np.trace(M))


def _inertia_certifies(M: np.ndarray, theta: float) -> bool:
    """The broadband certificate: whether more than half of the eigenvalues of ``M`` exceed ``theta``.

    ``M`` and ``theta`` come from :func:`_gram_threshold`, and ``M`` is
    overwritten. With ``half = n // 2`` for ``n`` columns, the curve is
    certified when at least ``half + 1`` eigenvalues of ``M`` exceed
    ``theta``, counted as the positive inertia of ``M - theta I``. Then
    ``sigma[half]**2 > tol**2 * ||sigma||**2`` for the singular values
    ``sigma`` of the embedding, so their tail energy is at least ``tol``
    at every order up to ``half``: the order search of
    :func:`_analyze_curve` would end past ``half`` and find the curve not
    finite-dimensional. So a curve that the order search finds
    finite-dimensional is never certified, which is what lets
    :func:`_analyze_curve` skip the certificate for such a curve.
    """
    if not (np.isfinite(theta) and theta > 0.0):
        return False
    n = M.shape[0]
    M[np.diag_indices(n)] -= theta
    return _positive_inertia(M) > n // 2


def _few_directions(M: np.ndarray, theta: float) -> bool:
    """Whether a few pivots of a pivoted Cholesky of ``M`` leave a trace of at most ``theta``.

    Runs the partial pivoted Cholesky factorization of the positive
    semidefinite ``M`` (Harbrecht, Peters & Schneider, Appl. Numer.
    Math. 62, 2012) for at most ``ceil(sqrt(n))`` pivots, and never more
    than ``n // 2``, in ``O(n k^2)`` for ``k`` pivots. It stops as soon
    as the trace of the remaining Schur complement is at most ``theta``.
    Then ``M`` is a rank-``k`` matrix plus a positive semidefinite one
    of trace at most ``theta``, so, up to rounding, at most ``k <= n //
    2`` eigenvalues of ``M`` exceed ``theta``. Returns False when the
    pivots run out first, or a pivot is not positive (which a non-finite
    ``M`` gives). ``M`` is not modified.
    """
    n = M.shape[0]
    pivots = min(math.isqrt(n - 1) + 1, n // 2)  # ceil(sqrt(n)), n >= 1
    residual = M.diagonal().copy()
    L = np.empty((pivots, n))
    for k in range(pivots):
        if residual.sum() <= theta:
            return True
        p = int(np.argmax(residual))
        if not residual[p] > 0.0:
            return False
        L[k] = (M[p] - L[:k, p] @ L[:k]) / np.sqrt(residual[p])
        residual -= L[k] ** 2
    return bool(residual.sum() <= theta)


def _svd_report(x: GridFunction, alpha: float, tol: float) -> SelfSimilarityReport:
    """The report of a curve from the singular values of its embedding over ``alpha`` and the order search."""
    s = np.linalg.svd(delay_embed(x, alpha), compute_uv=False)
    s.setflags(write=False)
    # The last tail is zero, so some K >= 1 is always below tol.
    order = 1 + int(np.argmax(_tail_energy(s)[1:] < tol))
    report = SelfSimilarityReport(s, order, None, None)
    if not report.finite_dimensional or len(x) < 3 * order:
        return report
    try:
        coeffs = fit_recurrence(x, order)
    except NearSingularError:
        return report
    return replace(report, recurrence_coeffs=coeffs, modes=recurrence_modes(coeffs, x.step))


def _analyze_curve(x: GridFunction, alpha: float, tol: float) -> SelfSimilarityReport:
    """Self-similarity report of one curve; see :class:`SelfSimilarityReport`.

    A curve certified by :func:`_inertia_certifies` gets a report with
    no singular values, order or recurrence; every other curve gets the
    report of the singular values of its embedding and the order search.
    What runs first is routed by :func:`_few_directions` on the
    embedding Gram ``M``, which is formed once for both, from the curve
    (:func:`_gram_threshold`). A curve whose ``M`` a few Cholesky pivots
    explain takes the singular values first: if the order search finds
    it finite-dimensional, the certificate could not have fired, so it
    is not consulted; otherwise it is, and a certified curve gets the
    null report. Every other curve consults the certificate first, and
    forms no embedding matrix when it fires. The routing decides only
    what runs first: every report is the one the certificate-first order
    gives.
    """
    M, theta = _gram_threshold(x, alpha, tol)
    report = _svd_report(x, alpha, tol) if _few_directions(M, theta) else None
    if report is not None and report.finite_dimensional:
        return report
    if _inertia_certifies(M, theta):
        return SelfSimilarityReport(None, None, None, None)
    return _svd_report(x, alpha, tol) if report is None else report


def diagnose(design: Design, tol: float = DEFAULT_RESIDUAL_TOL) -> DiagnosisReport:
    """Full identifiability diagnosis of a design.

    Assembles the normal matrix once for the spectral verdict and runs
    the self-similarity detector on every covariate curve, one after
    another. The detection tolerance ``tol`` applies to both the
    spectrum rank cut and the recurrence-order search.
    """
    system = assemble(design)
    spectrum = gram_spectrum(system, tol=tol)
    reports = tuple(
        tuple(_analyze_curve(x, a, tol) for x, a in zip(obs.x, design.lags))
        for obs in design.observations
    )
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
