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
otherwise are its eigenvalues counted exactly. numpy is the only
dependency.
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
    :func:`_analyze_curve` does, so a curve and its exact multiples by
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
    M = _embedding_gram(x, alpha)
    n = M.shape[0]
    rho = 8.0 * n * (len(x) + n) * np.finfo(float).eps
    return M, (float(tol) ** 2 + rho) * float(np.trace(M))


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
    :func:`_analyze_curve` would end past ``half`` and find the curve
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


def _analyze_curve(x: GridFunction, alpha: float, tol: float) -> SelfSimilarityReport:
    """Self-similarity report of one curve; see :class:`SelfSimilarityReport`.

    The analysis runs on ``x`` scaled by the power of two that brings its
    largest absolute sample into ``[0.5, 1)``, so no square of a finite
    curve overflows, and only the singular values are scaled back. The
    scaling is exact for samples that are not subnormal, so a curve whose
    samples and squares neither overflow nor underflow gets the report of
    the unscaled pass, bit for bit, and a curve and any exact multiple of
    it by a power of two get the same report but for the singular
    values' scale.

    The embedding Gram, formed from the curve (:func:`_gram_threshold`),
    decides first. A curve certified by :func:`_inertia_certifies` gets
    a report with no singular values, order or recurrence, and forms no
    embedding matrix; every other curve gets the report of the singular
    values of its embedding and the order search.
    """
    e = _exponent(x.values)
    unit = x.with_values(np.ldexp(x.values, -e))
    if _inertia_certifies(*_gram_threshold(unit, alpha, tol)):
        return SelfSimilarityReport(None, None, None, None)
    s = np.ldexp(np.linalg.svd(delay_embed(unit, alpha), compute_uv=False), e)
    s.setflags(write=False)
    # The last tail is zero, so some K >= 1 is always below tol.
    order = 1 + int(np.argmax(_tail_energy(s)[1:] < tol))
    report = SelfSimilarityReport(s, order, None, None)
    if not report.finite_dimensional or len(x) < 3 * order:
        return report
    try:
        coeffs = fit_recurrence(unit, order)
    except NearSingularError:
        return report
    return replace(report, recurrence_coeffs=coeffs, modes=recurrence_modes(coeffs, x.step))


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
