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
from the recurrence roots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from fcmlab.errors import ConformalityError, GridError, NearSingularError
from fcmlab.estimator import GramSystem, assemble
from fcmlab.grids import GridFunction, inner_product, quadrature_weights, snap_to_index
from fcmlab.model import CoefficientSet, Design, check_conformal, lag_convolve
from fcmlab.util import numerical_rank

__all__ = [
    "SpectrumReport",
    "Mode",
    "SelfSimilarityReport",
    "DiagnosisReport",
    "quadratic_form",
    "gram_spectrum",
    "certify_direction",
    "delay_embed",
    "fit_recurrence",
    "recurrence_modes",
    "self_similarity_residual",
    "diagnose",
    "DEFAULT_SPECTRUM_TOL",
    "DEFAULT_RESIDUAL_TOL",
]

DEFAULT_SPECTRUM_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-8

# Recurrence roots closer than this are merged into one repeated mode.
ROOT_CLUSTER_TOL = 1e-6


def quadratic_form(design: Design, coef: CoefficientSet) -> float:
    """Energy of the lag kernels under the design's Gram operator.

    Computed forward, without assembling the normal matrix: for each
    observation the predicted convolution contribution is formed
    directly and its squared norm over ``[alpha_star, T_i]`` is
    accumulated. Intercept and scalar entries of ``coef`` are ignored.
    Nonnegative up to rounding, and zero exactly on directions the
    design cannot distinguish from the zero kernel.
    """
    check_conformal(design, coef)
    start = design.alpha_star
    total = 0.0
    for obs in design.observations:
        acc: np.ndarray | None = None
        for xj, bj, aj in zip(obs.x, coef.betas, design.lags):
            c = lag_convolve(xj, bj, aj, t_start=start).values
            acc = c if acc is None else acc + c
        assert acc is not None
        w = quadrature_weights(acc.size, design.step)
        total += float(w @ (acc * acc))
    return total


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the covariate block of the normal matrix.

    ``eigenvalues`` are sorted descending in the weighted geometry;
    ``numerical_rank`` counts those at or above ``tol`` times the
    largest. ``null_basis`` holds coefficient directions (zero
    intercept and scalar parts) spanning the numerically unseen
    subspace, orthonormal in the quadrature-weighted inner product.
    """

    eigenvalues: np.ndarray
    numerical_rank: int
    null_basis: tuple[CoefficientSet, ...]
    tol: float

    @property
    def block_size(self) -> int:
        return self.eigenvalues.size

    @property
    def full_rank(self) -> bool:
        return self.numerical_rank == self.block_size


def gram_spectrum(system: GramSystem, tol: float = DEFAULT_SPECTRUM_TOL) -> SpectrumReport:
    """Eigendecompose the covariate block of ``G`` in weighted form.

    The block is symmetrized by the square roots of the lag quadrature
    weights before the decomposition, so eigenvalues approximate the
    continuous Gram operator's spectrum and eigenvectors map back to
    kernel directions orthonormal in the discrete L2 inner product.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    imap = system.index_map
    blk = imap.covariate_block
    S = np.sqrt(system.weights[blk])
    Gt = system.G[blk, blk] / np.outer(S, S)
    evals, vecs = scipy.linalg.eigh(Gt)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vecs = vecs[:, order]
    rank = numerical_rank(np.maximum(evals, 0.0), tol)
    basis = []
    for k in range(rank, evals.size):
        c = np.zeros(imap.size)
        c[blk] = vecs[:, k] / S
        basis.append(imap.unpack(c))
    evals = np.asarray(evals, dtype=float)
    evals.setflags(write=False)
    return SpectrumReport(evals, rank, tuple(basis), float(tol))


def certify_direction(design: Design, gamma: CoefficientSet, tol: float) -> bool:
    """Whether the design sees the kernel direction ``gamma``.

    ``gamma`` is normalized to unit discrete L2 norm across its lag
    kernels (intercept and scalar entries are ignored); the direction
    is certified identifiable when its Gram energy exceeds ``tol``.
    Raises :class:`ValueError` on a zero direction.
    """
    check_conformal(design, gamma)
    norm_sq = sum(inner_product(b, b) for b in gamma.betas)
    if norm_sq <= 0.0:
        raise ValueError("cannot certify the zero direction")
    scale = 1.0 / np.sqrt(norm_sq)
    scaled = CoefficientSet(
        gamma.beta0, tuple(b.with_values(b.values * scale) for b in gamma.betas)
    )
    return quadratic_form(design, scaled) > tol


def delay_embed(x: GridFunction, alpha: float, stride: int = 1) -> np.ndarray:
    """Delay-embedding matrix ``H[l, m] = x(t_l - u_m)``.

    Columns run over the lag grid ``u_m = m * step`` on ``[0, alpha]``;
    rows run over times ``t_l`` from ``alpha`` to the end of the domain
    in steps of ``stride`` grid intervals. The rank of ``H`` is the
    dimension of the sampled shift family of ``x`` over that window.
    """
    if int(stride) != stride or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    stride = int(stride)
    L = snap_to_index(float(alpha) / x.step, what=f"window {alpha!r}")
    if L < 1:
        raise GridError(f"window {alpha!r} must span at least one step")
    if len(x) - 1 < L:
        raise GridError("curve domain is shorter than the embedding window")
    rows = np.arange(L, len(x), stride)
    idx = rows[:, None] - np.arange(L + 1)[None, :]
    return x.values[idx]


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
    v = x.values
    X = np.column_stack([v[order - k : n - k] for k in range(1, order + 1)])
    y = v[order:]
    coeffs, _, rank, sv = np.linalg.lstsq(X, y, rcond=None)
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
    roots = np.roots(poly)
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for cluster in clusters:
            center = np.mean(cluster)
            if abs(r - center) <= ROOT_CLUSTER_TOL:
                cluster.append(r)
                break
        else:
            clusters.append([r])
    modes: list[Mode] = []
    seen_conjugate: set[int] = set()
    centers = [complex(np.mean(c)) for c in clusters]
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
    """

    singular_values: np.ndarray
    estimated_order: int
    recurrence_coeffs: np.ndarray | None
    modes: tuple[Mode, ...] | None

    @property
    def residual_curve(self) -> np.ndarray:
        """Relative tail energy for every order ``K = 0 .. len(sigma)``."""
        return _tail_energy(self.singular_values)

    @property
    def residual(self) -> float:
        """Relative misfit of the best approximation at the estimated order."""
        return float(self.residual_curve[self.estimated_order])

    @property
    def finite_dimensional(self) -> bool:
        """True when the curve is explained by at most half the embedding spectrum.

        An order that needs more than half of the singular values is not
        a parsimonious explanation: broadband curves reach the detection
        tolerance only there, as the spectrum runs out.
        """
        return self.estimated_order <= self.singular_values.size // 2


def self_similarity_residual(
    x: GridFunction,
    order: int,
    alpha: float | None = None,
    stride: int = 1,
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
    H = delay_embed(x, alpha, stride=stride)
    if order > H.shape[1]:
        raise ValueError(
            f"order {order} exceeds the {H.shape[1]} embedding columns"
        )
    s = scipy.linalg.svdvals(H)
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


def _analyze_curve(x: GridFunction, alpha: float, tol: float) -> SelfSimilarityReport:
    s = np.asarray(scipy.linalg.svdvals(delay_embed(x, alpha)), dtype=float)
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


def diagnose(design: Design, tol: float = DEFAULT_RESIDUAL_TOL) -> DiagnosisReport:
    """Full identifiability diagnosis of a design.

    Assembles the normal matrix once for the spectral verdict and runs
    the self-similarity detector on every covariate curve, one after
    another. The detection tolerance ``tol`` applies to both the
    spectrum rank cut and the recurrence-order search.
    """
    system = assemble(design)
    spectrum = gram_spectrum(system, tol=tol)
    jobs = [
        (obs.x[j], design.lags[j])
        for obs in design.observations
        for j in range(design.p)
    ]
    flat = [_analyze_curve(x, a, tol) for x, a in jobs]
    reports = tuple(
        tuple(flat[i * design.p + j] for j in range(design.p))
        for i in range(design.n)
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
