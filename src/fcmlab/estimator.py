"""Normal equations and solvers for the convolution regression model.

The squared-error criterion is discretized first (trapezoid weights in
both the time and the lag directions) and minimized exactly: the
assembled system ``G c = F`` is the literal stationarity condition of
the discrete criterion, so ``2 (G c - F)`` matches finite differences
of :func:`fcmlab.model.sse` to rounding error.

The coefficient vector ``c`` stacks the intercept, the scalar-covariate
coefficients, and one block of lag-kernel samples per functional
covariate; :class:`fcmlab.model.CoefficientIndexMap` owns that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from fcmlab.errors import ConformalityError, NearSingularError, ValidationError
from fcmlab.grids import quadrature_weights
from fcmlab.model import CoefficientIndexMap, CoefficientSet, Design, RowSet, delay_matrix, sse
from fcmlab.util import DEFAULT_SVD_RTOL, numerical_rank

__all__ = [
    "GramSystem",
    "FitResult",
    "assemble",
    "flm_normal_equations",
    "solve_direct",
    "solve_truncated_svd",
    "solve_penalized",
    "fit",
    "fit_flm",
]

# Cells of a delay matrix that assembly gathers at a time: 1 MB of
# doubles, so that a block stays in a core's L2 cache. On a Xeon with
# 2 MB of L2 per core, assembling the broadband-large benchmark design
# (513-sample lag windows, 255 rows a block) took 0.066 s against 0.096 s
# at 2**18 cells and 0.091 s with whole delay matrices (medians of 12).
_ASSEMBLY_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class GramSystem:
    """Assembled normal equations ``G c = F`` plus layout and weights.

    ``weights`` holds the discrete L2 weight of each coefficient entry
    (1 for intercept and scalars, trapezoid weights along each lag
    grid); rank decisions, reported eigenvalues and minimum-norm
    conventions are taken in this weighted geometry.
    """

    G: np.ndarray
    F: np.ndarray
    index_map: CoefficientIndexMap
    weights: np.ndarray

    def __post_init__(self) -> None:
        G = np.asarray(self.G, dtype=float)
        F = np.asarray(self.F, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        m = self.index_map.size
        if G.shape != (m, m) or F.shape != (m,) or w.shape != (m,):
            raise ConformalityError("Gram system pieces disagree with the index map size")
        for a in (G, F, w):
            a.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.index_map.size

    def weighted_eigh(self, block: slice = slice(None), vectors: bool = True) -> tuple:
        """Eigendecompose ``G[block, block] / outer(S, S)``, ``S = sqrt(weights[block])``.

        Returns the ascending eigenvalues, the eigenvectors (None unless
        ``vectors``) and ``S``; an eigenvector divided by ``S`` is a
        coefficient direction.
        """
        S = np.sqrt(self.weights[block])
        A = self.G[block, block] / np.outer(S, S)
        return (*np.linalg.eigh(A), S) if vectors else (np.linalg.eigvalsh(A), None, S)

    def spectrum(self, vectors: bool = False) -> tuple:
        """:meth:`weighted_eigh` of all of ``G``, kept for every rank cut and reported eigenvalue.

        A decomposition with vectors also answers later calls for values only.
        """
        cached = self.__dict__.get("_spectrum")
        if cached is None or (vectors and cached[1] is None):
            cached = self.__dict__["_spectrum"] = self.weighted_eigh(vectors=vectors)
        return cached


def assemble(design: Design) -> GramSystem:
    """Assemble the normal equations of the discrete criterion.

    ``G`` and ``F`` equal ``sum_i A_i' W_i A_i`` and ``sum_i A_i' W_i
    y_i``, where ``A_i`` holds the regression rows ``[1, z, w * H]`` of
    observation ``i`` on ``[alpha_star, T_i]`` (``H`` the delay matrix of
    each covariate, ``w`` the lag quadrature weights) and ``W_i`` the
    trapezoid weights in time, so the covariate block of ``G``
    discretizes the Gram operator of the design with quadrature weights
    on both lag axes. This is :func:`_normal_equations` on the design's
    row set at stride 1, :meth:`Design.rows`, the rows that
    :func:`fcmlab.model.sse` also reads; no ``A_i`` is formed. The dense
    rows live in ``tests/conftest.py``, as the reference the tests
    compare with.
    """
    return _normal_equations(design.rows(1), trapezoid=True)


def flm_normal_equations(rows: RowSet) -> GramSystem:
    """Normal equations ``A'A c = A'y`` of the down-sampled rows, without forming ``A``.

    ``rows`` is :func:`fcmlab.downsample.to_flm`'s row set. Rows count
    equally (no time quadrature); the entry weights are the lag
    quadrature weights of :func:`assemble`.
    """
    return _normal_equations(rows, trapezoid=False)


@np.errstate(over="ignore", invalid="ignore")
def _normal_equations(rows: RowSet, trapezoid: bool) -> GramSystem:
    """Normal equations of regression rows ``s`` grid steps apart.

    ``rows`` is a row set of :meth:`fcmlab.model.Design.rows` at stride
    ``s``: per observation ``(z, y, segments)``, the scalar
    covariates, the responses at the row times ``t_r = t_0 + s r``, and
    per covariate ``j`` the curve segment ``x_j[t_0 - L_j : t_last + 1]``,
    in which row ``r``'s newest sample sits at ``L_j + s r``. Rows carry
    the trapezoid weights in time when ``trapezoid`` is set and count
    equally otherwise.

    Between the lag weights, the block of covariates ``j, k`` is ``Q[a,
    b] = sum_r x_j[t_r - a] x_k[t_r - b]`` summed over observations; the
    trapezoid makes it ``h Q - h/2 (u u' + v v')``, where ``u = x[t_0 -
    a]`` and ``v = x[t_last - a]`` are the first and last rows of the
    delay matrix. Shifting both lags by one stride adds one product and
    drops one,
    ``Q[a+s, b+s] = Q[a, b] + x_j[t_0-s-a] x_k[t_0-s-b] - x_j[t_last-a] x_k[t_last-b]``,
    so ``Q`` follows from its first ``s`` rows and columns (products of
    each delay matrix with the first ``s`` lag columns of the curves) and
    the displacement ``U U' - V V'``, where ``U`` stacks ``u`` without
    its first ``s`` entries and ``V`` stacks ``v`` without its last ``s``
    (Kailath, Kung & Morf 1979). The intercept and scalar rows and ``F``
    are weighted column sums of the same delay matrices. Every product
    with a delay matrix gathers it a block of rows at a time
    (:func:`_delay_product`), so no observation's delay matrix is formed
    whole. An observation of ``R`` rows costs ``O(R m min(s, m))`` and
    each covariate pair one ``O(m^2)`` fill, against ``O(R m^2)`` for
    ``A' A``. The sums run in another order than the dense route's, so
    entries differ from it by rounding, about 1e-15 of the largest.
    ``G`` is exactly symmetric. Finite samples whose products overflow
    make ``G`` or ``F`` not finite, which raises :class:`ValidationError`.
    """
    imap = rows.index_map
    h, lead, s = imap.step, imap.d + 1, rows.stride
    lags = [size - 1 for size in imap.sizes]
    n_first = [min(s, size) for size in imap.sizes]  # rows of Q_jk formed directly
    blocks = [imap.covariate_slice(j) for j in range(len(lags))]
    G = np.zeros((imap.size, imap.size))
    F = np.zeros(imap.size)
    first = [[np.zeros((a, size)) for size in imap.sizes] for a in n_first]  # first[j][k] = Q_jk[:s]
    head = [np.zeros((lead, size)) for size in imap.sizes]  # sum of [1, z] times Wt @ H_k
    ends = [[] for _ in lags]  # [H_k[0], H_k[-1]] of every observation
    for z, y, segments in rows.observations:
        level = np.concatenate(([1.0], z))
        r = np.arange(0, s * y.size, s)
        Wt = quadrature_weights(y.size, h) if trapezoid else np.ones(y.size)
        G[:lead, :lead] += Wt.sum() * np.outer(level, level)
        F[:lead] += (Wt @ y) * level
        cols = [seg[L - a :: s] for seg, L, n in zip(segments, lags, n_first) for a in range(n)]
        R = np.vstack([Wt, Wt * y] + cols)
        for k, (seg, L) in enumerate(zip(segments, lags)):
            M = _delay_product(R, seg, L + r, L)
            head[k] += np.outer(level, M[0])
            F[blocks[k]] += M[1]
            row = 2
            for j, n in enumerate(n_first):
                first[j][k] += M[row : row + n]
                row += n
            ends[k].append(delay_matrix(seg, L + r[[0, -1]], L))
    w = imap.lag_weights()
    U = [np.array(e)[:, 0].T for e in ends]
    V = [np.array(e)[:, 1].T for e in ends]
    for k, sk in enumerate(blocks):
        G[:lead, sk] = head[k] * w[sk]
        F[sk] *= w[sk]
        for j, sj in enumerate(blocks[: k + 1]):
            Q, UU, VV = _lag_shift_fill(first[j][k], first[k][j], U[j], U[k], V[j], V[k], s)
            if trapezoid:
                Q = h * Q - 0.5 * h * (UU + VV)
            G[sj, sk] = Q * np.outer(w[sj], w[sk])
    G = np.triu(G)
    G += np.triu(G, 1).T
    if not (np.isfinite(G).all() and np.isfinite(F).all()):
        raise ValidationError("the normal equations overflow: samples too large to square")
    return GramSystem(G, F, imap, w)


def _delay_product(R: np.ndarray, seg: np.ndarray, rows: np.ndarray, L: int) -> np.ndarray:
    """``R @ delay_matrix(seg, rows, L)``, gathering the delay matrix a block of rows at a time.

    A block holds at most :data:`_ASSEMBLY_BLOCK_CELLS` cells (at least
    one row), so no delay matrix of a whole observation is formed. An
    observation that fits in one block gets the product of the whole
    matrix, bit for bit; a longer one sums the blocks' products, which
    differ from it by rounding.
    """
    size = max(1, _ASSEMBLY_BLOCK_CELLS // (L + 1))
    M = R[:, :size] @ delay_matrix(seg, rows[:size], L)
    for b in range(size, rows.size, size):
        M += R[:, b : b + size] @ delay_matrix(seg, rows[b : b + size], L)
    return M


def _lag_shift_fill(first_jk, first_kj, Uj, Uk, Vj, Vk, s: int) -> tuple:
    """Fill ``Q_jk`` from its first ``s`` rows and columns and its displacement.

    ``first_jk`` and ``first_kj`` are the first ``s`` rows of ``Q_jk``
    and ``Q_kj``, so the transpose of the second gives the first ``s``
    columns of ``Q_jk``. ``U`` and ``V`` stack, one column per
    observation, the first and last rows of each covariate's delay
    matrix. The rest follows from ``Q[a+s, b+s] = Q[a, b] + UU[a+s,
    b+s] - VV[a, b]``, where ``UU = U_j U_k'`` and ``VV = V_j V_k'`` (see
    :func:`_normal_equations`). Returns ``Q``, ``UU`` and ``VV``.
    """
    UU, VV = Uj @ Uk.T, Vj @ Vk.T
    Q = np.empty_like(UU)
    Q[:s] = first_jk
    Q[s:, :s] = first_kj[:, s:].T
    Q[s:, s:] = UU[s:, s:] - VV[:-s, :-s]
    for a in range(s, Q.shape[0]):
        Q[a, s:] += Q[a - s, :-s]
    return Q, UU, VV


def solve_direct(system: GramSystem, rel_tol: float = DEFAULT_SVD_RTOL) -> CoefficientSet:
    """Solve ``G c = F`` when its weighted spectrum has full rank.

    The rank cut is ``rel_tol`` times the largest weighted eigenvalue,
    floored at ``size * eps`` (see :func:`_solve_full_rank`). Raises
    :class:`NearSingularError` carrying the extreme weighted
    eigenvalues exactly when the rank at that cut is below ``size``, so
    exactly when :func:`solve_truncated_svd` at the same ``rel_tol``
    would drop a mode; rank-deficient systems should go through
    :func:`solve_truncated_svd` or :func:`solve_penalized` instead.
    """
    return system.index_map.unpack(_solve_full_rank(system, rel_tol))


def solve_truncated_svd(
    system: GramSystem, rel_tol: float = DEFAULT_SVD_RTOL
) -> tuple[CoefficientSet, int]:
    """Minimum-norm solution through a truncated eigendecomposition.

    The system is rescaled by the square roots of the entry weights so
    that Euclidean geometry matches the discrete L2 geometry, the
    spectrum is truncated at ``rel_tol`` times the largest eigenvalue,
    and the pseudoinverse solution is mapped back. The result has no
    component along the discarded directions in the weighted inner
    product. The cut is floored at ``size * eps``, as in
    :func:`solve_direct`, so a smaller ``rel_tol`` keeps no rounding
    noise. Returns the solution and the number of retained modes.
    """
    evals, vecs, S = system.spectrum(vectors=True)
    rank = _spectral_rank(evals, rel_tol)
    keep = slice(evals.size - rank, None)
    V = vecs[:, keep]
    ct = V @ ((V.T @ (system.F / S)) / evals[keep])
    return system.index_map.unpack(ct / S), rank


def solve_penalized(system: GramSystem, lam: float) -> CoefficientSet:
    """Solve ``(G + lam * D'D) c = F`` with a second-difference penalty.

    ``lam`` must be finite and nonnegative; ``lam = 0`` reproduces the
    plain normal equations. The penalty acts on each lag-kernel block only,
    leaving intercept and scalar coefficients unpenalized, so large
    ``lam`` drives the kernels toward straight lines. When the weighted
    spectrum of ``G + lam * D'D`` has rank below ``size`` at the
    ``size * eps`` floor of :func:`_solve_full_rank`, raises
    :class:`NearSingularError` carrying its extreme weighted eigenvalues
    instead of returning the solution.
    """
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"penalty weight must be finite and nonnegative, got {lam!r}")
    penalized = replace(system, G=_add_curvature_penalty(system.G, system.index_map, lam))
    return system.index_map.unpack(_solve_full_rank(penalized))


def _add_curvature_penalty(G: np.ndarray, index_map: CoefficientIndexMap, lam: float) -> np.ndarray:
    """``G + lam * D'D``, ``D`` the ``[1, -2, 1]`` stencil, added block by block to a copy of ``G``.

    ``D'D`` lives inside the kernel blocks, so no temporary is wider than a block.
    """
    G = np.array(G)
    for j, size in enumerate(index_map.sizes):
        block = index_map.covariate_slice(j)
        D = np.diff(np.eye(size), n=2, axis=0)
        G[block, block] += lam * (D.T @ D)
    return G


def _spectral_rank(evals: np.ndarray, rel_tol: float | None = None) -> int:
    """Eigenvalues of a weighted spectrum at or above a cut times the largest.

    The cut is ``rel_tol`` (when given) floored at ``size * eps``, the
    default cut of ``np.linalg.matrix_rank``. An invalid ``rel_tol``
    raises, also when the floor would decide.
    """
    rank = evals.size if rel_tol is None else numerical_rank(evals, rel_tol)
    return min(rank, numerical_rank(evals, evals.size * np.finfo(float).eps))


def _solve_full_rank(system: GramSystem, rel_tol: float | None = None) -> np.ndarray:
    """``np.linalg.solve(G, F)``, refused unless the weighted spectrum has full rank.

    The rank is :func:`_spectral_rank` of :meth:`GramSystem.spectrum` at
    ``rel_tol``. Its floor stands in for a factorization's rcond check:
    the LU solve answers whatever it is given, and a system with a
    smaller eigenvalue would come back as a huge-norm solution. Below
    full rank, raises :class:`NearSingularError` carrying the extreme
    eigenvalues.
    """
    evals = system.spectrum()[0]
    rank = _spectral_rank(evals, rel_tol)
    if rank < system.size:
        raise NearSingularError(evals[0], evals[-1])
    return np.linalg.solve(system.G, system.F)


@dataclass(frozen=True)
class FitResult:
    """A fitted coefficient set plus solve diagnostics.

    ``solver_used`` is one of ``"direct"``, ``"truncated_svd"``,
    ``"ridge"``; ``truncation_rank`` is the retained mode count for the
    truncated solver and None otherwise. The eigenvalues are the
    extremes of :meth:`GramSystem.spectrum`, the weighted full normal
    matrix; ``gram_condition`` is their ratio (infinite when the
    smallest eigenvalue is nonpositive).
    """

    coef: CoefficientSet
    sse_value: float
    gram_min_eigenvalue: float
    gram_max_eigenvalue: float
    gram_condition: float
    solver_used: str
    truncation_rank: int | None


def fit(
    design: Design,
    solver: str = "direct",
    lam: float = 0.0,
    svd_rel_tol: float = DEFAULT_SVD_RTOL,
    allow_rank_deficient: bool = False,
) -> FitResult:
    """Assemble the normal equations and solve them with one solver.

    ``solver`` is ``"direct"``, ``"truncated_svd"``, or ``"ridge"``
    (``lam`` applies to the ridge path only); ``svd_rel_tol`` is the
    rank cut of the first two. ``allow_rank_deficient`` turns a
    :class:`NearSingularError` into a truncated solve of the same system.
    Normal equations or a sum of squared errors that overflow raise
    :class:`ValidationError`.
    """
    system = assemble(design)
    truncation_rank: int | None = None
    try:
        if solver == "direct":
            coef = solve_direct(system, svd_rel_tol)
        elif solver == "ridge":
            coef = solve_penalized(system, lam)
        elif solver != "truncated_svd":
            raise ValueError(f"unknown solver {solver!r}")
    except NearSingularError:
        if not allow_rank_deficient:
            raise
        solver = "truncated_svd"
    if solver == "truncated_svd":
        coef, truncation_rank = solve_truncated_svd(system, rel_tol=svd_rel_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        sse_value = sse(design, coef)
    if not np.isfinite(sse_value):
        raise ValidationError("the sum of squared errors overflows: samples too large to square")
    min_eig, max_eig = system.spectrum()[0][[0, -1]].tolist()
    return FitResult(
        coef=coef,
        sse_value=sse_value,
        gram_min_eigenvalue=min_eig,
        gram_max_eigenvalue=max_eig,
        gram_condition=float("inf") if min_eig <= 0.0 else max_eig / min_eig,
        solver_used=solver,
        truncation_rank=truncation_rank,
    )


def fit_flm(rows: RowSet, lam: float = 0.0) -> CoefficientSet:
    """Least-squares fit of the down-sampled rows.

    Minimizes the sum of squared row residuals plus ``lam`` times the
    squared second differences of each lag kernel. Without a penalty a
    rank-deficient normal matrix raises :class:`NearSingularError`;
    with ``lam > 0`` the penalty usually restores uniqueness.
    """
    system = flm_normal_equations(rows)
    if float(lam) == 0.0:
        return solve_direct(system)
    return solve_penalized(system, lam)
