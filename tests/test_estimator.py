from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmlab import estimator
from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_design
from fcmlab.downsample import flm_row_residuals, to_flm
from fcmlab.errors import ConformalityError, NearSingularError
from fcmlab.estimator import (
    GramSystem,
    assemble,
    fit,
    fit_flm,
    flm_normal_equations,
    solve_direct,
    solve_penalized,
    solve_truncated_svd,
)
from fcmlab.grids import GridFunction, quadrature_weights
from fcmlab.identifiability import gram_spectrum, quadratic_form
from fcmlab.model import (
    CoefficientIndexMap,
    CoefficientSet,
    Design,
    Observation,
    predict,
    sse,
)

from conftest import flm_rows, observation_rows


def single_obs_design(x_values, step, alpha, y_values=None):
    n = len(x_values)
    y = GridFunction(0.0, step, np.zeros(n) if y_values is None else y_values)
    x = GridFunction(0.0, step, np.asarray(x_values, dtype=float))
    return Design((Observation(y, (x,), ()),), (alpha,), step)


def weighted_rel_dist(weights, a, b):
    num = np.sqrt(np.sum(weights * (a - b) ** 2))
    den = np.sqrt(np.sum(weights * b**2))
    return num / den


def weighted_eigvalsh(system):
    """Ascending eigenvalues of ``G / outer(S, S)``, ``S = sqrt(weights)``, computed here."""
    S = np.sqrt(system.weights)
    return scipy.linalg.eigvalsh(system.G / np.outer(S, S))


def dense_normal_equations(design):
    """Reference ``sum_i A_i' W_i A_i`` and ``sum_i A_i' W_i y_i`` from the dense rows."""
    imap = CoefficientIndexMap.from_design(design)
    k0 = design.alpha_star_index()
    G = np.zeros((imap.size, imap.size))
    F = np.zeros(imap.size)
    for i, obs in enumerate(design.observations):
        t_idx = np.arange(k0, len(obs.y))
        A, y = observation_rows(design, i, t_idx)
        AW = A * quadrature_weights(t_idx.size, design.step)[:, None]
        G += A.T @ AW
        F += AW.T @ y
    return G, F


# The structured assembly sums in another order than the dense rows, so
# entries may differ by rounding; 1e-12 of the largest entry leaves
# three orders of magnitude above the double-precision error of sums
# this short.
ASSEMBLY_RTOL = 1e-12


def assert_close_to_dense(got, want):
    assert np.max(np.abs(got - want)) <= ASSEMBLY_RTOL * np.max(np.abs(want))


def assert_matches_dense(design):
    system = assemble(design)
    G, F = dense_normal_equations(design)
    assert np.array_equal(system.G, system.G.T)
    assert_close_to_dense(system.G, G)
    assert_close_to_dense(system.F, F)


@st.composite
def small_designs(draw):
    """Designs with p = 1..3, d = 0..2, unequal lags and lengths.

    Some lags are shorter than the largest (``L_j < k0``), some
    observations keep only two fitting samples, and a curve may be zero
    or constant instead of random.
    """
    step = 0.125
    p = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2))
    lag_steps = draw(st.lists(st.integers(1, 6), min_size=p, max_size=p))
    k0 = max(lag_steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["random", "zero", "constant"])
    observations = []
    for _ in range(draw(st.integers(1, 4))):
        n_pts = k0 + draw(st.integers(2, 12))
        curves = []
        for kind in draw(st.lists(kinds, min_size=p + 1, max_size=p + 1)):
            if kind == "random":
                curves.append(rng.standard_normal(n_pts))
            else:
                curves.append(np.full(n_pts, 0.0 if kind == "zero" else rng.uniform(-2.0, 2.0)))
        y, *xs = (GridFunction(0.0, step, c) for c in curves)
        observations.append(Observation(y, tuple(xs), tuple(rng.standard_normal(d))))
    return Design(tuple(observations), tuple(step * s for s in lag_steps), step)


class TestAssemble:
    @given(design=small_designs())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_rows(self, design):
        assert_matches_dense(design)

    def test_matches_the_dense_rows_on_unequal_lengths(self, unequal_design):
        assert_matches_dense(unequal_design)

    @given(design=small_designs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_down_sampled_rows_match_the_dense_rows(self, design, data):
        # Strides up to L + 2 leave some observations a single row and
        # take some strides past every lag window.
        stride = data.draw(st.integers(1, design.alpha_star_index() + 2), label="stride")
        flm = to_flm(design, stride * design.step)
        system = flm_normal_equations(flm)
        A, y = flm_rows(flm)
        assert np.array_equal(system.G, system.G.T)
        assert_close_to_dense(system.G, A.T @ A)
        assert_close_to_dense(system.F, A.T @ y)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        c = rng.standard_normal(system.size)
        coef = system.index_map.unpack(c)
        fitted = A @ c
        got = flm_row_residuals(flm, coef)
        # The residual is the difference of its two terms; its rounding
        # is a share of the larger of them.
        scale = max(np.max(np.abs(y)), np.max(np.abs(fitted)))
        assert np.max(np.abs(got - (y - fitted))) <= ASSEMBLY_RTOL * scale
        if stride == 1:
            # The same rows, with trapezoid weights in time, give the
            # criterion and the kernels' energy.
            W = np.concatenate([quadrature_weights(yi.size, design.step) for _, yi, _ in flm.observations])
            blk = system.index_map.covariate_block
            kernels = A[:, blk] @ c[blk]
            tol = ASSEMBLY_RTOL * W.sum()
            assert abs(sse(design, coef) - W @ (y - fitted) ** 2) <= tol * scale**2
            assert abs(quadratic_form(design, coef) - W @ kernels**2) <= tol * np.max(np.abs(kernels)) ** 2

    def test_zero_covariate_zeroes_the_block(self):
        design = single_obs_design(np.zeros(9), 0.25, 1.0)
        system = assemble(design)
        blk = system.index_map.covariate_block
        assert np.all(system.G[blk, blk] == 0.0)
        assert np.all(system.F[blk] == 0.0)

    def test_constant_covariate_rank_one_block(self):
        # For x == 1 every t-correlation integrates to T - alpha, so the
        # kernel block is (T - alpha) * outer(w, w).
        step, T, alpha = 0.25, 2.0, 0.5
        design = single_obs_design(np.ones(round(T / step) + 1), step, alpha)
        system = assemble(design)
        sl = system.index_map.covariate_slice(0)
        w = quadrature_weights(system.index_map.sizes[0], step)
        expected = (T - alpha) * np.outer(w, w)
        assert np.allclose(system.G[sl, sl], expected, atol=1e-12)

    def test_quadratic_form_matches_forward_model(self, noisy_design):
        # v' G v computed from the assembled matrix must equal the
        # directly integrated energy of the lag convolution.
        design, _ = noisy_design
        system = assemble(design)
        rng = np.random.default_rng(17)
        for _ in range(10):
            beta = GridFunction(0.0, design.step, rng.standard_normal(9))
            coef = CoefficientSet((0.0, 0.0), (beta,))
            v = system.index_map.pack(coef)
            direct = 0.0
            for i in range(design.n):
                conv = predict(design, coef, i)
                direct += quadrature_weights(len(conv), conv.step) @ conv.values**2
            assert float(v @ system.G @ v) == pytest.approx(direct, rel=1e-8)

    def test_gradient_is_normal_equations(self, noisy_design):
        design, truth = noisy_design
        system = assemble(design)
        c = system.index_map.pack(truth)
        grad = 2.0 * (system.G @ c - system.F)
        eps = 1e-4
        rng = np.random.default_rng(23)
        for k in rng.choice(system.size, size=6, replace=False):
            e = np.zeros(system.size)
            e[k] = eps
            plus = sse(design, system.index_map.unpack(c + e))
            minus = sse(design, system.index_map.unpack(c - e))
            fd = (plus - minus) / (2.0 * eps)
            assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-10)


class TestObservationRows:
    def test_rows_times_coefficients_match_predict(self, unequal_design):
        design = unequal_design
        imap = CoefficientIndexMap.from_design(design)
        rng = np.random.default_rng(4)
        c = rng.standard_normal(imap.size)
        coef = imap.unpack(c)
        k0 = design.alpha_star_index()
        for i, obs in enumerate(design.observations):
            A, y = observation_rows(design, i, np.arange(k0, len(obs.y)))
            want = predict(design, coef, i).values
            assert np.array_equal(y, obs.y.values[k0:])
            assert np.max(np.abs(A @ imap.pack(coef) - want)) <= 1e-12 * np.max(np.abs(want))


class TestSolveDirect:
    def test_recovers_noiseless_truth(self, noiseless_design):
        design, truth = noiseless_design
        system = assemble(design)
        coef = solve_direct(system)
        got = system.index_map.pack(coef)
        want = system.index_map.pack(truth)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_zero_design_raises(self):
        design = single_obs_design(np.zeros(9), 0.25, 1.0)
        with pytest.raises(NearSingularError):
            solve_direct(assemble(design))

    def test_diagonal_system_is_exact(self):
        imap = CoefficientIndexMap.from_parts(0, (0.5,), 0.25)
        diag = np.arange(1.0, imap.size + 1.0)
        target = np.linspace(-1.0, 1.0, imap.size)
        system = GramSystem(
            G=np.diag(diag),
            F=diag * target,
            index_map=imap,
            weights=np.ones(imap.size),
        )
        coef = solve_direct(system)
        assert np.allclose(imap.pack(coef), target, atol=1e-13)

    def test_ill_conditioned_system_raises_past_the_guard(self):
        # A cut of 1e-18 would keep every mode; the floor of size * eps
        # (8.9e-16 here) drops the 1e-17 one, whose solution would be a
        # huge-norm kernel.
        imap = CoefficientIndexMap.from_parts(0, (0.5,), 0.25)
        evals = np.array([1e-17, 1e-3, 0.1, 1.0])
        system = GramSystem(G=np.diag(evals), F=np.ones(4), index_map=imap, weights=np.ones(4))
        with pytest.raises(NearSingularError) as exc:
            solve_direct(system, rel_tol=1e-18)
        assert (exc.value.min_eig, exc.value.max_eig) == (evals[0], evals[-1])

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -1.0, 0.0, 1.5])
    def test_rel_tol_outside_the_unit_interval_rejected(self, noisy_design, rel_tol):
        design, _ = noisy_design
        with pytest.raises(ValueError):
            solve_direct(assemble(design), rel_tol)

    @given(design=small_designs(), rel_tol=st.sampled_from([1e-10, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_when_truncation_drops_a_mode(self, design, rel_tol):
        system = assemble(design)
        _, rank = solve_truncated_svd(system, rel_tol)
        try:
            solve_direct(system, rel_tol)
        except NearSingularError:
            assert rank < system.size
        else:
            assert rank == system.size

    def test_error_carries_eigenvalues(self, deficient_design):
        design, _ = deficient_design
        with pytest.raises(NearSingularError) as exc:
            solve_direct(assemble(design))
        assert exc.value.max_eig > 0.0
        assert exc.value.min_eig <= 1e-12 * exc.value.max_eig


class TestSolveTruncatedSvd:
    def test_agrees_with_direct_when_full_rank(self, noisy_design):
        design, _ = noisy_design
        system = assemble(design)
        c_direct = system.index_map.pack(solve_direct(system))
        coef, rank = solve_truncated_svd(system)
        c_svd = system.index_map.pack(coef)
        assert rank == system.size
        assert weighted_rel_dist(system.weights, c_svd, c_direct) < 1e-8

    def test_minimum_norm_has_no_null_component(self, deficient_design):
        design, _ = deficient_design
        system = assemble(design)
        coef, rank = solve_truncated_svd(system)
        assert rank < system.size
        spectrum = gram_spectrum(system, tol=1e-10)
        blk = system.index_map.covariate_block
        w = system.weights[blk]
        c = system.index_map.pack(coef)[blk]
        for null_vec in spectrum.null_basis:
            v = system.index_map.pack(null_vec)[blk]
            assert abs(float(np.sum(w * c * v))) < 1e-8

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12, 1e-14, 1e-16, 1e-18])
    def test_rank_is_the_one_at_which_direct_refuses(self, deficient_design, rel_tol):
        # Both solvers floor the cut at size * eps (3.1e-15 here), so no
        # cut counts the rounding-noise eigenvalues (below 4e-18 of the
        # largest) as modes.
        design, _ = deficient_design
        system = assemble(design)
        evals = system.spectrum()[0]
        cut = max(rel_tol, system.size * np.finfo(float).eps) * evals[-1]
        _, rank = solve_truncated_svd(system, rel_tol)
        assert rank == np.count_nonzero(evals >= cut) == 7
        with pytest.raises(NearSingularError):
            solve_direct(system, rel_tol)

    def test_cut_below_the_floor_drops_the_noise_mode(self):
        imap = CoefficientIndexMap.from_parts(0, (0.5,), 0.25)
        system = GramSystem(
            G=np.diag([1e-17, 1e-3, 0.1, 1.0]), F=np.ones(4), index_map=imap, weights=np.ones(4)
        )
        assert solve_truncated_svd(system, 1e-18)[1] == 3
        with pytest.raises(NearSingularError):
            solve_direct(system, 1e-18)

    def test_rel_tol_one_keeps_single_direction(self, deficient_design):
        design, _ = deficient_design
        _, rank = solve_truncated_svd(assemble(design), rel_tol=1.0)
        assert rank == 1


class TestSolvePenalized:
    def test_zero_penalty_equals_direct(self, noisy_design):
        design, _ = noisy_design
        system = assemble(design)
        c_direct = system.index_map.pack(solve_direct(system))
        c_pen = system.index_map.pack(solve_penalized(system, 0.0))
        assert weighted_rel_dist(system.weights, c_pen, c_direct) < 1e-8

    def test_huge_penalty_flattens_kernels(self, noisy_design):
        design, _ = noisy_design
        coef = solve_penalized(assemble(design), 1e8)
        d2 = np.diff(coef.betas[0].values, 2)
        assert np.max(np.abs(d2)) < 1e-9

    def test_penalty_restores_uniqueness_when_deficient(self, deficient_design):
        # The ridge solution must reproduce the truncated-SVD criterion
        # value even though the unpenalized system is singular.
        design, _ = deficient_design
        system = assemble(design)
        coef_svd, _ = solve_truncated_svd(system)
        coef_ridge = solve_penalized(system, 1e-6)
        gap = abs(sse(design, coef_ridge) - sse(design, coef_svd))
        assert gap / sse(design, coef_svd) < 1e-6

    def test_negative_penalty_rejected(self, noisy_design):
        design, _ = noisy_design
        with pytest.raises(ValueError):
            solve_penalized(assemble(design), -1.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_penalty_rejected(self, noisy_design, lam):
        design, _ = noisy_design
        with pytest.raises(ValueError):
            solve_penalized(assemble(design), lam)

    def test_singular_system_raises_with_its_eigenvalues(self, deficient_design):
        # Without a penalty the kernel block has rank 7 of 13, and the
        # LU solve would return a huge-norm solution without a word.
        design, _ = deficient_design
        system = assemble(design)
        with pytest.raises(NearSingularError) as exc:
            solve_penalized(system, 0.0)
        evals = weighted_eigvalsh(system)
        assert exc.value.min_eig == pytest.approx(evals[0], abs=1e-12 * evals[-1])
        assert exc.value.max_eig == pytest.approx(evals[-1], rel=1e-12)

    @given(design=small_designs(), lam=st.sampled_from([0.0, 1e-8, 1e-4, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_when_the_penalized_spectrum_drops_a_mode(self, design, lam):
        assert_ridge_refusal_rule(assemble(design), lam)

    @pytest.mark.parametrize("lam, refused", [(0.0, True), (1e-6, False)])
    def test_refusal_rule_on_a_deficient_design(self, deficient_design, lam, refused):
        design, _ = deficient_design
        assert assert_ridge_refusal_rule(assemble(design), lam) == refused


def assert_ridge_refusal_rule(system, lam):
    """Check :func:`solve_penalized` against the spectral rule; return whether it refused.

    It refuses exactly when the weighted spectrum of ``G + lam D'D`` has
    rank below ``size`` at the cut ``size * eps``, and otherwise returns
    a ``c`` whose residual ``(G + lam D'D) c - F`` is rounding: below
    ``1e3 * size * eps`` relative to ``|G + lam D'D| |c| + |F|``.
    """
    P = estimator._add_curvature_penalty(system.G, system.index_map, lam)
    evals = replace(system, G=P).spectrum()[0]
    eps = np.finfo(float).eps
    full_rank = np.count_nonzero(evals >= system.size * eps * evals[-1]) == system.size
    try:
        coef = solve_penalized(system, lam)
    except NearSingularError as exc:
        assert not full_rank
        assert (exc.min_eig, exc.max_eig) == (evals[0], evals[-1])
        return True
    assert full_rank
    c = system.index_map.pack(coef)
    scale = np.linalg.norm(P, 2) * np.linalg.norm(c) + np.linalg.norm(system.F)
    assert np.linalg.norm(P @ c - system.F) <= 1e3 * system.size * eps * scale
    return False


class TestCurvaturePenalty:
    """The penalty ``solve_penalized`` adds to ``G``: ``P`` with ``c'Pc = |Dc|^2``."""

    @staticmethod
    def penalty(imap):
        return estimator._add_curvature_penalty(np.zeros((imap.size, imap.size)), imap, 1.0)

    def test_annihilates_linear_kernels(self):
        imap = CoefficientIndexMap.from_parts(1, (0.5, 0.75), 0.125)
        c = np.zeros(imap.size)
        c[0], c[1] = 3.0, -2.0
        for j, slope, level in ((0, 1.5, 0.2), (1, -0.7, 1.0)):
            sl = imap.covariate_slice(j)
            c[sl] = level + slope * 0.125 * np.arange(imap.sizes[j])
        assert np.max(np.abs(self.penalty(imap) @ c)) < 1e-12

    def test_ignores_intercept_and_scalars(self):
        imap = CoefficientIndexMap.from_parts(2, (0.5,), 0.125)
        P = self.penalty(imap)
        assert np.all(P[:, : imap.d + 1] == 0.0)
        assert np.all(P[: imap.d + 1, :] == 0.0)

    def test_detects_curvature(self):
        imap = CoefficientIndexMap.from_parts(0, (0.5,), 0.125)
        c = np.zeros(imap.size)
        u = 0.125 * np.arange(imap.sizes[0])
        c[imap.covariate_slice(0)] = u**2
        assert c @ self.penalty(imap) @ c > 0.0

    def test_is_added_to_a_copy(self, noisy_design):
        system = assemble(noisy_design[0])
        G = system.G.copy()
        P = self.penalty(system.index_map)
        assert np.array_equal(estimator._add_curvature_penalty(system.G, system.index_map, 0.5), G + 0.5 * P)
        assert np.array_equal(system.G, G)


class TestIndexMap:
    def test_pack_unpack_round_trip(self):
        imap = CoefficientIndexMap.from_parts(2, (0.5, 1.0), 0.25)
        rng = np.random.default_rng(31)
        c = rng.standard_normal(imap.size)
        assert np.array_equal(imap.pack(imap.unpack(c)), c)

    def test_layout(self):
        imap = CoefficientIndexMap.from_parts(1, (0.5, 0.25), 0.25)
        assert imap.size == 2 + 3 + 2
        assert imap.covariate_slice(0) == slice(2, 5)
        assert imap.covariate_slice(1) == slice(5, 7)
        assert imap.covariate_block == slice(2, 7)

    def test_lag_weights_are_trapezoid_per_block(self):
        imap = CoefficientIndexMap.from_parts(0, (0.5,), 0.25)
        w = imap.lag_weights()
        assert w[0] == 1.0
        assert np.allclose(w[1:], [0.125, 0.25, 0.125])

    def test_pack_rejects_mismatched_coefficients(self):
        imap = CoefficientIndexMap.from_parts(0, (0.5,), 0.25)
        bad = CoefficientSet((1.0, 2.0), (GridFunction(0.0, 0.25, np.zeros(3)),))
        with pytest.raises(ConformalityError):
            imap.pack(bad)


class TestFit:
    def test_reports_consistent_sse(self, noisy_design):
        design, _ = noisy_design
        result = fit(design, solver="direct")
        assert result.sse_value == pytest.approx(sse(design, result.coef), rel=1e-9)
        assert result.solver_used == "direct"
        assert result.truncation_rank is None

    def test_truncated_solver_reports_rank(self, deficient_design):
        design, _ = deficient_design
        result = fit(design, solver="truncated_svd")
        assert result.solver_used == "truncated_svd"
        assert result.truncation_rank is not None
        assert result.truncation_rank < assemble(design).size

    def test_condition_number_reported(self, noisy_design):
        design, _ = noisy_design
        result = fit(design, solver="direct")
        evals = weighted_eigvalsh(assemble(design))
        assert result.gram_condition == pytest.approx(evals[-1] / evals[0], rel=1e-9)

    def test_unknown_solver_rejected(self, noisy_design):
        design, _ = noisy_design
        with pytest.raises(ValueError):
            fit(design, solver="qr")


def count_decompositions(monkeypatch) -> list:
    """Record each weighted eigendecomposition from now on: True for values only, False with vectors."""
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(*args, **kwargs):
        calls.append(False)
        return eigh(*args, **kwargs)

    def counting_eigvalsh(*args, **kwargs):
        calls.append(True)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return calls


class TestOneSolvePath:
    @pytest.mark.parametrize("solver", ["direct", "ridge", "truncated_svd"])
    def test_fit_decomposes_the_gram_matrix_once(self, monkeypatch, noisy_design, solver):
        # The guard, the reported extremes and the truncated solution all
        # read one cached weighted eigendecomposition; only the truncated
        # solver asks it for vectors. The ridge refusal reads the
        # spectrum of G + lam D'D first, the one other decomposition.
        design, _ = noisy_design
        calls = count_decompositions(monkeypatch)
        fit(design, solver=solver, lam=1e-6)
        assert calls == {"direct": [True], "ridge": [True, True], "truncated_svd": [False]}[solver]

    def test_rank_deficient_fallback_reuses_the_assembled_system(self, monkeypatch, deficient_design):
        # The direct guard refuses on the cached eigenvalues; the
        # truncated solver then adds the eigenvectors.
        design, _ = deficient_design
        calls = {"assemble": 0}
        real_assemble = estimator.assemble

        def counting_assemble(*args, **kwargs):
            calls["assemble"] += 1
            return real_assemble(*args, **kwargs)

        monkeypatch.setattr(estimator, "assemble", counting_assemble)
        decompositions = count_decompositions(monkeypatch)
        result = fit(design, solver="direct", allow_rank_deficient=True)
        assert calls == {"assemble": 1}
        assert decompositions == [True, False]
        truncated = fit(design, solver="truncated_svd")
        assert (result.solver_used, result.truncation_rank) == ("truncated_svd", truncated.truncation_rank)
        assert np.array_equal(result.coef.betas[0].values, truncated.coef.betas[0].values)
        with pytest.raises(NearSingularError):
            fit(design, solver="direct")

    def test_fit_flm_uses_the_direct_guard(self, deficient_design):
        design, _ = deficient_design
        data = to_flm(design, design.step)
        with pytest.raises(NearSingularError) as via_fit:
            fit_flm(data, 0.0)
        with pytest.raises(NearSingularError) as via_solver:
            solve_direct(flm_normal_equations(data))
        assert (via_fit.value.min_eig, via_fit.value.max_eig) == (
            via_solver.value.min_eig,
            via_solver.value.max_eig,
        )
