import numpy as np
import pytest
import scipy.linalg

from fcmlab import identifiability
from fcmlab.designs import GeneratorSpec, gen_covariate
from fcmlab.errors import GridError, NearSingularError
from fcmlab.estimator import assemble
from fcmlab.grids import GridFunction, inner_product, quadrature_weights
from fcmlab.identifiability import (
    certify_direction,
    delay_embed,
    diagnose,
    fit_recurrence,
    gram_spectrum,
    quadratic_form,
    recurrence_modes,
    self_similarity_residual,
)
from fcmlab.model import CoefficientSet, Design, Observation


def curve(fn, T=2.0, step=1.0 / 256.0):
    t = step * np.arange(round(T / step) + 1)
    return GridFunction(0.0, step, fn(t))


def curve_design(x, alpha):
    y = GridFunction(x.start, x.step, np.zeros(len(x)))
    return Design((Observation(y, (x,), ()),), (alpha,), x.step)


def gamma_on(design, values):
    return CoefficientSet(
        (0.0,) * (design.d + 1),
        (GridFunction(0.0, design.step, values),),
    )


class TestQuadraticForm:
    def test_zero_direction(self, noisy_design):
        design, _ = noisy_design
        assert quadratic_form(design, gamma_on(design, np.zeros(9))) == 0.0

    def test_matches_assembled_matrix(self, noisy_design):
        design, _ = noisy_design
        system = assemble(design)
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = gamma_on(design, rng.standard_normal(9))
            v = system.index_map.pack(g)
            assert quadratic_form(design, g) == pytest.approx(
                float(v @ system.G @ v), rel=1e-8
            )

    def test_orthogonal_design_annihilates_odd_sine(self):
        step = 1.0 / 256.0
        x = gen_covariate(
            GeneratorSpec("orthogonal_counterexample", 3.0, step, params={"K": 4})
        )
        design = curve_design(x, 1.0)
        u = step * np.arange(257)
        g = gamma_on(design, np.sin(2.0 * np.pi * u))
        bound = 1e-8 * inner_product(x, x) * inner_product(
            g.betas[0], g.betas[0]
        )
        assert quadratic_form(design, g) < bound


class TestGramSpectrum:
    def test_constant_covariate_rank_one(self):
        x = curve(np.ones_like, T=2.0, step=0.25)
        report = gram_spectrum(assemble(curve_design(x, 0.5)))
        assert report.numerical_rank == 1

    def test_single_sine_rank_two(self):
        x = curve(lambda t: np.sin(2 * np.pi * t), T=4.0, step=1.0 / 128.0)
        report = gram_spectrum(assemble(curve_design(x, 1.0)), tol=1e-8)
        assert report.numerical_rank == 2

    def test_broadband_design_full_rank(self, noisy_design):
        design, _ = noisy_design
        report = gram_spectrum(assemble(design), tol=1e-10)
        assert report.numerical_rank == report.eigenvalues.size
        assert report.null_basis == ()

    def test_eigenvalues_sorted_and_nearly_nonnegative(self, deficient_design):
        design, _ = deficient_design
        report = gram_spectrum(assemble(design), tol=1e-10)
        ev = report.eigenvalues
        assert np.all(np.diff(ev) <= 0.0)
        assert ev[-1] >= -1e-10 * ev[0]

    def test_null_basis_weighted_orthonormal(self, deficient_design):
        design, _ = deficient_design
        system = assemble(design)
        report = gram_spectrum(system, tol=1e-10)
        assert len(report.null_basis) == report.eigenvalues.size - report.numerical_rank
        blk = system.index_map.covariate_block
        w = system.weights[blk]
        vecs = [system.index_map.pack(v)[blk] for v in report.null_basis]
        for i, vi in enumerate(vecs):
            for k, vk in enumerate(vecs):
                got = float(np.sum(w * vi * vk))
                assert got == pytest.approx(1.0 if i == k else 0.0, abs=1e-10)

    def test_scaling_covariates_scales_eigenvalues_quadratically(self, noisy_design):
        design, _ = noisy_design
        s = 3.7
        scaled = Design(
            tuple(
                Observation(o.y, tuple(x.with_values(s * x.values) for x in o.x), o.z)
                for o in design.observations
            ),
            design.lags,
            design.step,
        )
        r1 = gram_spectrum(assemble(design), tol=1e-10)
        r2 = gram_spectrum(assemble(scaled), tol=1e-10)
        assert np.allclose(r2.eigenvalues, s * s * r1.eigenvalues, rtol=1e-8)
        assert r2.numerical_rank == r1.numerical_rank


class TestCertifyDirection:
    def test_null_direction_fails(self, deficient_design):
        design, _ = deficient_design
        report = gram_spectrum(assemble(design), tol=1e-10)
        for v in report.null_basis:
            assert not certify_direction(design, v, tol=1e-8)

    def test_leading_direction_passes(self, deficient_design):
        design, _ = deficient_design
        system = assemble(design)
        blk = system.index_map.covariate_block
        W = np.diag(system.weights[blk])
        Gb = system.G[blk, blk]
        # leading eigenvector of the weighted block, unpacked and
        # normalized to unit discrete L2 norm
        evals, vecs = scipy.linalg.eigh(
            np.sqrt(W) @ np.linalg.solve(W, Gb @ np.linalg.inv(W)) @ np.sqrt(W)
        )
        lead = np.linalg.solve(np.sqrt(W), vecs[:, -1])
        lead = lead / np.sqrt(float(lead @ W @ lead))
        c = np.zeros(system.size)
        c[blk] = lead
        gamma = system.index_map.unpack(c)
        assert certify_direction(design, gamma, tol=1e-8)

    def test_zero_design_certifies_nothing(self):
        x = curve(np.zeros_like, T=2.0, step=0.25)
        design = curve_design(x, 0.5)
        g = gamma_on(design, np.ones(3))
        assert not certify_direction(design, g, tol=1e-8)

    def test_zero_direction_rejected(self, noisy_design):
        design, _ = noisy_design
        with pytest.raises(ValueError):
            certify_direction(design, gamma_on(design, np.zeros(9)), tol=1e-8)


class TestDelayEmbed:
    def test_rows_are_lagged_windows(self):
        x = curve(lambda t: t, T=1.0, step=0.25)
        H = delay_embed(x, 0.5)
        # H[l][m] = x(t_l - m step) for t_l in [0.5, 1.0]
        assert H.shape == (3, 3)
        assert np.allclose(H[0], [0.5, 0.25, 0.0])
        assert np.allclose(H[-1], [1.0, 0.75, 0.5])

    def test_stride_thins_rows(self):
        x = curve(lambda t: t, T=1.0, step=0.125)
        assert delay_embed(x, 0.5, stride=2).shape[0] == 3

    def test_exponential_is_rank_one(self):
        s = scipy.linalg.svdvals(delay_embed(curve(lambda t: np.exp(0.3 * t)), 1.0))
        assert s[1] / s[0] < 1e-10

    def test_sine_is_rank_two(self):
        s = scipy.linalg.svdvals(
            delay_embed(curve(lambda t: np.sin(2 * np.pi * t)), 1.0)
        )
        assert s[1] / s[0] > 1e-3
        assert s[2] / s[0] < 1e-12

    def test_polynomial_exponential_products(self):
        # t e^t spans two shifts; t^2 e^t sin t spans 2*(2+1) = 6. The
        # sixth direction is weak (5.7e-10 relative) but real, so the
        # rank cut must sit below it.
        s = scipy.linalg.svdvals(delay_embed(curve(lambda t: t * np.exp(t)), 1.0))
        assert s[1] / s[0] > 1e-3
        assert s[2] / s[0] < 1e-12
        s = scipy.linalg.svdvals(
            delay_embed(curve(lambda t: t**2 * np.exp(t) * np.sin(t)), 1.0)
        )
        assert s[5] / s[0] > 1e-11
        assert s[6] / s[0] < 1e-12

    def test_window_longer_than_domain_raises(self):
        x = curve(lambda t: t, T=1.0, step=0.25)
        with pytest.raises(GridError):
            delay_embed(x, 2.0)


class TestFitRecurrence:
    def test_exponential_closed_form(self):
        step = 1.0 / 64.0
        x = curve(lambda t: np.exp(0.3 * t), T=2.0, step=step)
        coeffs = fit_recurrence(x, 1)
        assert coeffs[0] == pytest.approx(np.exp(0.3 * step), abs=1e-10)

    def test_sine_closed_form(self):
        step = 1.0 / 64.0
        x = curve(lambda t: np.sin(2 * np.pi * t), T=2.0, step=step)
        coeffs = fit_recurrence(x, 2)
        assert coeffs[0] == pytest.approx(2.0 * np.cos(2.0 * np.pi * step), abs=1e-8)
        assert coeffs[1] == pytest.approx(-1.0, abs=1e-8)

    def test_overfit_order_reports_rank_deficiency(self):
        # An exponential already satisfies an order-1 recurrence, so the
        # order-2 regressors are collinear.
        x = curve(lambda t: np.exp(0.3 * t), T=2.0, step=1.0 / 64.0)
        with pytest.raises(NearSingularError):
            fit_recurrence(x, 2)

    def test_too_few_samples(self):
        x = GridFunction(0.0, 0.25, np.arange(5.0))
        with pytest.raises(GridError):
            fit_recurrence(x, 2)


class TestRecurrenceModes:
    def test_sine_gives_conjugate_pair(self):
        step = 1.0 / 64.0
        coeffs = np.array([2.0 * np.cos(2.0 * np.pi * step), -1.0])
        modes = recurrence_modes(coeffs, step)
        assert len(modes) == 1
        mode = modes[0]
        assert mode.conjugate_pair
        assert mode.multiplicity == 1
        assert mode.dimension == 2
        assert mode.a == pytest.approx(0.0, abs=1e-9)
        assert mode.b == pytest.approx(2.0 * np.pi, abs=1e-6)

    def test_double_real_root_multiplicity(self):
        step = 1.0 / 32.0
        rho = np.exp(-0.4 * step)
        modes = recurrence_modes(np.array([2.0 * rho, -rho * rho]), step)
        assert len(modes) == 1
        assert modes[0].multiplicity == 2
        assert not modes[0].conjugate_pair
        assert modes[0].a == pytest.approx(-0.4, abs=1e-6)
        assert modes[0].b == 0.0


class TestSelfSimilarityResidual:
    def test_damped_oscillation_with_ramp(self):
        x = curve(lambda t: t * np.exp(-0.2 * t) * np.sin(3.0 * t + 0.7))
        assert self_similarity_residual(x, 4, alpha=1.0) < 1e-8

    def test_six_sine_sum_minimal_order_is_twelve(self):
        # Six sines span sin and cos at six frequencies: order 12, and
        # order 11 genuinely fails (tail 1.9e-2).
        step = 1.0 / 64.0
        t = step * np.arange(round(2.0 / step) + 1)
        vals = sum(2.0**-k * np.sin(2 * k * np.pi * t) for k in range(1, 7))
        x = GridFunction(0.0, step, vals)
        assert self_similarity_residual(x, 12, alpha=1.0) < 1e-8
        assert self_similarity_residual(x, 11, alpha=1.0) > 1e-4

    def test_broadband_floor(self):
        spec = GeneratorSpec(
            "filtered_noise", 2.0, 1.0 / 64.0, seed=3,
            params={"n_modes": 64, "max_frequency": 8.0, "bandwidth": 0.05},
        )
        x = gen_covariate(spec)
        assert self_similarity_residual(x, 2, alpha=1.0) > 0.1

    def test_default_window_is_half_domain(self):
        x = curve(lambda t: np.sin(2 * np.pi * t), T=2.0, step=1.0 / 64.0)
        assert self_similarity_residual(x, 2) == self_similarity_residual(
            x, 2, alpha=1.0
        )

    def test_order_beyond_columns_rejected(self):
        x = curve(lambda t: t, T=1.0, step=0.25)
        with pytest.raises(ValueError):
            self_similarity_residual(x, 4, alpha=0.5)


class TestDiagnose:
    def test_exponential_design_not_identifiable(self):
        x = curve(lambda t: np.exp(0.3 * t), T=2.0, step=1.0 / 64.0)
        report = diagnose(curve_design(x, 0.5))
        assert not report.identifiable
        assert report.spectrum.numerical_rank == 1
        assert report.covariate_reports[0][0].estimated_order == 1
        assert report.finite_dimensional == (True,)

    def test_three_tone_short_window_identifiable(self):
        # Three tones span 6 dimensions, enough to fill a 5-column
        # window, and too much for the parsimony flag.
        step = 1.0 / 8.0
        x = gen_covariate(GeneratorSpec("sinusoid_rich", 3.0, step, params={"K": 3}))
        report = diagnose(curve_design(x, 0.5))
        assert report.identifiable
        assert report.spectrum.numerical_rank == 5
        assert report.finite_dimensional == (False,)

    def test_verdict_follows_rank(self, deficient_design):
        design, _ = deficient_design
        report = diagnose(design)
        assert not report.identifiable
        assert report.spectrum.numerical_rank < report.spectrum.eigenvalues.size

    def test_broadband_order_past_half_window_is_not_parsimonious(self, monkeypatch):
        # Filtered noise reaches the tolerance only near the end of its
        # 65 singular values, so no recurrence is worth fitting.
        step = 1.0 / 128.0
        spec = GeneratorSpec(
            "filtered_noise", 2.0, step, seed=3,
            params={"n_modes": 256, "max_frequency": 0.4 / step, "bandwidth": step},
        )
        calls = []
        monkeypatch.setattr(
            identifiability, "fit_recurrence", lambda *args: calls.append(args)
        )
        report = diagnose(curve_design(gen_covariate(spec), 0.5))
        rep = report.covariate_reports[0][0]
        assert rep.singular_values.size // 2 < rep.estimated_order < rep.singular_values.size
        assert not rep.finite_dimensional
        assert report.finite_dimensional == (False,)
        assert rep.recurrence_coeffs is None and rep.modes is None
        assert calls == []

    def test_order_at_half_window_keeps_recurrence(self):
        # Two tones need order 4, exactly half of an 8-column window.
        step = 1.0 / 16.0
        x = curve(
            lambda t: np.sin(2 * np.pi * t) + 0.5 * np.sin(6 * np.pi * t + 0.3),
            T=3.0, step=step,
        )
        rep = diagnose(curve_design(x, 7 * step)).covariate_reports[0][0]
        assert rep.singular_values.size == 8
        assert rep.estimated_order == 4
        assert rep.finite_dimensional
        assert rep.recurrence_coeffs is not None
        assert sorted(m.b for m in rep.modes) == pytest.approx([2 * np.pi, 6 * np.pi], abs=1e-6)

    def test_residual_is_the_curve_at_the_estimated_order(self, noisy_design):
        terms = [{"a": -0.2, "b": 7.0}, {"a": 0.1, "b": 17.0}, {"a": -0.3, "b": 27.0}]
        x = gen_covariate(GeneratorSpec("self_similar", 6.0, 1.0 / 64.0, params={"terms": terms}))
        for design in (noisy_design[0], curve_design(x, 1.0)):
            for row in diagnose(design).covariate_reports:
                for rep in row:
                    assert rep.residual == rep.residual_curve[rep.estimated_order]

    def test_null_directions_have_zero_quadratic_form(self, deficient_design):
        design, _ = deficient_design
        system = assemble(design)
        report = gram_spectrum(system, tol=1e-10)
        lam_max = float(report.eigenvalues[0])
        for v in report.null_basis:
            assert quadratic_form(design, v) <= 1e-10 * lam_max
