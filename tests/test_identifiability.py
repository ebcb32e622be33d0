import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmlab import identifiability
from fcmlab.designs import GeneratorSpec, gen_covariate
from fcmlab.experiments import _family_curve, _family_members
from fcmlab.errors import GridError, NearSingularError
from fcmlab.estimator import assemble
from fcmlab.grids import GridFunction, inner_product, quadrature_weights
from fcmlab.identifiability import (
    SelfSimilarityReport,
    delay_embed,
    diagnose,
    fit_recurrence,
    gram_spectrum,
    quadratic_form,
    recurrence_modes,
    self_similarity_residual,
)
from fcmlab.model import CoefficientSet, Design, Observation

from conftest import assert_same_report, certificate_first_report, positive_inertia, traced_peak


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

    def test_zero_design_sees_nothing(self):
        design = curve_design(curve(np.zeros_like, T=2.0, step=0.25), 0.5)
        assert quadratic_form(design, gamma_on(design, np.ones(3))) == 0.0

    def test_leading_direction_carries_the_largest_eigenvalue(self, deficient_design):
        # A unit-norm leading eigenvector of the weighted kernel block
        # has energy equal to the block's largest eigenvalue.
        design, _ = deficient_design
        system = assemble(design)
        blk = system.index_map.covariate_block
        evals, vecs, S = system.weighted_eigh(blk)
        c = np.zeros(system.size)
        c[blk] = vecs[:, -1] / S
        energy = quadratic_form(design, system.index_map.unpack(c))
        assert energy == pytest.approx(evals[-1], rel=1e-10)

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
        report = gram_spectrum(assemble(curve_design(x, 0.5)), tol=1e-10)
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


class TestDelayEmbed:
    def test_rows_are_lagged_windows(self):
        x = curve(lambda t: t, T=1.0, step=0.25)
        H = delay_embed(x, 0.5)
        # H[l][m] = x(t_l - m step) for t_l in [0.5, 1.0]
        assert H.shape == (3, 3)
        assert np.allclose(H[0], [0.5, 0.25, 0.0])
        assert np.allclose(H[-1], [1.0, 0.75, 0.5])

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

    @pytest.mark.parametrize("k", [0, 600, -600])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_power_of_two_scale_changes_no_fit(self, k):
        # At 2**600 the squares of the singular values overflow, and at
        # 2**-600 they underflow: the error must saturate them silently.
        x = curve(lambda t: np.sin(2 * np.pi * t), T=2.0, step=1.0 / 64.0)
        scaled = GridFunction(x.start, x.step, np.ldexp(x.values, k))
        assert fit_recurrence(scaled, 2).tobytes() == fit_recurrence(x, 2).tobytes()
        with pytest.raises(NearSingularError):
            fit_recurrence(scaled, 3)

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

    def test_stacked_roots_are_the_roots_of_np_roots(self):
        # Mixed sizes, real and complex roots, and zero coefficients at
        # the end, inside and everywhere.
        rng = np.random.default_rng(12)
        coeffs = [rng.standard_normal(k) for k in (1, 2, 2, 3, 6, 6, 6, 9)]
        coeffs += [np.array([2.0 * np.cos(0.1), -1.0]), np.array([1.5, 0.0, 0.0]), np.array([0.0, 0.5])]
        coeffs += [np.zeros(3), np.array([0.0, -0.0]), np.array([-0.5, 0.0, 0.25, 0.0])]
        for a, b, m, order in _family_members():
            x = _family_curve(a, b, m, 2.0, 1.0 / 32.0)
            coeffs.append(fit_recurrence(x, order))
        roots = identifiability._characteristic_roots(coeffs)
        for c, r in zip(coeffs, roots):
            assert repr(r) == repr(np.roots(np.concatenate(([1.0], -c))).tolist())


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


def root_curve(roots, coefs, size, step):
    """``x[k] = sum_q c_q z_q^k``: a curve of order ``len(roots)``."""
    k = np.arange(size)
    return GridFunction(0.0, step, sum(c * z**k for z, c in zip(roots, coefs)))


@st.composite
def certificate_cases(draw):
    """A curve, its embedding window and a tolerance.

    Filtered noise of several sizes; members of the mode family; and
    curves of exact order ``half`` or ``half + 1`` of their window.
    Returns ``(x, alpha, tol, order)``, with ``order`` None for noise.
    """
    tol = draw(st.sampled_from([1e-8, 1e-6, 1e-3, 5e-2]))
    kind = draw(st.sampled_from(["noise", "family", "order"]))
    if kind == "noise":
        step = 1.0 / draw(st.sampled_from([16, 32, 64]))
        T = draw(st.sampled_from([1.0, 2.0, 3.0]))
        spec = GeneratorSpec(
            "filtered_noise", T, step, seed=draw(st.integers(0, 2**31 - 1)),
            params={
                "n_modes": 64,
                "max_frequency": draw(st.sampled_from([2.0, 8.0, 0.4 / step])),
                "bandwidth": step,
            },
        )
        x = gen_covariate(spec)
        L = draw(st.integers(1, (len(x) - 1) // 2))
        return x, L * step, tol, None
    if kind == "family":
        step = 1.0 / 32.0
        a, b, m, order = draw(st.sampled_from(list(_family_members())))
        x = _family_curve(a, b, m, 2.0, step)
        n = draw(st.integers(max(2, 2 * order - 2), 2 * order + 1))
        return x, (n - 1) * step, tol, order
    order = draw(st.integers(1, 12))
    step = 1.0 / 16.0
    roots = draw(
        st.lists(st.floats(-0.95, 1.02), min_size=order, max_size=order, unique=True)
    )
    coefs = draw(st.lists(st.floats(0.5, 2.0), min_size=order, max_size=order))
    n = draw(st.sampled_from([2 * order - 2, 2 * order - 1, 2 * order, 2 * order + 1]))
    n = max(n, 2)
    size = draw(st.integers(2 * n, 5 * n))
    return root_curve(roots, coefs, size, step), (n - 1) * step, tol, order


class TestBroadbandCertificate:
    def test_embedding_gram_matches_the_product(self):
        rng = np.random.default_rng(5)
        for size, L in ((9, 1), (40, 7), (200, 64)):
            x = GridFunction(0.0, 0.5, rng.standard_normal(size))
            M = identifiability._embedding_grams(x.values[None], L)[0]
            H = delay_embed(x, L * 0.5)
            ref = H.T @ H
            assert np.abs(M - ref).max() <= 1e-12 * np.trace(ref)

    @given(
        kind=st.sampled_from(["random", "zero", "constant"]),
        size=st.integers(2, 80),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_curve_gram_is_the_product_within_the_rounding_bound(self, kind, size, data):
        # The bound is the rho / 2 * trace(M) of `_gram_thresholds`'s
        # docstring, rho = 8 n (N + n) eps, in the 2-norm.
        L = data.draw(st.integers(1, size - 1), label="L")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if kind == "random":
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4)
        else:
            values = np.full(size, 0.0 if kind == "zero" else rng.uniform(-2.0, 2.0))
        x = GridFunction(0.0, 0.25, values)
        M = identifiability._embedding_grams(x.values[None], L)[0]
        H = delay_embed(x, L * 0.25)
        ref = H.T @ H
        n = L + 1
        rho = 8.0 * n * (size + n) * np.finfo(float).eps
        assert M.shape == ref.shape
        assert np.linalg.norm(M - ref, 2) <= 0.5 * rho * np.trace(ref)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 2.5, 0.3 / 4.0, -0.25])
    def test_curve_pass_refuses_the_windows_delay_embed_refuses(self, alpha):
        x = GridFunction(0.0, 0.25, np.arange(10.0))  # 9 steps: 2.25 at most
        with pytest.raises(GridError) as embed:
            delay_embed(x, alpha)
        with pytest.raises(GridError) as curve_pass:
            analyze(x, alpha, 1e-8)
        assert str(curve_pass.value) == str(embed.value)

    def test_positive_inertia_counts_positive_eigenvalues(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 33, 80):
            for _ in range(5):
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                evals = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 10.0, n)
                A = (Q * evals) @ Q.T
                A = 0.5 * (A + A.T)
                assert positive_inertia(A.copy()) == np.count_nonzero(evals > 0)

    @given(case=certificate_cases())
    @settings(max_examples=150, deadline=None)
    def test_certified_curves_have_a_tail_of_at_least_tol_at_half(self, case):
        x, alpha, tol, order = case
        H = delay_embed(x, alpha)
        half = H.shape[1] // 2
        L = identifiability._window_steps(x, alpha)
        M, theta = identifiability._gram_thresholds(x.values[None], L, tol)
        if not identifiability._inertia_certifies(M[0], theta[0]):
            return
        # A curve of order at most half satisfies a short recurrence.
        assert order is None or order > half
        tail = identifiability._tail_energy(scipy.linalg.svdvals(H))
        assert tail[half] >= tol

    def test_certified_curve_runs_no_svd(self, monkeypatch, noisy_design):
        design, _ = noisy_design
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(args))
        report = diagnose(design)
        assert all(rep.singular_values is None for row in report.covariate_reports for rep in row)
        assert calls == []


def analyze(x, alpha, tol):
    """The report of the curve pass on ``x`` alone."""
    (report,) = identifiability._analyze_curves([(x, alpha)], tol)
    return report


def exits(monkeypatch, x, alpha, tol):
    """``analyze(x, alpha, tol)``, and the names of the numpy decompositions it calls, in order."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("cholesky", "eigvalsh", "svd"):
            fn = getattr(np.linalg, name)
            m.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
        report = analyze(x, alpha, tol)
    return report, calls


class TestRouting:
    """The curve pass gives the certificate-first report through every exit of the pivoted Cholesky pass."""

    @given(case=certificate_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_route_gives_the_certificate_first_report(self, case):
        x, alpha, tol, _ = case
        expected = certificate_first_report(x, alpha, tol)
        assert_same_report(analyze(x, alpha, tol), expected)

    @pytest.mark.parametrize("member", list(_family_members()), ids=str)
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_family_members_are_settled_by_the_trace(self, monkeypatch, member, alpha):
        # The embeddings of the selfsimilar-many benchmark: step 1/64 over
        # [0, 6]. Each member has order at most 6, far below half of the
        # 33 or 65 columns, so pivots on as many rows leave a trace below
        # the threshold: no block Cholesky and no eigenvalue count.
        a, b, m, order = member
        x = _family_curve(a, b, m, 6.0, 1.0 / 64.0)
        report, calls = exits(monkeypatch, x, alpha, 1e-8)
        assert calls == ["svd"]
        assert report.estimated_order == order and report.modes is not None
        assert_same_report(report, certificate_first_report(x, alpha, 1e-8))

    def test_low_rank_curve_past_half_is_settled_by_the_trace(self, monkeypatch):
        # A sine under a 1e-7 noise floor: two pivots leave a residual trace
        # far below the certificate's threshold, though the order search
        # runs past half the window.
        noise = 1e-7 * np.random.default_rng(4).standard_normal(129)
        x = curve(lambda t: np.sin(2 * np.pi * t) + noise, T=2.0, step=1.0 / 64.0)
        report, calls = exits(monkeypatch, x, 0.5, 1e-8)
        assert calls == ["svd"]
        assert not report.finite_dimensional and report.singular_values is not None
        assert_same_report(report, certificate_first_report(x, 0.5, 1e-8))

    def test_fourteen_dimensional_curve_is_settled_by_the_trace(self, monkeypatch):
        # Seven tones span 14 dimensions of a 65-column window, fewer than
        # half of its columns.
        x = gen_covariate(GeneratorSpec("sinusoid_rich", 2.0, 1.0 / 64.0, params={"K": 7}))
        report, calls = exits(monkeypatch, x, 1.0, 1e-8)
        assert calls == ["svd"]
        assert report.estimated_order == 14 and report.modes is not None
        assert_same_report(report, certificate_first_report(x, 1.0, 1e-8))

    def test_curve_the_pass_leaves_undecided_is_counted_exactly(self, monkeypatch):
        # A sine on a 3-column window at tol 5e-2: one pivot leaves about
        # twice the threshold, and the second eigenvalue, 0.8 of it, is
        # too small for the two-row block to factor.
        x = _family_curve(0.0, 2.0, 0, 2.0, 1.0 / 32.0)
        report, calls = exits(monkeypatch, x, 2.0 / 32.0, 5e-2)
        assert calls == ["cholesky", "eigvalsh", "svd"]
        assert_same_report(report, certificate_first_report(x, 2.0 / 32.0, 5e-2))

    def test_broadband_curves_are_certified_by_the_pivot_block(self, monkeypatch, noisy_design):
        design, _ = noisy_design
        for obs in design.observations:
            report, calls = exits(monkeypatch, obs.x[0], design.lags[0], 1e-8)
            assert calls == ["cholesky"]
            assert_same_report(report, SelfSimilarityReport(None, None, None, None))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "max_frequency, bandwidth", [(6.0, 0.02), (0.4 * 128.0, 1.0 / 128.0), (2.0, 0.5)]
    )
    @pytest.mark.parametrize("alpha", [0.25, 1.0])
    def test_filtered_noise_gives_the_certificate_first_report(self, seed, max_frequency, bandwidth, alpha):
        spec = GeneratorSpec(
            "filtered_noise", 3.0, 1.0 / 128.0, seed=seed,
            params={"n_modes": 128, "max_frequency": max_frequency, "bandwidth": bandwidth},
        )
        x = gen_covariate(spec)
        for tol in (1e-8, 1e-3):
            expected = certificate_first_report(x, alpha, tol)
            assert_same_report(analyze(x, alpha, tol), expected)

    @pytest.mark.parametrize("k", [0, 500, 508])
    @pytest.mark.parametrize("kind", ["filtered_noise", "family_member"])
    def test_a_power_of_two_scale_changes_no_report(self, kind, k):
        # At 2**508 the squares of the samples, and of the singular
        # values, overflow unless the curve pass scales them back.
        if kind == "filtered_noise":
            spec = GeneratorSpec(
                "filtered_noise", 3.0, 1.0 / 128.0, seed=0,
                params={"n_modes": 128, "max_frequency": 0.4 * 128.0, "bandwidth": 1.0 / 128.0},
            )
            x, alpha = gen_covariate(spec), 0.25
        else:
            x, alpha = _family_curve(-0.5, 4.0, 1, 6.0, 1.0 / 64.0), 0.5
        scaled = GridFunction(x.start, x.step, np.ldexp(x.values, k))
        expected = analyze(x, alpha, 1e-8)
        report = analyze(scaled, alpha, 1e-8)
        assert (report.singular_values is None) == (expected.singular_values is None)
        assert (kind == "filtered_noise") == (report.singular_values is None)
        assert report.estimated_order == expected.estimated_order
        assert report.residual == expected.residual
        assert repr(report.modes) == repr(expected.modes)


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
        # Filtered noise keeps more than half of its 65 embedding
        # directions above the tolerance, so the inertia certificate
        # settles the curve: no order, no SVD and no recurrence.
        step = 1.0 / 128.0
        spec = GeneratorSpec(
            "filtered_noise", 2.0, step, seed=3,
            params={"n_modes": 256, "max_frequency": 0.4 / step, "bandwidth": step},
        )
        calls = []
        monkeypatch.setattr(
            identifiability, "fit_recurrence", lambda *args: calls.append(args)
        )
        monkeypatch.setattr(
            np.linalg, "svd", lambda *args, **kw: calls.append(args)
        )
        report = diagnose(curve_design(gen_covariate(spec), 0.5))
        rep = report.covariate_reports[0][0]
        assert rep.estimated_order is None and rep.singular_values is None
        assert rep.residual is None and rep.residual_curve is None
        assert not rep.finite_dimensional
        assert report.finite_dimensional == (False,)
        assert rep.recurrence_coeffs is None and rep.modes is None
        assert calls == []

    def test_uncertified_singular_values_are_svdvals_of_the_embedding(self, deficient_design):
        design, _ = deficient_design
        report = diagnose(design)
        for obs, row in zip(design.observations, report.covariate_reports):
            expected = scipy.linalg.svdvals(delay_embed(obs.x[0], design.lags[0]))
            assert row[0].singular_values.tobytes() == expected.tobytes()

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
        certified = 0
        for design in (noisy_design[0], curve_design(x, 1.0)):
            for row in diagnose(design).covariate_reports:
                for rep in row:
                    if rep.estimated_order is None:
                        certified += 1
                        assert rep.residual is None and rep.residual_curve is None
                    else:
                        assert rep.residual == rep.residual_curve[rep.estimated_order]
        assert certified == noisy_design[0].n

    def test_certified_curve_forms_no_embedding(self):
        # One observation of 8193 samples and a 257-sample window: the
        # embedding has 7937 rows, 16 MB, against 1 MB for an assembly
        # block and 0.5 MB for the embedding's Gram.
        step = 1.0 / 128.0
        spec = GeneratorSpec(
            "filtered_noise", 64.0, step, seed=6,
            params={"n_modes": 256, "max_frequency": 0.4 / step, "bandwidth": step},
        )
        design = curve_design(gen_covariate(spec), 2.0)
        report, peak = traced_peak(diagnose, design)
        assert report.covariate_reports[0][0].singular_values is None
        R, n = delay_embed(design.observations[0].x[0], 2.0).shape
        assert peak < 0.5 * R * n * 8

    def test_spectrum_decomposes_values_only(self, monkeypatch, deficient_design):
        # The null basis is built on first access, from a decomposition
        # with vectors that spans the subspace the eager one spanned.
        design, _ = deficient_design

        def no_vectors(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        monkeypatch.setattr(np.linalg, "eigh", no_vectors)
        report = diagnose(design, tol=1e-10)
        monkeypatch.undo()
        spectrum = report.spectrum
        assert not spectrum.full_rank
        system = assemble(design)
        blk = system.index_map.covariate_block
        _, vecs, S = system.weighted_eigh(blk)
        eager = vecs[:, : spectrum.block_size - spectrum.numerical_rank]
        lazy = np.column_stack([system.index_map.pack(v)[blk] * S for v in spectrum.null_basis])
        assert lazy.shape == eager.shape
        assert np.max(scipy.linalg.subspace_angles(lazy, eager)) <= 1e-8
        assert spectrum.null_basis is spectrum.null_basis

    def test_residual_curve_is_computed_once_per_report(self, monkeypatch):
        calls = []
        tail_energy = identifiability._tail_energy
        monkeypatch.setattr(
            identifiability, "_tail_energy", lambda s: calls.append(s) or tail_energy(s)
        )
        rep = identifiability.SelfSimilarityReport(np.array([3.0, 1.0, 1e-9]), 2, None, None)
        first = rep.residual_curve
        assert rep.residual == first[2] and rep.residual_curve is first
        assert len(calls) == 1
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_null_directions_have_zero_quadratic_form(self, deficient_design):
        design, _ = deficient_design
        system = assemble(design)
        report = gram_spectrum(system, tol=1e-10)
        lam_max = float(report.eigenvalues[0])
        for v in report.null_basis:
            assert quadratic_form(design, v) <= 1e-10 * lam_max

    def test_stacked_pass_gives_every_curve_its_own_report(self, monkeypatch):
        # Observations of 129 and 97 samples and windows of 9 and 17
        # columns make four stacks. A chunk holds four curves of 9
        # columns and one of 17, so every stack is cut, and the
        # filtered-noise chunks mix curves the certificate settles with
        # curves that take the SVD.
        step = 1.0 / 32.0
        lags = (8 * step, 16 * step)
        observations = []
        for i in range(12):
            T = 4.0 if i % 2 == 0 else 3.0
            noise = gen_covariate(GeneratorSpec(
                "filtered_noise", T, step, seed=i,
                params={"n_modes": 16, "max_frequency": 6.0, "bandwidth": 0.5},
            ))
            member = _family_curve(-0.5, 4.0 + i, i % 2, T, step)
            y = GridFunction(0.0, step, np.zeros(len(member)))
            observations.append(Observation(y, (noise, member), ()))
        design = Design(tuple(observations), lags, step)
        monkeypatch.setattr(identifiability, "_CURVE_STACK_CELLS", 4 * 9**2)
        chunks, svds = [], []
        analyze_chunk, svd = identifiability._analyze_chunk, np.linalg.svd
        monkeypatch.setattr(
            identifiability, "_analyze_chunk",
            lambda xs, L, tol: chunks.append(analyze_chunk(xs, L, tol)) or chunks[-1],
        )
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a) or svd(*a, **kw))
        report = diagnose(design)
        assert sorted(len(chunk) for chunk in chunks) == [1] * 12 + [2, 2, 4, 4]
        exits = [{rep.singular_values is None for rep in chunk} for chunk in chunks]
        assert {True, False} in exits
        assert len(svds) == sum(False in e for e in exits)
        for obs, row in zip(design.observations, report.covariate_reports):
            for x, alpha, rep in zip(obs.x, lags, row):
                assert_same_report(rep, certificate_first_report(x, alpha, 1e-8))

    def test_curve_pass_holds_one_chunk_at_a_time(self):
        # 1000 curves of 65 columns, half noise that the certificate
        # settles and half a family member that takes the SVD. Beyond the
        # reports it returns, the pass holds a few stacks of one chunk;
        # the Grams of all 1000 curves would take 34 MB.
        step = 1.0 / 64.0
        member = _family_curve(-0.5, 4.0, 1, 6.0, step)
        rng = np.random.default_rng(9)
        curves = [
            (member if k % 2 else GridFunction(0.0, step, rng.standard_normal(len(member))), 1.0)
            for k in range(1000)
        ]
        tracemalloc.start()
        try:
            reports = identifiability._analyze_curves(curves, 1e-8)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [rep.singular_values is None for rep in reports] == [k % 2 == 0 for k in range(1000)]
        assert all(rep.modes is not None for rep in reports[1::2])
        assert peak - retained < 8 * 8 * identifiability._CURVE_STACK_CELLS
