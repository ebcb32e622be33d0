from dataclasses import replace

import numpy as np
import pytest

from fcmlab import designs
from fcmlab.designs import (
    _SINE_BLOCK,
    GeneratorSpec,
    NoiseSpec,
    filtered_noise_modes,
    gen_covariate,
    gen_design,
    mode_family_values,
)
from fcmlab.errors import ValidationError
from fcmlab.grids import GridFunction, inner_product
from fcmlab.identifiability import self_similarity_residual
from fcmlab.model import CoefficientSet, Design, Observation, predict, sse


def sine_kernel(step, alpha):
    u = step * np.arange(round(alpha / step) + 1)
    return GridFunction(0.0, step, np.sin(2.0 * np.pi * u))


class TestGenCovariate:
    def test_rich_sinusoid_partial_sum(self):
        x = gen_covariate(
            GeneratorSpec("sinusoid_rich", 1.0, 0.25, params={"K": 4})
        )
        # at t = 1/4 only the k=1 and k=3 terms survive: 1/2 - 1/8
        assert x.values[1] == pytest.approx(0.375, abs=1e-12)

    def test_orthogonal_counterexample_kills_odd_sines(self):
        step = 1.0 / 256.0
        x = gen_covariate(
            GeneratorSpec("orthogonal_counterexample", 3.0, step, params={"K": 4})
        )
        t = x.times()
        for j in (1, 2, 3):
            probe = x.with_values(np.sin(2.0 * np.pi * (2 * j - 1) * t))
            assert abs(inner_product(x, probe)) < 1e-10

    def test_orthogonal_counterexample_needs_integer_domain(self):
        with pytest.raises(ValidationError):
            gen_covariate(
                GeneratorSpec("orthogonal_counterexample", 2.5, 1.0 / 8.0, params={"K": 3})
            )

    def test_self_similar_reduces_to_cosine(self):
        spec = GeneratorSpec(
            "self_similar", 1.0, 0.125,
            params={"terms": [{"c": 1.0, "m": 0, "a": 0.0, "b": 2.0 * np.pi, "d": np.pi / 2.0}]},
        )
        x = gen_covariate(spec)
        assert x.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(x.values, np.cos(2.0 * np.pi * x.times()), atol=1e-12)

    def test_filtered_noise_is_seed_deterministic(self):
        spec = GeneratorSpec(
            "filtered_noise", 1.0, 0.125, seed=9,
            params={"n_modes": 16, "max_frequency": 3.0, "bandwidth": 0.05},
        )
        assert np.array_equal(gen_covariate(spec).values, gen_covariate(spec).values)

    @pytest.mark.parametrize(
        "n, step, params",
        [
            (_SINE_BLOCK // 2, 1.0 / 64.0, {"n_modes": 16, "max_frequency": 20.0}),
            (_SINE_BLOCK, 1.0 / 64.0, {"n_modes": 16, "max_frequency": 20.0}),
            (_SINE_BLOCK + 1, 1.0 / 64.0, {"n_modes": 16, "max_frequency": 20.0}),
            # The broadband-large benchmark grid: T = 8, step 1/512, 256 modes.
            (4097, 1.0 / 512.0, {"n_modes": 256, "max_frequency": 0.4 * 512.0}),
        ],
    )
    def test_filtered_noise_matches_the_direct_sine_sum(self, n, step, params):
        # The block angle-addition route against one sin of every w t + phi.
        spec = GeneratorSpec("filtered_noise", (n - 1) * step, step, seed=301, params=params)
        x = gen_covariate(spec)
        amps, omegas, phases = filtered_noise_modes(spec)
        direct = np.sin(x.times()[:, None] * omegas + phases) @ amps
        assert x.values.shape == direct.shape == (n,)
        assert np.max(np.abs(x.values - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            gen_covariate(GeneratorSpec("brownian", 1.0, 0.125))

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("filtered_noise", {"n_modes": 2.7}, "params.n_modes"),
            ("filtered_noise", {"n_modes": None}, "params.n_modes"),
            ("filtered_noise", {"bandwidth": True}, "params.bandwidth"),
            ("sinusoid_rich", {"K": 2, "amplitudes": (1.0, 0.5)}, "params.amplitudes"),
            ("orthogonal_counterexample", {"K": "3"}, "params.K"),
            ("self_similar", {"terms": [{"c": 1.0}, {"b": None}]}, "params.terms[1].b"),
        ],
    )
    def test_parameter_that_is_not_a_json_number_rejected(self, kind, params, field):
        # Parameters are JSON values: a real number is never truncated to
        # an integer, and null never stands for a default.
        with pytest.raises(ValidationError) as info:
            gen_covariate(GeneratorSpec(kind, 2.0, 0.125, params=params))
        assert info.value.field == field


class TestModeFamilyValues:
    def test_single_term_closed_form(self):
        t = np.linspace(0.0, 2.0, 33)
        got = mode_family_values(
            [{"c": 2.0, "m": 1, "a": -0.5, "b": 3.0, "d": 0.25}], t
        )
        want = 2.0 * t * np.exp(-0.5 * t) * np.sin(3.0 * t + 0.25)
        assert np.allclose(got, want, atol=1e-14)

    def test_terms_superpose(self):
        t = np.linspace(0.0, 1.0, 17)
        t1 = [{"c": 1.0, "m": 0, "a": 0.3, "b": 0.0, "d": np.pi / 2.0}]
        t2 = [{"c": -0.5, "m": 2, "a": 0.0, "b": 2.0, "d": 0.0}]
        assert np.allclose(
            mode_family_values(t1 + t2, t),
            mode_family_values(t1, t) + mode_family_values(t2, t),
            atol=1e-14,
        )


class TestGenDesign:
    def test_noiseless_truth_has_zero_sse(self, noiseless_design):
        design, truth = noiseless_design
        assert sse(design, truth) <= 1e-18

    def test_same_seed_is_bit_identical(self):
        step = 1.0 / 16.0
        spec = GeneratorSpec(
            "filtered_noise", 1.5, step, seed=11,
            params={"n_modes": 32, "max_frequency": 5.0, "bandwidth": 0.02},
        )
        beta = CoefficientSet((0.7, -0.3), (sine_kernel(step, 0.5),))
        noise = NoiseSpec("ar1", sd=0.2, ar_coefficient=0.5)
        d1, t1 = gen_design([spec], beta, noise, n=3, seed=42)
        d2, t2 = gen_design([spec], beta, noise, n=3, seed=42)
        for o1, o2 in zip(d1.observations, d2.observations):
            assert np.array_equal(o1.y.values, o2.y.values)
            assert np.array_equal(o1.x[0].values, o2.x[0].values)
            assert o1.z == o2.z

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("sinusoid_rich", {"K": 3}),
            ("orthogonal_counterexample", {"K": 2}),
            ("self_similar", {"terms": [{"a": -0.5, "b": 3.0}, {"m": 1, "d": 0.0}]}),
            ("filtered_noise", {"n_modes": 16}),
        ],
    )
    def test_covariates_are_gen_covariate_at_the_derived_seeds(self, monkeypatch, kind, params):
        step = 1.0 / 16.0
        spec = GeneratorSpec(kind, 2.0, step, seed=5, params=params)
        beta = CoefficientSet((0.1,), (sine_kernel(step, 0.5),))
        checked = []
        check = designs.generator_params
        monkeypatch.setattr(designs, "generator_params", lambda *a: checked.append(a) or check(*a))
        design, _ = gen_design([spec], beta, NoiseSpec(), n=3, seed=1)
        assert len(checked) == 1  # once per spec, not once per observation
        for i, obs in enumerate(design.observations):
            x = gen_covariate(replace(spec, seed=spec.seed + 1009 * i))
            assert obs.x[0].values.tobytes() == x.values.tobytes()

    def test_observations_differ_across_seeds(self):
        step = 1.0 / 16.0
        spec = GeneratorSpec(
            "filtered_noise", 1.5, step, seed=11,
            params={"n_modes": 32, "max_frequency": 5.0, "bandwidth": 0.02},
        )
        beta = CoefficientSet((0.7,), (sine_kernel(step, 0.5),))
        d1, _ = gen_design([spec], beta, NoiseSpec("white", sd=0.1), n=1, seed=1)
        d2, _ = gen_design([spec], beta, NoiseSpec("white", sd=0.1), n=1, seed=2)
        assert not np.array_equal(d1.observations[0].y.values, d2.observations[0].y.values)

    def test_ar1_noise_is_mean_zero(self):
        # 200 seeded replicates at one grid point; the replicate mean
        # stays within three standard errors of zero.
        step = 1.0 / 32.0
        spec = GeneratorSpec(
            "filtered_noise", 1.0, step, seed=41,
            params={"n_modes": 32, "max_frequency": 6.0, "bandwidth": 0.05},
        )
        beta = CoefficientSet((0.0,), (GridFunction(0.0, step, np.zeros(9)),))
        sd = 0.3
        samples = []
        for rep in range(200):
            d, _ = gen_design(
                [spec], beta, NoiseSpec("ar1", sd=sd, ar_coefficient=0.6),
                n=1, seed=1000 + rep,
            )
            samples.append(d.observations[0].y.values[16])
        assert abs(np.mean(samples)) <= 3.0 * sd / np.sqrt(200.0)

    def test_ar_coefficient_must_be_stationary(self):
        with pytest.raises(ValidationError):
            NoiseSpec("ar1", sd=0.1, ar_coefficient=1.0)


class TestCounterexampleMechanism:
    def test_odd_sine_convolutions_vanish(self):
        step = 1.0 / 128.0
        x = gen_covariate(
            GeneratorSpec("orthogonal_counterexample", 3.0, step, params={"K": 3})
        )
        design = Design((Observation(x.with_values(np.zeros(len(x))), (x,), ()),), (1.0,), step)
        u = step * np.arange(129)
        for j in (1, 2, 3):
            beta = GridFunction(0.0, step, np.sin(2.0 * np.pi * (2 * j - 1) * u))
            out = predict(design, CoefficientSet((0.0,), (beta,)), 0)
            assert np.max(np.abs(out.values)) < 1e-8


class TestSelfSimilarOrders:
    @pytest.mark.parametrize(
        "a,b,m,order",
        [(-0.5, 2.0, 1, 4), (0.3, 0.0, 2, 3), (0.0, 5.0, 0, 2)],
    )
    def test_family_members_hit_analytic_order(self, a, b, m, order):
        step = 1.0 / 256.0
        spec = GeneratorSpec(
            "self_similar", 2.0, step,
            params={"terms": [{"c": 1.0, "m": m, "a": a, "b": b, "d": 0.7}]},
        )
        x = gen_covariate(spec)
        assert self_similarity_residual(x, order, alpha=1.0) < 1e-8


class TestFilteredNoiseFloor:
    def test_no_parsimonious_order_explains_noise(self):
        # Spectrum out to the grid Nyquist frequency, so no order up to
        # half the window comes close to explaining the curve.
        spec = GeneratorSpec(
            "filtered_noise", 2.0, 1.0 / 64.0, seed=7,
            params={"n_modes": 128, "max_frequency": 32.0, "bandwidth": 1.0 / 64.0},
        )
        x = gen_covariate(spec)
        for K in range(1, 17):
            assert self_similarity_residual(x, K, alpha=0.5) > 0.05

