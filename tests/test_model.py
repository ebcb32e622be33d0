import numpy as np
import pytest

from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_design
from fcmlab.downsample import flm_row_residuals, to_flm
from fcmlab.errors import ConformalityError, GridError
from fcmlab.grids import GridFunction, quadrature_weights
from fcmlab.identifiability import quadratic_form
from fcmlab.model import (
    CoefficientSet,
    Design,
    Observation,
    predict,
    sse,
)


def curve_design(fn, T=2.0, step=0.25, alpha=1.0, z=()):
    """Single observation with covariate ``fn(t)`` and zero response."""
    t = step * np.arange(round(T / step) + 1)
    y = GridFunction(0.0, step, np.zeros(t.size))
    x = GridFunction(0.0, step, fn(t))
    return Design((Observation(y, (x,), tuple(z)),), (alpha,), step)


def const_design(x_value, T=2.0, step=0.25, alpha=1.0, z=()):
    """Single observation with constant covariate and zero response."""
    return curve_design(lambda t: np.full(t.size, float(x_value)), T, step, alpha, z)


def kernel(step, alpha, fn):
    u = step * np.arange(round(alpha / step) + 1)
    return GridFunction(0.0, step, fn(u))


class TestPredict:
    def test_zero_kernel_gives_zero(self):
        design = curve_design(np.sin, step=0.125, alpha=0.5)
        coef = CoefficientSet((0.0,), (kernel(design.step, 0.5, np.zeros_like),))
        assert np.all(predict(design, coef, 0).values == 0.0)

    def test_unit_kernel_on_unit_covariate(self):
        design = const_design(1.0, step=0.125)
        coef = CoefficientSet((0.0,), (kernel(design.step, 1.0, np.ones_like),))
        out = predict(design, coef, 0)
        assert out.start == 1.0
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_linear_covariate_closed_form(self):
        # integral of (t - u) over u in [0, 1] is t - 1/2, and the
        # trapezoid rule is exact for linear integrands.
        design = curve_design(lambda t: t, step=0.125)
        coef = CoefficientSet((0.0,), (kernel(design.step, 1.0, np.ones_like),))
        out = predict(design, coef, 0)
        assert np.allclose(out.values, out.times() - 0.5, atol=1e-14)

    def test_all_zero_coefficients_give_intercept(self):
        design = const_design(3.0)
        coef = CoefficientSet((2.5,), (kernel(design.step, 1.0, np.zeros_like),))
        out = predict(design, coef, 0)
        assert np.allclose(out.values, 2.5, atol=1e-15)

    def test_constant_pieces_add(self):
        design = const_design(1.0)
        beta = kernel(design.step, 1.0, np.ones_like)
        coef = CoefficientSet((2.0,), (beta,))
        out = predict(design, coef, 0)
        assert np.allclose(out.values, 3.0, atol=1e-14)

    def test_scalar_covariates_enter_linearly(self):
        design = const_design(0.0, z=(2.0, -1.0))
        beta = kernel(design.step, 1.0, np.zeros_like)
        coef = CoefficientSet((1.0, 0.5, 0.25), (beta,))
        out = predict(design, coef, 0)
        assert np.allclose(out.values, 1.0 + 0.5 * 2.0 + 0.25 * (-1.0), atol=1e-15)

    def test_matches_generator_response(self, noiseless_design):
        design, truth = noiseless_design
        for i, obs in enumerate(design.observations):
            pred = predict(design, truth, i)
            stored = obs.y.restrict(design.alpha_star, obs.y.end)
            assert np.max(np.abs(pred.values - stored.values)) < 1e-12

    def test_linearity_in_coefficients(self, noisy_design):
        design, truth = noisy_design
        rng = np.random.default_rng(3)
        step = design.step
        for _ in range(5):
            b1 = CoefficientSet(
                tuple(rng.standard_normal(2)),
                (kernel(step, 0.5, lambda u: rng.standard_normal(u.size)),),
            )
            b2 = CoefficientSet(
                tuple(rng.standard_normal(2)),
                (kernel(step, 0.5, lambda u: rng.standard_normal(u.size)),),
            )
            both = CoefficientSet(
                tuple(np.add(b1.beta0, b2.beta0)),
                (b1.betas[0].with_values(b1.betas[0].values + b2.betas[0].values),),
            )
            lhs = predict(design, both, 0).values
            rhs = predict(design, b1, 0).values + predict(design, b2, 0).values
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_index_out_of_range(self, noisy_design):
        design, truth = noisy_design
        with pytest.raises(IndexError):
            predict(design, truth, design.n)


class TestSse:
    def test_noiseless_data_has_zero_sse(self, noiseless_design):
        design, truth = noiseless_design
        assert sse(design, truth) <= 1e-18

    def test_zero_coefficients_reduce_to_response_energy(self, noisy_design):
        design, truth = noisy_design
        coef = CoefficientSet(
            (0.0,) * len(truth.beta0),
            tuple(b.with_values(np.zeros(len(b))) for b in truth.betas),
        )
        windows = [obs.y.restrict(design.alpha_star, obs.y.end) for obs in design.observations]
        energy = sum(quadrature_weights(len(f), f.step) @ f.values**2 for f in windows)
        assert sse(design, coef) == pytest.approx(energy, rel=1e-12)

    def test_nonnegative(self, noisy_design):
        design, truth = noisy_design
        rng = np.random.default_rng(11)
        for _ in range(10):
            coef = CoefficientSet(
                tuple(rng.standard_normal(2)),
                (kernel(design.step, 0.5, lambda u: rng.standard_normal(u.size)),),
            )
            assert sse(design, coef) >= 0.0

    def test_perturbation_matches_quadratic_form(self, noiseless_design):
        # With noiseless data the criterion is exactly quadratic around
        # the generating coefficients: sse(b*+g) - sse(b*) = <g, G g>.
        design, truth = noiseless_design
        rng = np.random.default_rng(7)
        for _ in range(5):
            gamma = CoefficientSet(
                (0.0,),
                (kernel(design.step, 0.5, lambda u: rng.standard_normal(u.size)),),
            )
            perturbed = CoefficientSet(
                truth.beta0,
                (truth.betas[0].with_values(truth.betas[0].values + gamma.betas[0].values),),
            )
            delta = sse(design, perturbed) - sse(design, truth)
            assert delta == pytest.approx(quadratic_form(design, gamma), rel=1e-8)

    def test_truth_is_global_minimum(self, noiseless_design):
        design, truth = noiseless_design
        base = sse(design, truth)
        rng = np.random.default_rng(19)
        for _ in range(100):
            coef = CoefficientSet(
                tuple(truth.beta0 + 0.1 * rng.standard_normal(1)),
                (
                    truth.betas[0].with_values(
                        truth.betas[0].values + 0.1 * rng.standard_normal(9)
                    ),
                ),
            )
            assert sse(design, coef) >= base


# Every consumer of a row set checks coefficients through the same
# CoefficientIndexMap.pack, so each refuses the same sets.
CONSUMERS = {
    "predict": lambda design, coef: predict(design, coef, 0),
    "sse": sse,
    "quadratic_form": quadratic_form,
    "flm_row_residuals": lambda design, coef: flm_row_residuals(to_flm(design, 2 * design.step), coef),
}


def misfit(truth, kind):
    """``truth`` with one part that does not fit its design, and the error it should raise."""
    kernel = truth.betas[0]
    if kind == "kernel step":
        return CoefficientSet(truth.beta0, (GridFunction(0.0, 2 * kernel.step, kernel.values),)), "uses step"
    if kind == "kernel length":
        return CoefficientSet(truth.beta0, (GridFunction(0.0, kernel.step, kernel.values[:-1]),)), "has 8 samples"
    if kind == "kernel count":
        return CoefficientSet(truth.beta0, (kernel, kernel)), "2 lag kernels for 1"
    return CoefficientSet(truth.beta0[:1], truth.betas), "beta0 has 1 entries"


class TestConformality:
    @pytest.mark.parametrize("kind", ["kernel step", "kernel length", "kernel count", "scalar count"])
    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_every_consumer_refuses_the_same_coefficients(self, noisy_design, consumer, kind):
        design, truth = noisy_design
        bad, message = misfit(truth, kind)
        with pytest.raises(ConformalityError, match=message):
            CONSUMERS[consumer](design, bad)

    def test_wrong_kernel_length(self, noisy_design):
        design, truth = noisy_design
        bad = CoefficientSet(truth.beta0, (GridFunction(0.0, design.step, np.zeros(5)),))
        with pytest.raises(ConformalityError):
            sse(design, bad)

    def test_wrong_scalar_count(self, noisy_design):
        design, truth = noisy_design
        bad = CoefficientSet((1.0,), truth.betas)
        with pytest.raises(ConformalityError):
            sse(design, bad)

    def test_observation_grids_must_match(self):
        step = 0.25
        y = GridFunction(0.0, step, np.zeros(9))
        x = GridFunction(0.0, step, np.zeros(8))
        with pytest.raises(ConformalityError):
            Observation(y, (x,), ())

    def test_lag_must_sit_on_grid(self):
        step = 0.125
        x = GridFunction(0.0, step, np.zeros(17))
        with pytest.raises(GridError):
            Design((Observation(x, (x,), ()),), (0.3,), step)

    def test_lag_beyond_shortest_observation(self):
        step = 0.25
        y = GridFunction(0.0, step, np.zeros(5))
        x = GridFunction(0.0, step, np.zeros(5))
        with pytest.raises(ConformalityError):
            Design((Observation(y, (x,), ()),), (2.0,), step)
