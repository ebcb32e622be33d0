import numpy as np
import pytest

from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_design
from fcmlab.downsample import flm_row_residuals, to_flm
from fcmlab.errors import GridError, NearSingularError
from fcmlab.estimator import assemble, fit_flm, flm_normal_equations, solve_direct
from fcmlab.grids import GridFunction, quadrature_weights
from fcmlab.identifiability import delay_embed
from fcmlab.model import CoefficientSet, Design, Observation

from conftest import flm_windows


@pytest.fixture
def flm_design():
    """Noiseless full-rank design with a scalar covariate."""
    step = 1.0 / 32.0
    spec = GeneratorSpec(
        "filtered_noise", 2.0, step, seed=31,
        params={"n_modes": 128, "max_frequency": 12.0, "bandwidth": 0.01},
    )
    u = step * np.arange(9)
    beta = CoefficientSet(
        (0.3, 0.8),
        (GridFunction(0.0, step, np.sin(2.0 * np.pi * u) + 0.4),),
    )
    return gen_design([spec], beta, NoiseSpec("white", sd=0.0), n=4, seed=8)


def weighted_rel_err(step, got, want):
    w = quadrature_weights(len(want), step)
    num = np.sqrt(np.sum(w * (got.values - want.values) ** 2))
    den = np.sqrt(np.sum(w * want.values**2))
    return num / den


class TestToFlm:
    def test_unit_stride_keeps_every_grid_point(self, flm_design):
        design, _ = flm_design
        data = to_flm(design, design.step)
        k0 = design.alpha_star_index()
        for obs, (_, y, _) in zip(design.observations, data.observations):
            assert np.array_equal(y, obs.y.values[k0:])

    def test_widest_stride_keeps_both_ends(self, flm_design):
        design, _ = flm_design
        T = design.observations[0].y.end
        data = to_flm(design, T - design.alpha_star)
        k0 = design.alpha_star_index()
        for obs, (_, y, _) in zip(design.observations, data.observations):
            assert y.tolist() == [obs.y.values[k0], obs.y.values[-1]]

    def test_windows_are_reversed_covariate_segments(self, flm_design):
        design, _ = flm_design
        data = to_flm(design, 4 * design.step)
        k0 = design.alpha_star_index()
        x = design.observations[0].x[0].values
        row = 1
        t_idx = k0 + 4 * row
        windows = flm_windows(data)[0]
        L = windows.shape[1]
        assert np.array_equal(windows[row], x[t_idx - np.arange(L)])

    def test_unit_stride_windows_are_delay_embedding_rows(self, unequal_design):
        design = unequal_design
        data = to_flm(design, design.step)
        k0 = design.alpha_star_index()
        windows = flm_windows(data)
        starts = np.cumsum([0] + [y.size for _, y, _ in data.observations])
        for i, obs in enumerate(design.observations):
            rows = slice(starts[i], starts[i + 1])
            for j, (L, alpha) in enumerate(zip(design.lag_lengths(), design.lags)):
                H = delay_embed(obs.x[j], alpha)
                assert np.array_equal(windows[j][rows], H[k0 - L :])

    @pytest.mark.parametrize("stride", [1, 3, 16])
    def test_rows_hold_no_copy_of_a_covariate_sample(self, unequal_design, stride):
        # The row set owns no array: every response and every segment is
        # a read-only view into its design curve, and each segment is no
        # longer than its curve.
        design = unequal_design
        data = to_flm(design, stride * design.step)
        assert all(not isinstance(v, np.ndarray) for v in vars(data).values())
        for obs, (z, y, segments) in zip(design.observations, data.observations):
            assert z == obs.z
            views = [(y, obs.y.values)] + list(zip(segments, (x.values for x in obs.x)))
            for view, curve in views:
                assert not view.flags.owndata and view.base is curve
                assert np.shares_memory(view, curve) and view.size <= curve.size
                assert not view.flags.writeable

    def test_row_counts_per_observation(self, unequal_design):
        data = to_flm(unequal_design, 2 * unequal_design.step)
        assert [y.size for _, y, _ in data.observations] == [13, 17, 9]
        assert data.row_count == 39

    def test_off_grid_interval_rejected(self, flm_design):
        design, _ = flm_design
        with pytest.raises(GridError):
            to_flm(design, 1.5 * design.step)
        with pytest.raises(GridError):
            to_flm(design, 0.0)

    def test_scalar_covariates_are_the_observations(self, flm_design):
        design, _ = flm_design
        data = to_flm(design, 8 * design.step)
        assert data.index_map.d == 1
        assert [z for z, _, _ in data.observations] == [obs.z for obs in design.observations]


class TestRowConsistency:
    def test_noiseless_rows_vanish_at_truth(self, flm_design):
        design, truth = flm_design
        data = to_flm(design, 4 * design.step)
        assert np.max(np.abs(flm_row_residuals(data, truth))) < 1e-12


class TestFitFlm:
    def test_unit_stride_matches_full_estimator(self, flm_design):
        # Same normal equations up to the endpoint weights of the
        # t-quadrature, so coefficients agree to 1e-6.
        design, _ = flm_design
        system = assemble(design)
        full = system.index_map.pack(solve_direct(system))
        flm = system.index_map.pack(fit_flm(to_flm(design, design.step), 0.0))
        w = system.weights
        rel = np.sqrt(np.sum(w * (flm - full) ** 2) / np.sum(w * full**2))
        assert rel < 1e-6

    def test_thinned_noiseless_recovery(self, flm_design):
        design, truth = flm_design
        coef = fit_flm(to_flm(design, 4 * design.step), 0.0)
        assert weighted_rel_err(design.step, coef.betas[0], truth.betas[0]) < 1e-3
        assert coef.beta0[0] == pytest.approx(truth.beta0[0], abs=1e-3)

    def test_single_row_is_underdetermined(self):
        # A sampling interval wider than the free range leaves one row.
        step = 0.25
        y = GridFunction(0.0, step, np.arange(6.0))
        x = GridFunction(0.0, step, np.ones(6))
        design = Design((Observation(y, (x,), ()),), (1.0,), step)
        data = to_flm(design, 2 * step)
        assert data.row_count == 1
        with pytest.raises(NearSingularError):
            fit_flm(data, 0.0)

    def test_penalty_restores_rank_deficient_fit(self, deficient_design):
        # The unpenalized row regression inherits the kernel-block rank
        # deficiency; a small curvature penalty restores uniqueness
        # without changing the attainable criterion value.
        design, _ = deficient_design
        data = to_flm(design, design.step)
        with pytest.raises(NearSingularError):
            fit_flm(data, 0.0)
        coef = fit_flm(data, 1e-8)
        ridge_sse = float(np.sum(flm_row_residuals(data, coef) ** 2))
        system = flm_normal_equations(data)
        c_min, *_ = np.linalg.lstsq(system.G, system.F, rcond=None)
        imap = data.index_map
        best_sse = float(np.sum(flm_row_residuals(data, imap.unpack(c_min)) ** 2))
        assert ridge_sse <= best_sse * (1.0 + 1e-6)

    def test_negative_penalty_rejected(self, flm_design):
        design, _ = flm_design
        with pytest.raises(ValueError):
            fit_flm(to_flm(design, design.step), -0.5)


class TestThinningMonotonicity:
    def test_information_shrinks_with_stride(self, flm_design):
        # Rows at 2U are a subset of rows at U, so the smallest
        # eigenvalue of the weighted normal matrix cannot grow under
        # thinning.
        design, _ = flm_design
        lam_min = {}
        for mult in (1, 2, 4):
            lam_min[mult] = flm_normal_equations(to_flm(design, mult * design.step)).spectrum()[0][0]
        assert lam_min[1] >= lam_min[2] - 1e-12
        assert lam_min[2] >= lam_min[4] - 1e-12
