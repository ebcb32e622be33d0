import numpy as np
import pytest

from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_design
from fcmlab.grids import GridFunction
from fcmlab.model import CoefficientSet, Design, Observation


@pytest.fixture
def noisy_design():
    """Small full-rank design: one broadband covariate, 9-sample kernel."""
    step = 1.0 / 16.0
    spec = GeneratorSpec(
        "filtered_noise", 1.5, step, seed=11,
        params={"n_modes": 64, "max_frequency": 6.0, "bandwidth": 0.02},
    )
    u = step * np.arange(9)
    beta = CoefficientSet(
        (0.7, -0.3),
        (GridFunction(0.0, step, np.sin(2.0 * np.pi * u) + 0.5),),
    )
    design, truth = gen_design(
        [spec], beta, NoiseSpec("white", sd=0.1), n=2, seed=21
    )
    return design, truth


@pytest.fixture
def noiseless_design():
    """Same layout as noisy_design but sd=0, so y is the exact forward map."""
    step = 1.0 / 16.0
    spec = GeneratorSpec(
        "filtered_noise", 1.5, step, seed=13,
        params={"n_modes": 64, "max_frequency": 6.0, "bandwidth": 0.02},
    )
    u = step * np.arange(9)
    beta = CoefficientSet(
        (0.4,),
        (GridFunction(0.0, step, np.exp(-u) * np.cos(np.pi * u)),),
    )
    design, truth = gen_design(
        [spec], beta, NoiseSpec("white", sd=0.0), n=3, seed=5
    )
    return design, truth


@pytest.fixture
def deficient_design():
    """Three-tone covariate with a 13-sample window: kernel block rank 7."""
    step = 1.0 / 16.0
    u = step * np.arange(13)
    beta = CoefficientSet(
        (0.5,), (GridFunction(0.0, step, np.sin(2.0 * np.pi * u) + 0.3),)
    )
    design, truth = gen_design(
        [GeneratorSpec("sinusoid_rich", 3.0, step, params={"K": 3})],
        beta,
        NoiseSpec("white", sd=0.05),
        n=2,
        seed=7,
    )
    return design, truth


@pytest.fixture
def unequal_design():
    """Two covariates with lags 0.25 and 0.5, one scalar, unequal lengths."""
    step = 1.0 / 16.0
    rng = np.random.default_rng(3)
    observations = []
    for n_pts, z in ((33, 0.5), (41, -1.2), (25, 2.0)):
        y = GridFunction(0.0, step, rng.standard_normal(n_pts))
        xs = tuple(GridFunction(0.0, step, rng.standard_normal(n_pts)) for _ in range(2))
        observations.append(Observation(y, xs, (z,)))
    return Design(tuple(observations), (0.25, 0.5), step)
