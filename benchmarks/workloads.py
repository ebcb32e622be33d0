"""Workload definitions: inputs made from a seed, and the thread policy.

Each workload is one simulation spec (generated here from ``--seed``)
plus the command flags and the environment every fcmlab child process
runs with. The spec is the only input the program receives; the
expectations the checker needs (noise level, analytic orders of
self-similar covariates) are read back from the same spec.

This module imports nothing but the standard library, so the parent
process of the benchmark loads no BLAS before its children run.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

# Thread variables of the BLAS builds numpy and scipy may load, and
# fcmlab's own cap on its per-curve worker pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FCMLAB_THREAD_VAR = "FCMLAB_THREADS"

NOISE_SD = 0.1
# Second-difference penalty for `fit --solver ridge`: small enough that
# the fit stays close to least squares, large enough to make the
# rank-deficient broadband and self-similar systems well posed.
RIDGE_LAMBDA = 1e-4
# Default down-sampling interval, in grid steps.
U_STEPS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    covariate_kind: str  # "filtered_noise" or "self_similar"
    step: float
    T: float
    lag: float
    n: int
    why: str
    # Down-sampling interval of `downsample`, in grid steps.
    u_steps: int = U_STEPS

    @property
    def U(self) -> float:
        return self.u_steps * self.step

    def child_env(self, src_dir: str) -> dict[str, str]:
        """Environment of every fcmlab child process of this workload.

        BLAS runs single-threaded; fcmlab's own curve pool is left at its
        default of one worker per core. Under default BLAS threading the
        timings of ``diagnose`` do not repeat (see README.md).
        """
        env = dict(os.environ)
        env.pop(FCMLAB_THREAD_VAR, None)
        for var in BLAS_THREAD_VARS:
            env[var] = "1"
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
        return env

    def spec(self, seed: int) -> dict:
        """The simulation spec of this workload for ``seed``.

        The same seed gives the same spec, on any machine: the draws come
        from :class:`random.Random` seeded with the workload name and seed.
        """
        rng = random.Random(f"{self.name}:{seed}")
        if self.covariate_kind == "filtered_noise":
            params = {
                "n_modes": 256,
                "max_frequency": 0.4 / self.step,
                "bandwidth": self.step,
            }
            covariates = [{"kind": "filtered_noise", "params": dict(params)} for _ in range(2)]
        else:
            covariates = [
                {"kind": "self_similar", "params": {"terms": _damped_sinusoids(rng)}}
                for _ in range(2)
            ]
        betas = [
            {"terms": [{"c": rng.uniform(0.5, 1.5), "a": rng.uniform(-3.0, -1.0)}]},
            {
                "terms": [
                    {
                        "c": rng.uniform(0.5, 1.5),
                        "b": 2.0 * math.pi * rng.uniform(0.5, 2.0) / self.lag,
                        "d": 0.0,
                    }
                ]
            },
        ]
        return {
            "format_version": 1,
            "step": self.step,
            "T": self.T,
            "n": self.n,
            "seed": rng.randrange(1, 2**31),
            "lags": [self.lag, self.lag],
            "covariates": covariates,
            "beta0": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "betas": betas,
            "noise": {"kind": "white", "sd": NOISE_SD},
        }


def thread_env(env: dict[str, str]) -> dict[str, str | None]:
    """The thread settings recorded with every run."""
    return {var: env.get(var) for var in BLAS_THREAD_VARS + (FCMLAB_THREAD_VAR,)}


def _damped_sinusoids(rng: random.Random) -> list[dict]:
    """Three damped sinusoids with well-separated frequencies (order 6).

    The angular frequencies fall in [4, 10], [14, 20] and [24, 30] rad per
    unit time, far below the Nyquist limit of every grid used here, so the
    six recurrence roots stay well separated.
    """
    return [
        {
            "c": rng.uniform(0.5, 1.5),
            "a": rng.uniform(-0.4, 0.2),
            "b": 4.0 + 10.0 * k + rng.uniform(0.0, 6.0),
            "d": rng.uniform(0.0, 2.0 * math.pi),
        }
        for k in range(3)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="broadband-large",
            covariate_kind="filtered_noise",
            step=1.0 / 512.0,
            T=8.0,
            lag=1.0,
            n=16,
            why="m = 1027: normal-equation assembly and the m x m eigendecompositions "
            "dominate; a 76 MB row CSV peaks memory",
            # 16 steps rather than 4 keeps a round near 10 s, so one run
            # holds five rounds; 4 steps wrote 302 MB and took 7 s alone.
            u_steps=16,
        ),
        Workload(
            name="selfsimilar-many",
            covariate_kind="self_similar",
            step=1.0 / 64.0,
            T=6.0,
            lag=1.0,
            n=500,
            why="m = 131 over 1500 small CSVs: parsing, formatting and per-curve "
            "Python overhead dominate; every recurrence is kept",
        ),
    )
}
