"""Covariate generators and simulated designs.

Four covariate families cover the interesting identifiability regimes:

``sinusoid_rich``
    Geometrically damped sines ``sum_k 2^-k sin(2 pi k t)``; every lag
    direction receives energy, so modest grids yield full-rank designs.
``orthogonal_counterexample``
    Even-frequency sine mix ``sum_k 2^-(4k) sin(4 pi k t)``. On an
    integer-length domain its lag convolution annihilates every
    odd-frequency sine kernel exactly, making those directions
    invisible to the design.
``self_similar``
    Finite sums of ``c * t^m * exp(a t) * sin(b t + d)`` terms, the
    curves whose shift families are finite-dimensional.
``filtered_noise``
    Seeded random-phase sinusoid synthesis of spectrally filtered white
    noise. The draw depends only on the seed and parameters, not on the
    grid, so the same spec evaluated at different steps samples one
    underlying function. Broadband by construction, hence not
    self-similar at any parsimonious order. The sum of sines is
    evaluated by angle addition over blocks of grid offsets, which
    agrees with a direct ``sin`` of every ``w t + phi`` to about
    ``1e-13`` of the curve's maximum (the rounding of ``w t`` itself).

Generation is deterministic: the same spec and seed reproduce the same
bytes, and per-observation seeds are derived arithmetically so
observations may be generated in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from fcmlab.errors import GridError, ValidationError
from fcmlab.grids import ALIGN_RTOL, GridFunction, sample_times, snap_to_index
from fcmlab.model import CoefficientSet, Design, Observation, _lag_sum
from fcmlab.util import json_entry, json_value

__all__ = [
    "GeneratorSpec",
    "NoiseSpec",
    "GENERATOR_KINDS",
    "mode_family_values",
    "generator_params",
    "gen_covariate",
    "filtered_noise_modes",
    "gen_design",
]

GENERATOR_KINDS = (
    "sinusoid_rich",
    "orthogonal_counterexample",
    "self_similar",
    "filtered_noise",
)

# Derived seed stride between observations; any fixed odd constant works,
# it only needs to keep per-observation streams distinct and reproducible.
_SEED_STRIDE = 1009

# Grid offsets per block of the angle-addition sine sum; 32 to 128 are
# equally fast, and the result does not depend on it beyond rounding.
_SINE_BLOCK = 64


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one covariate curve on ``[0, T]`` with the given step."""

    kind: str
    T: float
    step: float
    seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(
                f"unknown covariate kind {self.kind!r}, expected one of {GENERATOR_KINDS}",
                field="kind",
            )
        if float(self.step) <= 0.0:
            raise ValidationError("step must be positive", field="step")
        if float(self.T) <= 0.0:
            raise ValidationError("T must be positive", field="T")
        try:
            snap_to_index(float(self.T) / float(self.step), what=f"domain length {self.T!r}")
        except GridError as exc:
            raise ValidationError(str(exc), field="T") from None
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise on the response grid: white or AR(1), marginal sd."""

    kind: str = "white"
    sd: float = 0.0
    ar_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("white", "ar1"):
            raise ValidationError(f"unknown noise kind {self.kind!r}", field="noise.kind")
        if self.sd < 0.0:
            raise ValidationError("noise sd must be nonnegative", field="noise.sd")
        if self.kind == "ar1" and not -1.0 < self.ar_coefficient < 1.0:
            raise ValidationError(
                "AR(1) coefficient must lie strictly inside (-1, 1)",
                field="noise.ar_coefficient",
            )


def mode_family_values(terms, times: np.ndarray, field: str = "terms") -> np.ndarray:
    """Evaluate ``sum c * t^m * exp(a t) * sin(b t + d)`` at ``times``.

    ``terms`` is a list of objects with keys ``c, m, a, b, d`` (missing
    keys default to ``c=1, m=0, a=0, b=0, d=pi/2``, a plain
    exponential): finite numbers, with ``m`` a nonnegative integer.
    Errors name the JSON path of the entry below ``field``.
    """
    return _mode_sum(_mode_terms(terms, field), times)


def _mode_terms(terms, field: str) -> tuple[tuple[float, int, float, float, float], ...]:
    """The checked ``(c, m, a, b, d)`` of each mode term, defaults filled in."""
    out = []
    for idx, term in enumerate(json_value(terms, list, "terms", field=field)):
        at = f"{field}[{idx}]"
        if not isinstance(term, Mapping):
            raise ValidationError("a mode term must be an object", field=at)
        c = json_entry(term, "c", float, 1.0, at)
        m = json_entry(term, "m", int, 0, at)
        a = json_entry(term, "a", float, 0.0, at)
        b = json_entry(term, "b", float, 0.0, at)
        d = json_entry(term, "d", float, np.pi / 2.0, at)
        if m < 0:
            raise ValidationError(f"term {idx}: power m must be nonnegative", field=f"{at}.m")
        out.append((c, m, a, b, d))
    return tuple(out)


def _mode_sum(terms, times) -> np.ndarray:
    """``sum c * t^m * exp(a t) * sin(b t + d)`` over checked ``terms`` at ``times``."""
    times = np.asarray(times, dtype=float)
    out = np.zeros_like(times)
    for c, m, a, b, d in terms:
        out += c * times**m * np.exp(a * times) * np.sin(b * times + d)
    return out


def _grid_times(spec: GeneratorSpec) -> np.ndarray:
    n = snap_to_index(spec.T / spec.step, what=f"domain length {spec.T!r}") + 1
    return sample_times(spec.step, n, "T")


def filtered_noise_modes(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral content of a ``filtered_noise`` covariate.

    Returns ``(amplitudes, angular_frequencies, phases)`` such that the
    curve is ``sum_q A_q sin(W_q t + phi_q)``. Exposed so callers can
    build closed-form convolution responses against the exact same
    random function the generator samples. The generator evaluates the
    sum by angle addition (see ``_sine_sum``), so its samples match a
    direct evaluation to rounding, not bit for bit.
    """
    if spec.kind != "filtered_noise":
        raise ValidationError(f"spec kind is {spec.kind!r}, not 'filtered_noise'")
    return _noise_modes(generator_params(spec), spec.seed)


def _noise_modes(params: Mapping[str, object], seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`filtered_noise_modes` from checked ``params`` and the curve's ``seed``."""
    n_modes, max_frequency, bandwidth = params["n_modes"], params["max_frequency"], params["bandwidth"]
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.0, max_frequency, n_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    gains = rng.standard_normal(n_modes)
    omegas = 2.0 * np.pi * freqs
    envelope = np.exp(-0.5 * (omegas * bandwidth) ** 2)
    amps = gains * envelope * np.sqrt(2.0 / n_modes)
    return amps, omegas, phases


def _sine_sum(n: int, step: float, amps, omegas, phases) -> np.ndarray:
    """``sum_q amps_q sin(omegas_q t + phases_q)`` at ``t = step * k``, ``k < n``.

    Splits ``t = t0 + tau`` into a block start ``t0`` and an offset
    ``tau`` of fewer than ``_SINE_BLOCK`` steps and uses
    ``sin(w t + phi) = sin(w tau + phi) cos(w t0) + cos(w tau + phi) sin(w t0)``,
    so the sum is two (B x K) by (K x n/B) matrix products and takes
    ``B K + K n/B`` sines and cosines instead of ``n K``.
    """
    block = min(_SINE_BLOCK, n)
    n_blocks = -(-n // block)
    inner = (step * np.arange(block))[:, None] * omegas + phases
    outer = (step * (block * np.arange(n_blocks)))[:, None] * omegas
    values = (np.sin(inner) * amps) @ np.cos(outer).T + (np.cos(inner) * amps) @ np.sin(outer).T
    return values.T.reshape(-1)[:n]


def generator_params(spec: GeneratorSpec, field: str = "params") -> dict[str, object]:
    """The parameters of ``spec``'s generator, checked, with defaults filled in.

    Numbers go through :func:`fcmlab.util.json_value`: an integer
    parameter takes JSON integers only, a real one any finite number.
    Errors name the JSON path ``field.key`` of the parameter. The keys
    per kind: ``n_modes`` (default 256), ``max_frequency`` (default
    ``0.5 / step``) and ``bandwidth`` (default ``step``) for
    ``filtered_noise``; ``K`` (default 8) and, for ``sinusoid_rich``,
    ``amplitudes`` (default ``2^-k``); ``terms`` for ``self_similar``,
    each term as its ``(c, m, a, b, d)``.
    """
    params = spec.params
    if spec.kind == "filtered_noise":
        out = {
            "n_modes": json_entry(params, "n_modes", int, 256, field),
            "max_frequency": json_entry(params, "max_frequency", float, 0.5 / spec.step, field),
            "bandwidth": json_entry(params, "bandwidth", float, spec.step, field),
        }
        if out["n_modes"] < 1:
            raise ValidationError("n_modes must be positive", field=f"{field}.n_modes")
        if out["max_frequency"] <= 0.0:
            raise ValidationError("max_frequency must be positive", field=f"{field}.max_frequency")
        if out["bandwidth"] < 0.0:
            raise ValidationError("bandwidth must be nonnegative", field=f"{field}.bandwidth")
        return out
    if spec.kind == "self_similar":
        terms = params.get("terms")
        if not terms:
            raise ValidationError("self_similar needs a nonempty 'terms' list", field=f"{field}.terms")
        return {"terms": _mode_terms(terms, f"{field}.terms")}
    K = json_entry(params, "K", int, 8, field)
    if K < 1:
        raise ValidationError("K must be positive", field=f"{field}.K")
    if spec.kind == "orthogonal_counterexample":
        rounded = round(spec.T)
        if abs(spec.T - rounded) > ALIGN_RTOL * max(1.0, spec.T) or rounded < 1:
            raise ValidationError(
                f"the orthogonal counterexample needs an integer-length domain, got T={spec.T!r}",
                field="T",
            )
        return {"K": K}
    at = f"{field}.amplitudes"
    amplitudes = json_entry(params, "amplitudes", list, [2.0**-k for k in range(1, K + 1)], field)
    amplitudes = [json_value(a, float, f"{at}[{k}]") for k, a in enumerate(amplitudes)]
    if len(amplitudes) != K:
        raise ValidationError(f"need {K} amplitudes, got {len(amplitudes)}", field=at)
    return {"K": K, "amplitudes": amplitudes}


def gen_covariate(spec: GeneratorSpec) -> GridFunction:
    """Generate one covariate curve according to ``spec``."""
    return _covariate(spec, _grid_times(spec), generator_params(spec), spec.seed)


def _covariate(spec: GeneratorSpec, times: np.ndarray, params: Mapping[str, object], seed: int) -> GridFunction:
    """The curve of ``spec`` on its grid ``times`` from its checked ``params``, drawn with ``seed``."""
    if spec.kind == "sinusoid_rich":
        values = np.zeros_like(times)
        for k, amp in enumerate(params["amplitudes"], start=1):
            values += amp * np.sin(2.0 * np.pi * k * times)
        return GridFunction(0.0, spec.step, values)
    if spec.kind == "orthogonal_counterexample":
        values = np.zeros_like(times)
        for k in range(1, params["K"] + 1):
            values += 2.0 ** (-4.0 * k) * np.sin(4.0 * np.pi * k * times)
        return GridFunction(0.0, spec.step, values)
    if spec.kind == "self_similar":
        return GridFunction(0.0, spec.step, _mode_sum(params["terms"], times))
    # filtered_noise
    values = _sine_sum(times.size, spec.step, *_noise_modes(params, seed))
    return GridFunction(0.0, spec.step, values)


def _noise_curve(noise: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if noise.sd == 0.0:
        return np.zeros(n)
    w = rng.standard_normal(n)
    if noise.kind == "white":
        return noise.sd * w
    rho = noise.ar_coefficient
    eps = np.empty(n)
    eps[0] = noise.sd * w[0]
    scale = noise.sd * np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        eps[t] = rho * eps[t - 1] + scale * w[t]
    return eps


def gen_design(
    cov_specs,
    beta_true: CoefficientSet,
    noise: NoiseSpec,
    n: int,
    seed: int,
) -> tuple[Design, CoefficientSet]:
    """Simulate ``n`` observations from known coefficients.

    Lags are read off the domains of ``beta_true.betas`` and the grid
    step from the covariate specs (all specs must agree on ``T`` and
    ``step``). Covariate ``j`` of observation ``i`` uses the derived
    seed ``spec.seed + 1009 * i``; scalar covariates (when
    ``beta_true.beta0`` has entries beyond the intercept) and the noise
    curve draw from a generator seeded ``seed + i``. Responses carry
    the model prediction on ``[alpha_star, T]``; earlier times hold the
    truncated-window convolution (a burn-in segment that no criterion
    ever integrates over) plus the same intercept, scalar, and noise
    terms.

    Returns the design together with ``beta_true`` unchanged.
    """
    cov_specs = tuple(cov_specs)
    if not cov_specs:
        raise ValidationError("need at least one covariate spec")
    if len(cov_specs) != len(beta_true.betas):
        raise ValidationError(
            f"{len(cov_specs)} covariate specs for {len(beta_true.betas)} lag kernels"
        )
    if n < 1:
        raise ValidationError("need at least one observation", field="n")
    step = cov_specs[0].step
    T = cov_specs[0].T
    for spec in cov_specs[1:]:
        if abs(spec.step - step) > ALIGN_RTOL * step or abs(spec.T - T) > ALIGN_RTOL * max(1.0, T):
            raise ValidationError("all covariate specs must share T and step")
    d = len(beta_true.beta0) - 1
    lags = tuple(b.domain_length for b in beta_true.betas)
    if T < max(lags) + (1.0 - ALIGN_RTOL) * step:  # as `Design` checks, before any curve is made
        raise ValidationError(f"T={T!r} leaves no room beyond the largest lag {max(lags)!r}", field="T")
    # Each spec's parameters are checked once, not once per observation.
    covariates = [(spec, _grid_times(spec), generator_params(spec)) for spec in cov_specs]
    observations = []
    for i in range(n):
        xs = tuple(
            _covariate(spec, times, params, spec.seed + _SEED_STRIDE * i)
            for spec, times, params in covariates
        )
        rng = np.random.default_rng(seed + i)
        z = tuple(float(v) for v in rng.standard_normal(d)) if d else ()
        level = beta_true.beta0[0]
        for zk, bk in zip(z, beta_true.beta0[1:]):
            level += bk * zk
        signal = np.full(len(xs[0]), level)
        for xj, bj in zip(xs, beta_true.betas):
            signal += _lag_sum(xj.values, bj.values, step)[: len(xj)]
        eps = _noise_curve(noise, signal.size, rng)
        y = GridFunction(0.0, step, signal + eps)
        observations.append(Observation(y, xs, z))
    design = Design(tuple(observations), lags, step)
    return design, beta_true

