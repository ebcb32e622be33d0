"""Independent checker of the files the fcmlab commands write.

Shares no code with fcmlab: it reads the curve CSVs, manifests and JSON
outputs with numpy and the standard library, and implements the
discrete criterion itself. The criterion of coefficients ``c`` is

    sum_i sum_t w_t (y_i(t) - b00 - sum_k b0k z_ik
                     - sum_j sum_u v_u beta_j(u) x_ij(t - u))^2

over the grid times ``t`` of ``[alpha_star, T_i]``, with trapezoid
weights ``w`` in time and ``v`` in lag. Here the lag sum is a product
of a delay matrix with the weighted kernel, not a convolution routine.

Usage: python3 benchmarks/check.py SPEC.json OUTPUT_DIR U LAMBDA
(OUTPUT_DIR holds design/, fit_svd.json, fit_ridge.json,
diagnosis.json and rows.csv as the benchmark writes them; U is the
down-sampling interval and LAMBDA the ridge penalty the commands used).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A reported objective must equal the recomputed one to this relative
# tolerance; the two differ only in summation order.
SSE_RTOL = 1e-8
# An optimum may exceed the value at the truth by rounding only.
OPT_RTOL = 1e-9
# Eigenvalues may dip below zero by this share of the largest one.
EIG_NEG_RTOL = 1e-10
# Recovered mode parameters (a, b) must match the spec to this.
MODE_ATOL = 1e-6
# The noise sd may differ from the spec by this many standard errors.
NOISE_Z = 6.0


@dataclass
class Curves:
    step: float
    lags: list[float]
    y: list[np.ndarray]
    x: list[list[np.ndarray]]
    z: np.ndarray  # (n, d)
    t_end: list[float]


def trapezoid(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def read_curve(path: Path, step: float) -> tuple[np.ndarray, float]:
    """Values of a ``t,value`` CSV, after checking it is on the grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    grid = step * np.arange(t.size)
    if not np.allclose(t, grid, rtol=0.0, atol=1e-9 * step * max(1, t.size)):
        raise ValueError(f"{path}: times are not the grid 0, {step}, ...")
    return data[:, 1], float(t[-1])


def read_design(manifest_path: Path) -> Curves:
    raw = json.loads(manifest_path.read_text())
    base = manifest_path.parent
    step = float(raw["step"])
    ys, xs, zs, ends = [], [], [], []
    for entry in raw["observations"]:
        y, t_end = read_curve(base / entry["y"], step)
        ys.append(y)
        ends.append(t_end)
        xs.append([read_curve(base / rel, step)[0] for rel in entry["x"]])
        zs.append([float(v) for v in entry.get("z", [])])
    return Curves(step, [float(a) for a in raw["lags"]], ys, xs, np.array(zs, ndmin=2), ends)


def lag_steps(curves: Curves) -> list[int]:
    return [int(round(a / curves.step)) for a in curves.lags]


def predictions(curves: Curves, beta0: list[float], kernels: list[np.ndarray]) -> list[np.ndarray]:
    """Model prediction of every observation on ``[alpha_star, T_i]``."""
    h = curves.step
    L = lag_steps(curves)
    k0 = max(L)
    out = []
    for i, y in enumerate(curves.y):
        pred = np.full(y.size - k0, beta0[0] + float(np.dot(beta0[1:], curves.z[i])))
        for j, beta in enumerate(kernels):
            # Row r of the window view holds x[s .. s + L]; reversed, it is
            # x(t - u) for u = 0 .. L at t = s + L.
            delays = sliding_window_view(curves.x[i][j], L[j] + 1)[k0 - L[j] :, ::-1]
            pred += delays @ (trapezoid(L[j] + 1, h) * beta)
        out.append(pred)
    return out


def criterion(curves: Curves, beta0: list[float], kernels: list[np.ndarray]) -> float:
    k0 = max(lag_steps(curves))
    total = 0.0
    for y, pred in zip(curves.y, predictions(curves, beta0, kernels)):
        r = y[k0:] - pred
        total += float(trapezoid(r.size, curves.step) @ (r * r))
    return total


def roughness(kernels: list[np.ndarray]) -> float:
    """Sum of squared second differences of the kernel samples."""
    return float(sum(np.sum(np.diff(b, n=2) ** 2) for b in kernels))


def coefficients(payload: dict) -> tuple[list[float], list[np.ndarray]]:
    beta0 = [float(v) for v in payload["beta0"]]
    return beta0, [np.asarray(b["values"], dtype=float) for b in payload["betas"]]


def term_values(terms: list[dict], u: np.ndarray) -> np.ndarray:
    """``sum c * u^m * exp(a u) * sin(b u + d)``, defaults as in the spec format."""
    out = np.zeros_like(u)
    for term in terms:
        out += (
            term.get("c", 1.0)
            * u ** term.get("m", 0)
            * np.exp(term.get("a", 0.0) * u)
            * np.sin(term.get("b", 0.0) * u + term.get("d", math.pi / 2.0))
        )
    return out


def analytic_modes(terms: list[dict]) -> tuple[int, list[tuple[float, float]]]:
    """Recurrence order and (a, b) modes, by frequency, of distinct mode terms."""
    order = sum((2 if term.get("b", 0.0) != 0.0 else 1) * (term.get("m", 0) + 1) for term in terms)
    modes = sorted((abs(float(term.get("b", 0.0))), float(term.get("a", 0.0))) for term in terms)
    return order, [(a, b) for b, a in modes]


def check_truth(spec: dict, truth: dict, curves: Curves) -> list[str]:
    """truth.json must hold the spec's kernels sampled on the lag grid."""
    errors = []
    beta0, kernels = coefficients(truth["beta_true"])
    if beta0 != [float(v) for v in spec["beta0"]]:
        errors.append("truth.json beta0 differs from the spec")
    for j, (entry, beta) in enumerate(zip(spec["betas"], kernels)):
        u = curves.step * np.arange(beta.size)
        if beta.size != lag_steps(curves)[j] + 1:
            errors.append(f"truth kernel {j} has {beta.size} samples")
        elif not np.allclose(beta, term_values(entry["terms"], u), rtol=1e-12, atol=1e-12):
            errors.append(f"truth kernel {j} differs from the spec terms")
    return errors


def check_noise(spec: dict, curves: Curves, beta0: list[float], kernels: list[np.ndarray]) -> list[str]:
    """Residual sd of the responses against the truth matches the spec."""
    k0 = max(lag_steps(curves))
    resid = np.concatenate(
        [y[k0:] - p for y, p in zip(curves.y, predictions(curves, beta0, kernels))]
    )
    sd = float(spec["noise"]["sd"])
    got = float(np.sqrt(np.mean(resid * resid)))
    limit = NOISE_Z / math.sqrt(2.0 * resid.size)
    if abs(got / sd - 1.0) > limit:
        return [f"response noise sd {got:.6g} vs spec {sd:.6g} (limit {limit:.3g} relative)"]
    return []


def check_fit(name: str, fit: dict, curves: Curves, truth, lam: float | None) -> list[str]:
    """A fit's reported sse and its optimality against the truth."""
    errors = []
    beta0, kernels = coefficients(fit["coefficients"])
    crit = criterion(curves, beta0, kernels)
    if not math.isclose(fit["sse"], crit, rel_tol=SSE_RTOL):
        errors.append(f"{name}: reported sse {fit['sse']!r} != recomputed {crit!r}")
    t_crit = criterion(curves, *truth)
    if lam is None:
        if crit > t_crit * (1.0 + OPT_RTOL):
            errors.append(f"{name}: criterion {crit!r} exceeds the truth's {t_crit!r}")
    else:
        obj = crit + lam * roughness(kernels)
        t_obj = t_crit + lam * roughness(truth[1])
        if obj > t_obj * (1.0 + OPT_RTOL):
            errors.append(f"{name}: penalized objective {obj!r} exceeds the truth's {t_obj!r}")
    return errors


def check_spectrum(diag: dict, curves: Curves) -> list[str]:
    errors = []
    ev = np.asarray(diag["eigenvalues"], dtype=float)
    size = sum(s + 1 for s in lag_steps(curves))
    if ev.size != size or diag["block_size"] != size:
        errors.append(f"spectrum has {ev.size} values, block size {diag['block_size']}, expected {size}")
        return errors
    top = float(ev.max())
    if np.any(np.diff(ev) > 0.0):
        errors.append("eigenvalues are not in descending order")
    if top <= 0.0 or ev.min() < -EIG_NEG_RTOL * top:
        errors.append(f"eigenvalues are not nonnegative to rounding (min {ev.min()!r}, max {top!r})")
    rank = int(np.count_nonzero(ev >= diag["tol"] * top))
    if diag["numerical_rank"] != rank:
        errors.append(f"numerical_rank {diag['numerical_rank']} != {rank} eigenvalues >= tol * max")
    verdict = "identifiable" if rank == size else "non-identifiable"
    if diag["verdict"] != verdict:
        errors.append(f"verdict {diag['verdict']!r} but rank {rank} of {size}")
    return errors


def check_recurrences(spec: dict, diag: dict, n: int) -> list[str]:
    """Self-similar covariates: analytic orders and modes are recovered."""
    errors = []
    expected = [analytic_modes(c["params"]["terms"]) for c in spec["covariates"]]
    seen = 0
    for entry in diag["covariates"]:
        seen += 1
        order, modes = expected[entry["covariate"]]
        where = f"observation {entry['observation']} covariate {entry['covariate']}"
        if entry["estimated_order"] != order or not entry["finite_dimensional"]:
            errors.append(f"{where}: order {entry['estimated_order']}, expected {order}")
            continue
        # Sorted by frequency, which the specs keep well apart.
        got = [(m["a"], m["b"]) for m in sorted(entry["modes"] or [], key=lambda m: (m["b"], m["a"]))]
        if len(got) != len(modes) or any(
            abs(ga - ea) > MODE_ATOL or abs(gb - eb) > MODE_ATOL
            for (ga, gb), (ea, eb) in zip(got, modes)
        ):
            errors.append(f"{where}: modes {got} do not match {modes}")
    if seen != n * len(expected):
        errors.append(f"{seen} covariate reports for {n} observations")
    return errors[:5]


def check_rows(rows_path: Path, curves: Curves, U: float) -> list[str]:
    """Row count and every sampled value of the down-sampled CSV."""
    h = curves.step
    L = lag_steps(curves)
    k0 = max(L)
    stride = int(round(U / h))
    counts = [int(math.floor((t_end - k0 * h) / U + 1e-9)) + 1 for t_end in curves.t_end]
    with open(rows_path) as handle:
        header = handle.readline().strip().split(",")
    d = curves.z.shape[1]
    want = ["obs", "l", "y"] + [f"z{k}" for k in range(d)]
    want += [f"x{j}_u{m}" for j in range(len(L)) for m in range(L[j] + 1)]
    if header != want:
        return ["rows.csv header does not match the design"]
    rows = np.loadtxt(rows_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] != sum(counts):
        return [f"rows.csv has {rows.shape[0]} rows, expected {sum(counts)}"]
    errors = []
    start = 0
    for i, count in enumerate(counts):
        block = rows[start : start + count]
        start += count
        l = np.arange(count)
        t_idx = k0 + stride * l
        expect = [np.full(count, float(i)), l.astype(float), curves.y[i][t_idx]]
        expect += [np.full(count, v) for v in curves.z[i]]
        for j in range(len(L)):
            expect.append(curves.x[i][j][t_idx[:, None] - np.arange(L[j] + 1)[None, :]])
        expect = np.column_stack(expect)
        bad = np.argwhere(block != expect)
        if bad.size:
            r, c = bad[0]
            errors.append(
                f"rows.csv observation {i} row {r}: column {want[c]} is "
                f"{float(block[r, c])!r}, expected {float(expect[r, c])!r}"
            )
            if len(errors) >= 5:
                break
    return errors


def check_outputs(spec: dict, out_dir, U: float, lam: float) -> list[str]:
    """Every check on one set of outputs; returns the failures found."""
    out_dir = Path(out_dir)
    curves = read_design(out_dir / "design" / "manifest.json")
    if len(curves.y) != spec["n"]:
        return [f"design has {len(curves.y)} observations, spec asks for {spec['n']}"]
    truth_raw = json.loads((out_dir / "design" / "truth.json").read_text())
    truth = coefficients(truth_raw["beta_true"])
    errors = check_truth(spec, truth_raw, curves)
    errors += check_noise(spec, curves, *truth)
    errors += check_fit("fit_svd", json.loads((out_dir / "fit_svd.json").read_text()), curves, truth, None)
    errors += check_fit("fit_ridge", json.loads((out_dir / "fit_ridge.json").read_text()), curves, truth, lam)
    diag = json.loads((out_dir / "diagnosis.json").read_text())
    errors += check_spectrum(diag, curves)
    if all(c["kind"] == "self_similar" for c in spec["covariates"]):
        errors += check_recurrences(spec, diag, len(curves.y))
    errors += check_rows(out_dir / "rows.csv", curves, U)
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        sys.stderr.write("usage: check.py SPEC.json OUTPUT_DIR U LAMBDA\n")
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    errors = check_outputs(spec, argv[1], float(argv[2]), float(argv[3]))
    for e in errors:
        print(e)
    print("ok" if not errors else f"{len(errors)} check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
