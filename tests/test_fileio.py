import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmlab import fileio, util
from fcmlab.designs import GeneratorSpec, NoiseSpec, gen_design
from fcmlab.downsample import to_flm
from fcmlab.errors import ValidationError
from fcmlab.estimator import fit
from fcmlab.grids import GridFunction
from fcmlab.identifiability import diagnose
from fcmlab.model import CoefficientSet, Design, Observation

from conftest import traced_peak, write_residual_curves_whole

# Doubles whose text is easy to get wrong: a signed zero, the smallest
# subnormal, a huge value and a short negative one.
SPECIAL = [-0.0, 5e-324, 1e300, -1.5]

# Cells in a row CSV line of the unequal_design fixture: obs, l, y, z0,
# then windows of 5 and 9 samples.
UNEQUAL_ROW_CELLS = 3 + 1 + 5 + 9


def reference_csv(header, rows):
    """CSV text formatted cell by cell: ``str`` for ints, ``.17g`` for floats."""

    def cell(v):
        return str(v) if isinstance(v, int) else f"{v:.17g}"

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def flm_reference(design, stride):
    """The row CSV of ``design`` at ``stride`` steps, formatted cell by cell.

    Rows and windows are taken from the design's curves directly.
    """
    lag_lengths = design.lag_lengths()
    header = ["obs", "l", "y"] + [f"z{k}" for k in range(design.d)]
    header += [f"x{j}_u{m}" for j, L in enumerate(lag_lengths) for m in range(L + 1)]
    k0 = design.alpha_star_index()
    rows = []
    for i, obs in enumerate(design.observations):
        for l, t in enumerate(range(k0, len(obs.y), stride)):
            windows = [x.values[t - np.arange(L + 1)].tolist() for x, L in zip(obs.x, lag_lengths)]
            rows.append([i, l, float(obs.y.values[t]), *obs.z, *(v for w in windows for v in w)])
    return reference_csv(header, rows)


def with_special_samples(design):
    """``design`` with SPECIAL written into its covariate curves.

    The samples start at grid index ``k0 + 2``, so they fall inside the
    windows of the rows near the start of each observation.
    """
    k = design.alpha_star_index() + 2
    observations = []
    for obs in design.observations:
        xs = []
        for x in obs.x:
            values = x.values.copy()
            values[k : k + len(SPECIAL)] = SPECIAL
            xs.append(GridFunction(x.start, x.step, values))
        observations.append(Observation(obs.y, tuple(xs), obs.z))
    return Design(tuple(observations), design.lags, design.step)


@st.composite
def flm_datasets(draw):
    """Small designs holding any finite doubles, with their row sets.

    p = 1..3 covariates with unequal lags, d = 0..2 scalars, one to three
    observations of unequal length, and a stride of 1 to 12 steps, so
    windows overlap, tile exactly or leave gaps.
    """
    step = 0.125
    p = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2))
    lag_steps = draw(st.lists(st.integers(1, 6), min_size=p, max_size=p))
    stride = draw(st.integers(1, 12))
    k0 = max(lag_steps)
    doubles = st.floats(allow_nan=False, allow_infinity=False)
    observations = []
    for _ in range(draw(st.integers(1, 3))):
        n_pts = k0 + 2 + draw(st.integers(0, 3 * stride))
        curves = [np.array(draw(st.lists(doubles, min_size=n_pts, max_size=n_pts))) for _ in range(p + 1)]
        y, *xs = (GridFunction(0.0, step, c) for c in curves)
        z = tuple(draw(st.lists(doubles, min_size=d, max_size=d)))
        observations.append(Observation(y, tuple(xs), z))
    design = Design(tuple(observations), tuple(step * s for s in lag_steps), step)
    return design, stride, to_flm(design, stride * step)


def spec_dict(**overrides):
    base = {
        "format_version": 1,
        "step": 0.125,
        "T": 1.5,
        "n": 2,
        "seed": 5,
        "lags": [0.5],
        "covariates": [
            {
                "kind": "filtered_noise",
                "params": {"n_modes": 16, "max_frequency": 3.0, "bandwidth": 0.05},
            }
        ],
        "beta0": [0.7, -0.3],
        "betas": [{"values": [0.0, 0.5, 1.0, 0.5, 0.0]}],
        "noise": {"kind": "white", "sd": 0.1},
    }
    base.update(overrides)
    return base


class TestDesignRoundTrip:
    def test_values_survive_exactly(self, tmp_path, noisy_design):
        design, _ = noisy_design
        manifest = fileio.write_design(design, tmp_path / "d")
        loaded = fileio.read_design(manifest)
        assert loaded.step == design.step
        assert loaded.lags == design.lags
        for a, b in zip(loaded.observations, design.observations):
            assert np.array_equal(a.y.values, b.y.values)
            assert np.array_equal(a.x[0].values, b.x[0].values)
            assert a.z == b.z

    def test_curves_of_unequal_length_survive_exactly(self, tmp_path, unequal_design):
        manifest = fileio.write_design(unequal_design, tmp_path / "d")
        loaded = fileio.read_design(manifest)
        assert (loaded.step, loaded.lags) == (unequal_design.step, unequal_design.lags)
        for a, b in zip(loaded.observations, unequal_design.observations):
            assert a.z == b.z
            for f, g in zip((a.y, *a.x), (b.y, *b.x)):
                assert (f.start, f.step) == (g.start, g.step)
                assert f.values.tobytes() == g.values.tobytes()

    def test_manifest_is_versioned(self, tmp_path, noisy_design):
        design, _ = noisy_design
        manifest = fileio.write_design(design, tmp_path / "d")
        raw = json.loads(manifest.read_text())
        assert raw["format_version"] == fileio.FORMAT_VERSION

    def test_missing_key_names_the_field(self, tmp_path, noisy_design):
        design, _ = noisy_design
        manifest = fileio.write_design(design, tmp_path / "d")
        raw = json.loads(manifest.read_text())
        del raw["lags"]
        manifest.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as exc:
            fileio.read_design(manifest)
        assert "lags" in str(exc.value)

    def test_boolean_format_version_is_rejected(self, tmp_path, noisy_design):
        design, _ = noisy_design
        manifest = fileio.write_design(design, tmp_path / "d")
        raw = json.loads(manifest.read_text())
        raw["format_version"] = True
        manifest.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as exc:
            fileio.read_design(manifest)
        assert exc.value.field == "format_version"

    def test_invalid_json_reports_source(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError) as exc:
            fileio.read_design(path)
        assert exc.value.source is not None

    def test_corrupt_curve_csv_reports_line(self, tmp_path, noisy_design):
        design, _ = noisy_design
        manifest = fileio.write_design(design, tmp_path / "d")
        curve = tmp_path / "d" / "obs000" / "y.csv"
        lines = curve.read_text().splitlines()
        t0, v0 = lines[2].split(",")
        lines[2] = f"{float(t0) + 0.011},{v0}"
        curve.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            fileio.read_design(manifest)
        assert exc.value.line is not None


class TestCoefficientsRoundTrip:
    def test_dict_round_trip(self):
        coef = CoefficientSet(
            (0.5, -1.0),
            (GridFunction(0.0, 0.25, np.array([1.0, 2.0, 3.0])),),
        )
        assert fileio.coefficients_to_dict(coef) == {
            "beta0": [0.5, -1.0],
            "betas": [{"start": 0.0, "step": 0.25, "values": [1.0, 2.0, 3.0]}],
        }

    def test_truth_file_round_trip(self, tmp_path, noisy_design):
        _, truth = noisy_design
        path = tmp_path / "truth.json"
        fileio.write_truth(path, truth, simulation={"seed": 21})
        raw = json.loads(path.read_text())
        assert raw["beta_true"] == fileio.coefficients_to_dict(truth)
        assert raw["format_version"] == fileio.ARTIFACT_VERSION


class TestAtomicWrite:
    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        util.atomic_write(path, ["new"])
        assert path.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        util.atomic_write(tmp_path / "out.json", ["pay", "load"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
        assert (tmp_path / "out.json").read_text() == "payload"

    def test_failing_chunks_leave_target_unchanged(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("old\n")

        def chunks():
            yield "a,b\n"
            yield "1,2\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError):
            util.atomic_write(path, chunks())
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


class TestJsonWriter:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"a": [], "b": {}, "c": None},
            {"format_version": 3, "nested": {"list": [1, 2.5, -0.0, 5e-324, 1e300], "flag": True}},
            {"deep": [[{"x": [[]]}], [1, [2, [3, {"y": "z\u00e9\n"}]]]], "tail": False},
        ],
    )
    def test_bytes_are_those_of_dumps(self, tmp_path, payload):
        path = tmp_path / "out.json"
        fileio._write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()

    def test_non_finite_payload_exits_2_and_leaves_the_old_file(self, tmp_path, monkeypatch, capsys):
        from fcmlab.cli import main

        design, _ = gen_design(
            [GeneratorSpec("self_similar", 1.5, 0.125, params={"terms": [{"a": -0.5}]})],
            CoefficientSet((0.7,), (GridFunction(0.0, 0.125, np.ones(5)),)),
            NoiseSpec("white", sd=0.0),
            n=2,
            seed=3,
        )
        manifest = fileio.write_design(design, tmp_path / "design")
        out = tmp_path / "diagnosis.json"
        out.write_text("old\n")
        real = fileio.diagnosis_payload

        def with_nan(report):
            payload = real(report)
            payload["covariates"][-1]["residual"] = float("nan")
            return payload

        monkeypatch.setattr(fileio, "diagnosis_payload", with_nan)
        assert main(["diagnose", "--design", str(manifest), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design", "diagnosis.json"]


class TestPayloads:
    def test_fit_payload_fields(self, noisy_design):
        design, _ = noisy_design
        payload = fileio.fit_payload(fit(design, solver="direct"))
        assert payload["format_version"] == fileio.ARTIFACT_VERSION
        assert payload["solver_used"] == "direct"
        assert payload["sse"] >= 0.0
        assert "coefficients" in payload

    def test_diagnosis_payload_verdict(self, noisy_design, deficient_design):
        good, _ = noisy_design
        bad, _ = deficient_design
        payload = fileio.diagnosis_payload(diagnose(good))
        assert payload["format_version"] == fileio.ARTIFACT_VERSION
        assert payload["verdict"] == "identifiable"
        assert fileio.diagnosis_payload(diagnose(bad))["verdict"] == "non-identifiable"

    def test_spectrum_csv_header(self, tmp_path):
        path = tmp_path / "spec.csv"
        fileio.write_spectrum_csv(path, np.array([3.0, 1.0, 0.5]))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,sigma"
        assert len(lines) == 4

    def test_residual_curves_csv(self, tmp_path, deficient_design):
        # The three-tone curves are finite-dimensional, so none is
        # certified broadband and each writes its whole curve.
        design, _ = deficient_design
        report = diagnose(design)
        path = tmp_path / "res.csv"
        fileio.write_residual_curves_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "observation,covariate,K,residual"
        sizes = [rep.singular_values.size for row in report.covariate_reports for rep in row]
        assert len(lines) == 1 + sum(size + 1 for size in sizes)

    def test_certified_curves_are_null_and_write_no_residual_rows(self, tmp_path, noisy_design):
        design, _ = noisy_design
        report = diagnose(design)
        payload = fileio.diagnosis_payload(report)
        assert len(payload["covariates"]) == design.n
        for entry in payload["covariates"]:
            assert entry["estimated_order"] is None
            assert entry["residual"] is None
            assert entry["singular_values"] is None
            assert entry["finite_dimensional"] is False
            assert entry["recurrence_coeffs"] is None and entry["modes"] is None
        path = tmp_path / "res.csv"
        fileio.write_residual_curves_csv(path, report)
        assert path.read_text() == "observation,covariate,K,residual\n"

    def test_flm_csv_layout(self, tmp_path, noisy_design):
        design, _ = noisy_design
        data = to_flm(design, design.step)
        path = tmp_path / "flm.csv"
        fileio.write_flm_csv(path, data)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["obs", "l", "y"]
        assert header[3] == "z0"
        assert header[4] == "x0_u0"
        assert len(lines) == data.row_count + 1


class TestCsvBytes:
    """Every CSV writer's bytes against a cell-by-cell reference."""

    def test_grid_csv(self, tmp_path):
        f = GridFunction(-0.5, 0.125, SPECIAL + [0.1, 2.0 / 3.0])
        path = tmp_path / "curve.csv"
        fileio.write_grid_csv(path, f)
        rows = zip(f.times().tolist(), f.values.tolist())
        assert path.read_text() == reference_csv(["t", "value"], rows)

    def test_spectrum_csv(self, tmp_path):
        path = tmp_path / "spec.csv"
        fileio.write_spectrum_csv(path, np.array(SPECIAL))
        assert path.read_text() == reference_csv(["index", "sigma"], enumerate(SPECIAL))

    def test_residual_curves_csv(self, tmp_path):
        curves = [[SPECIAL, [0.25]], [[1.0, 0.5, 1e-17]]]
        report = SimpleNamespace(
            covariate_reports=[
                [SimpleNamespace(residual_curve=np.array(c)) for c in row] for row in curves
            ]
        )
        path = tmp_path / "res.csv"
        fileio.write_residual_curves_csv(path, report)
        rows = [
            (i, j, K, r)
            for i, row in enumerate(curves)
            for j, c in enumerate(row)
            for K, r in enumerate(c)
        ]
        header = ["observation", "covariate", "K", "residual"]
        assert path.read_text() == reference_csv(header, rows)

    def test_residual_curves_csv_streams_the_bytes_of_the_whole_table(
        self, tmp_path, noisy_design, deficient_design
    ):
        # Certified and uncertified curves, reports with no rows, and
        # curves longer than a block of `write_csv`.
        rng = np.random.default_rng(9)
        synthetic = [
            [[rng.uniform(size=n) for n in (1, 66)], [None, np.array(SPECIAL)]],
            [[None], [None]],
            [[rng.uniform(size=5000), None, rng.uniform(size=4096)]],
        ]
        reports = [diagnose(noisy_design[0]), diagnose(deficient_design[0])] + [
            SimpleNamespace(
                covariate_reports=[[SimpleNamespace(residual_curve=c) for c in row] for row in rows]
            )
            for rows in synthetic
        ]
        for k, report in enumerate(reports):
            got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
            fileio.write_residual_curves_csv(got, report)
            write_residual_curves_whole(want, report)
            assert got.read_bytes() == want.read_bytes()

    def test_residual_curves_csv_holds_one_curve_at_a_time(self, tmp_path):
        # 2000 curves of 66 orders: 4.2 MB of rows as one table.
        curves = np.random.default_rng(2).uniform(size=(2000, 66))
        report = SimpleNamespace(
            covariate_reports=[[SimpleNamespace(residual_curve=c)] for c in curves]
        )
        _, peak = traced_peak(fileio.write_residual_curves_csv, tmp_path / "res.csv", report)
        assert peak < curves.size * 4 * 8 / 4

    @pytest.mark.parametrize(
        "stride, rows_per_block",
        [
            # Ids "None", "1" and "2" name the rows per block at stride 2.
            pytest.param(2, None, id="None"),
            pytest.param(2, 1, id="1"),
            pytest.param(2, 2, id="2"),
            pytest.param(1, None, id="stride1"),
            pytest.param(1, 3, id="stride1-3rows"),
            pytest.param(5, None, id="stride5-x0-tiles"),
            pytest.param(9, 2, id="stride9-x1-tiles-x0-gaps"),
            pytest.param(10, None, id="stride10-gaps"),
        ],
    )
    def test_flm_csv(self, tmp_path, monkeypatch, unequal_design, stride, rows_per_block):
        # Two covariates (windows of 5 and 9 samples) and one scalar on
        # observations of unequal length, with SPECIAL inside windows;
        # small block budgets put block boundaries inside an observation.
        design = with_special_samples(unequal_design)
        data = to_flm(design, stride * design.step)
        if rows_per_block is not None:
            cells = UNEQUAL_ROW_CELLS
            monkeypatch.setattr(util, "_BLOCK_CELLS", rows_per_block * cells + cells - 1)
        path = tmp_path / "flm.csv"
        fileio.write_flm_csv(path, data)
        assert (design.d, design.lag_lengths()) == (1, (4, 8))
        assert path.read_text() == flm_reference(design, stride)

    @given(case=flm_datasets())
    @settings(max_examples=60, deadline=None)
    def test_flm_csv_of_any_small_design(self, tmp_path_factory, case):
        design, stride, data = case
        path = tmp_path_factory.mktemp("flm") / "flm.csv"
        fileio.write_flm_csv(path, data)
        assert path.read_text() == flm_reference(design, stride)

    def test_flm_csv_streams_blocks(self, tmp_path, monkeypatch, unequal_design):
        data = to_flm(unequal_design, unequal_design.step)
        chunks = []

        def capture(path, blocks):
            chunks.extend(blocks)
            util.atomic_write(path, chunks)

        monkeypatch.setattr(fileio, "atomic_write", capture)
        path = tmp_path / "flm.csv"
        fileio.write_flm_csv(path, data)
        text = path.read_text()
        assert text == flm_reference(unequal_design, 1)
        rows = [chunk.count("\n") for chunk in chunks[1:]]
        assert max(len(chunk) for chunk in chunks) < len(text) / 2
        assert sum(rows) == data.row_count
        assert max(rows) <= min(max(y.size for _, y, _ in data.observations), util.block_rows(UNEQUAL_ROW_CELLS))

    def test_table_longer_than_one_block(self, tmp_path):
        n = 2 * (util._BLOCK_CELLS // 2) + 1  # two full blocks of two cells a row, then one row
        rng = np.random.default_rng(4)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        path = tmp_path / "spec.csv"
        fileio.write_spectrum_csv(path, values)
        assert path.read_text() == reference_csv(["index", "sigma"], enumerate(values.tolist()))


class TestSimulationSpec:
    def test_valid_spec_parses(self):
        cov_specs, beta, noise, n, seed = fileio.parse_simulation_spec(spec_dict())
        assert len(cov_specs) == 1
        assert cov_specs[0].kind == "filtered_noise"
        assert beta.beta0 == (0.7, -0.3)
        assert len(beta.betas[0]) == 5
        assert noise.sd == 0.1
        assert (n, seed) == (2, 5)

    def test_terms_kernel_evaluates_mode_family(self):
        spec = spec_dict(
            betas=[{"terms": [{"c": 1.0, "m": 0, "a": 0.0, "b": 2 * np.pi, "d": np.pi / 2}]}]
        )
        _, beta, *_ = fileio.parse_simulation_spec(spec)
        u = 0.125 * np.arange(5)
        assert np.allclose(beta.betas[0].values, np.cos(2 * np.pi * u), atol=1e-12)

    def test_wrong_kernel_length_rejected(self):
        with pytest.raises(ValidationError) as exc:
            fileio.parse_simulation_spec(spec_dict(betas=[{"values": [1.0, 2.0]}]))
        assert "5 samples" in str(exc.value)

    def test_covariate_count_must_match_lags(self):
        with pytest.raises(ValidationError):
            fileio.parse_simulation_spec(spec_dict(covariates=[]))

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValidationError):
            fileio.parse_simulation_spec(spec_dict(format_version=99))

    @pytest.mark.parametrize("lag", [0.3, 0.0])
    def test_lag_off_the_step_grid_names_the_field(self, lag):
        # 0.3 is 2.4 steps of 0.125; 0 is a multiple but not a positive one.
        with pytest.raises(ValidationError) as exc:
            fileio.parse_simulation_spec(spec_dict(lags=[lag]))
        assert exc.value.field == "lags[0]"
        assert "positive multiple" in str(exc.value)

    def test_wrong_type_names_the_field(self):
        with pytest.raises(ValidationError) as exc:
            fileio.parse_simulation_spec(spec_dict(step="fine"))
        assert exc.value.field == "step"

    def test_covariate_seed_is_used_when_given(self):
        spec = spec_dict(covariates=[{"kind": "filtered_noise", "seed": 123}])
        cov_specs, *_ = fileio.parse_simulation_spec(spec)
        assert cov_specs[0].seed == 123
