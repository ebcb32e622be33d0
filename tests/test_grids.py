import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmlab.errors import GridError, ValidationError
from fcmlab.grids import (
    GridFunction,
    inner_product,
    quadrature_weights,
    read_grid_csv,
    snap_to_index,
    write_grid_csv,
)
from fcmlab.util import block_rows

from conftest import csv_reader_grid, write_csv_grid


def grid(step, values, start=0.0):
    return GridFunction(start, step, np.asarray(values, dtype=float))


def integral(f):
    """Trapezoid integral of ``f`` over its whole domain."""
    return float(quadrature_weights(len(f), f.step) @ f.values)


def on_unit_interval(step, fn):
    t = step * np.arange(round(1.0 / step) + 1)
    return grid(step, fn(t))


class TestGridFunction:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(GridError):
            grid(0.0, [1.0, 2.0])
        with pytest.raises(GridError):
            grid(-0.5, [1.0, 2.0])

    def test_rejects_empty_values(self):
        with pytest.raises(GridError):
            grid(0.5, [])

    def test_domain_bookkeeping(self):
        f = grid(0.25, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert f.domain_length == 1.0
        assert f.end == 1.0
        assert np.array_equal(f.times(), 0.25 * np.arange(5))

    def test_values_are_read_only(self):
        f = grid(0.5, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 3.0

    def test_restrict_keeps_grid_alignment(self):
        f = on_unit_interval(0.125, lambda t: t)
        g = f.restrict(0.25, 0.75)
        assert g.start == 0.25
        assert len(g) == 5
        assert np.allclose(g.values, 0.25 + 0.125 * np.arange(5))

    def test_restrict_off_grid_raises(self):
        f = on_unit_interval(0.125, lambda t: t)
        with pytest.raises(GridError):
            f.restrict(0.3, 0.75)

    def test_combinable_requires_matching_grid(self):
        f = grid(0.5, [0.0, 1.0, 2.0])
        assert not f.combinable_with(grid(0.25, [0.0, 1.0, 2.0]))
        assert not f.combinable_with(grid(0.5, [0.0, 1.0]))
        assert not f.combinable_with(grid(0.5, [0.0, 1.0, 2.0], start=1.0))
        assert f.combinable_with(grid(0.5, [5.0, 6.0, 7.0]))


class TestTrapezoidIntegral:
    def test_constant_is_exact(self):
        assert integral(on_unit_interval(0.1, lambda t: np.ones_like(t))) == pytest.approx(1.0, abs=1e-15)

    def test_linear_is_exact(self):
        assert integral(on_unit_interval(0.25, lambda t: t)) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_error_is_sixth_of_step_squared(self):
        # Trapezoid error for t^2 on [0,1] is exactly step^2/6, well
        # inside the documented step^2 envelope.
        for n in (4, 8, 16):
            h = 1.0 / n
            val = integral(on_unit_interval(h, lambda t: t * t))
            assert abs(val - 1.0 / 3.0) == pytest.approx(h * h / 6.0, rel=1e-12)
            assert abs(val - 1.0 / 3.0) <= h * h

    def test_single_sample_is_degenerate(self):
        with pytest.raises(GridError):
            integral(grid(0.5, [1.0]))

    def test_convergence_order_on_partial_period(self):
        # On [0, 0.75] the sine integral has a genuine O(step^2) error;
        # halving the step must cut it by about 4.
        exact = (1.0 - np.cos(1.5 * np.pi)) / (2.0 * np.pi)
        errs = []
        for n in (24, 48, 96):
            h = 0.75 / n
            t = h * np.arange(n + 1)
            errs.append(abs(integral(grid(h, np.sin(2 * np.pi * t))) - exact))
        assert errs[1] == pytest.approx(errs[0] / 4.0, rel=0.05)
        assert errs[2] == pytest.approx(errs[1] / 4.0, rel=0.05)

    def test_full_period_sine_stays_within_step_squared(self):
        for n in (8, 16, 32):
            h = 1.0 / n
            val = integral(on_unit_interval(h, lambda t: np.sin(2 * np.pi * t)))
            assert abs(val) <= h * h

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        f = grid(0.125, rng.standard_normal(9))
        g = grid(0.125, rng.standard_normal(9))
        combined = integral(f.with_values(a * f.values + b * g.values))
        expected = a * integral(f) + b * integral(g)
        assert combined == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestInnerProduct:
    def test_zero_functions(self):
        z = on_unit_interval(0.25, np.zeros_like)
        assert inner_product(z, z) == 0.0

    def test_fourier_orthogonality(self):
        h = 1.0 / 512.0
        f = on_unit_interval(h, lambda t: np.sin(2 * np.pi * t))
        g = on_unit_interval(h, lambda t: np.sin(4 * np.pi * t))
        assert abs(inner_product(f, g)) < 1e-10

    def test_sine_energy(self):
        f = on_unit_interval(1.0 / 512.0, lambda t: np.sin(2 * np.pi * t))
        assert inner_product(f, f) == pytest.approx(0.5, abs=1e-6)

    def test_grid_mismatch_raises(self):
        f = grid(0.5, [1.0, 2.0, 3.0])
        g = grid(0.25, [1.0, 2.0, 3.0])
        with pytest.raises(GridError):
            inner_product(f, g)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        f = grid(0.2, rng.standard_normal(7))
        g = grid(0.2, rng.standard_normal(7))
        assert inner_product(f, g) == inner_product(g, f)


class TestQuadratureWeights:
    def test_endpoints_halved(self):
        w = quadrature_weights(5, 0.25)
        assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
        assert w.sum() == pytest.approx(1.0)

    def test_cubic_error_is_quarter_step_squared(self):
        # Euler-Maclaurin: the error is step^2/12 (f'(1) - f'(0)) exactly,
        # since the step^4 term vanishes for a constant third derivative.
        f = on_unit_interval(0.125, lambda t: t**3)
        w = quadrature_weights(len(f), f.step)
        assert float(w @ f.values) == pytest.approx(0.25 + 0.125**2 / 4.0, abs=1e-15)


class TestSnapToIndex:
    def test_snaps_near_integers(self):
        assert snap_to_index(4.0 + 1e-12) == 4
        assert snap_to_index(3.0 - 1e-12) == 3

    def test_rejects_between_points(self):
        with pytest.raises(GridError):
            snap_to_index(2.5)

    @pytest.mark.parametrize("pos", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_positions(self, pos):
        with pytest.raises(GridError):
            snap_to_index(pos)


class TestCsvRoundTrip:
    def test_round_trip_is_bitwise(self, tmp_path):
        f = on_unit_interval(1.0 / 64.0, lambda t: np.sin(t) + t**2)
        path = tmp_path / "curve.csv"
        write_grid_csv(path, f)
        g = read_grid_csv(path)
        assert g.step == f.step
        assert g.start == f.start
        assert np.array_equal(g.values, f.values)

    def test_nonuniform_spacing_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.5,2.0\n1.2,3.0\n")
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        # The first gap inconsistent with the average spacing is blamed
        # on its second row.
        assert exc.value.line == 3

    def test_non_finite_entry_after_a_blank_line_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n\n0,1\n0.5,nan\n1,2\n")
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        assert exc.value.line == 4

    def test_nonuniform_spacing_after_a_blank_line_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n\n0.5,2.0\n1.2,3.0\n")
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        assert exc.value.line == 4
        assert "gap 0.5 vs step 0.6" in str(exc.value)

    def test_decreasing_time_after_a_blank_line_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n\n1,0\n0,1\n")
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        assert exc.value.line == 4
        assert "strictly increasing" in str(exc.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val\n0.0,1.0\n0.5,2.0\n")
        with pytest.raises(ValidationError):
            read_grid_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.5,oops\n")
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        assert exc.value.line == 3

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,value\r\n0,1\r\n0.5,\xff\r\n1,3\r\n")
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        assert exc.value.source == path
        assert exc.value.line == 3
        assert "UTF-8" in str(exc.value)

    def test_quoted_cell_is_non_numeric(self, tmp_path):
        # csv.reader unwrapped quotes; the reader takes unquoted numbers only.
        path = tmp_path / "quoted.csv"
        path.write_text('t,value\n0,1\n"0.5",2\n1,3\n')
        with pytest.raises(ValidationError) as exc:
            read_grid_csv(path)
        assert exc.value.line == 3
        assert str(exc.value).endswith("""non-numeric entry ['"0.5"', '2']""")


# Edits of a well-formed curve text, each applied to line `k` of the
# data rows (taken modulo their number).
_CELL_WORDS = ["abc", "", "1.0.0", "0x1", "nan", "inf", "-inf", "Infinity", "-nan", "1e400", "1_000", " 1 "]


def _edit(rows: list[list[str]], kind: str, k: int, word: str, pad: str, step: float) -> None:
    if not rows:
        return
    k %= len(rows)
    row = rows[k]
    if kind == "drop":
        del rows[k]
    elif kind == "blank":
        rows.insert(k, [])
    elif kind == "space":
        rows.insert(k, [pad or " "])
    elif kind == "extra":
        row.append("1")
    elif kind == "missing" and row:
        row.pop()
    elif kind == "word" and row:
        row[k % len(row)] = word
    elif kind == "swap" and k + 1 < len(rows) and rows[k + 1] and row:
        row[0], rows[k + 1][0] = rows[k + 1][0], row[0]
    elif kind == "jitter" and row:
        try:
            row[0] = "%.17g" % (float(row[0]) + 0.01 * step)
        except ValueError:
            pass
    elif kind == "pad" and row:
        row[-1] = pad + row[-1] + pad
    elif kind == "move" and k + 1 < len(rows) and row:
        # Row k loses its comma and row k + 1 gains one: the total stays.
        rows[k + 1].insert(0, row.pop())


@st.composite
def curve_texts(draw):
    """A ``t,value`` CSV text, well formed or broken in a few places."""
    n = draw(st.integers(2, 6))
    start = draw(st.sampled_from([0.0, -0.5, 1.25]))
    step = draw(st.sampled_from([0.125, 0.1, 1.0 / 3.0]))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    rows = [["%.17g" % (start + k * step), "%.17g" % v] for k, v in enumerate(values)]
    edits = st.tuples(
        st.sampled_from(["drop", "blank", "space", "extra", "missing", "word", "swap", "jitter", "pad", "move"]),
        st.integers(0, 8),
        st.sampled_from(_CELL_WORDS),
        st.sampled_from(["", " ", "\t", "  "]),
    )
    for kind, k, word, pad in draw(st.lists(edits, max_size=3)):
        _edit(rows, kind, k, word, pad, step)
    header = draw(st.sampled_from(["t,value"] * 4 + [" t , value ", "t,value\t", "time,value", "t,value,x"]))
    lines = [header] + [",".join(row) for row in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def _outcome(read, path):
    try:
        g = read(path)
    except ValidationError as exc:
        return "error", str(exc), exc.line
    return "grid", g.start.hex(), g.step.hex(), g.values.tobytes()


class TestReaderMatchesCsvReader:
    @given(text=curve_texts())
    @settings(max_examples=250, deadline=None)
    def test_same_grid_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("curve") / "curve.csv"
        path.write_bytes(text.encode())
        assert _outcome(read_grid_csv, path) == _outcome(csv_reader_grid, path)


# Sample values that format in unusual ways: signed zero, subnormal,
# huge, non-finite.
_ODD_VALUES = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf]


@st.composite
def curve_sequences(draw):
    """Curves on up to three grids, interleaved, some longer than one block."""
    blocks = block_rows(2)
    grids = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.5, 1.25]),
                st.sampled_from([0.125, 0.1, 1.0 / 3.0]),
                st.one_of(st.integers(2, 40), st.integers(blocks - 2, 2 * blocks + 2)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    order = draw(st.lists(st.integers(0, len(grids) - 1), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    curves = []
    for g in order:
        start, step, n = grids[g]
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        values[rng.integers(0, n, 3)] = rng.choice(_ODD_VALUES, 3)
        curves.append(GridFunction(start, step, values))
    return curves


class TestWriterMatchesWriteCsv:
    @given(curves=curve_sequences())
    @settings(max_examples=25, deadline=None)
    def test_same_bytes(self, tmp_path_factory, curves):
        # Grids repeat and alternate, so a grid's times are formatted
        # afresh for some curves and reused for others.
        out = tmp_path_factory.mktemp("curves")
        for k, f in enumerate(curves):
            write_grid_csv(out / f"{k}.csv", f)
            write_csv_grid(out / f"{k}-ref.csv", f)
            assert (out / f"{k}.csv").read_bytes() == (out / f"{k}-ref.csv").read_bytes()
