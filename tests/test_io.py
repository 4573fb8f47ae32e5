import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import synfocus.io
from synfocus.core import Grid, KernelMatrix, ScalarField
from synfocus.io import save_field_csv, save_kernel_csv, save_metrics, save_pgm, save_table_csv

from conftest import centered_grid, csv_header, read_csv, read_metrics, read_pgm


class TestFieldCsv:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        g = Grid(origin=(-0.3, 0.1), spacing=(0.017, 0.093), counts=(7, 5))
        f = ScalarField(grid=g, values=rng.standard_normal(35))
        p = tmp_path / "f.csv"
        save_field_csv(p, f)
        header, back = read_csv(p)
        assert back.shape == (35, 1)
        assert np.array_equal(back[:, 0], f.values)
        assert header["grid"] == "dim=2 origin=-0.3,0.1 spacing=0.017,0.093 counts=7,5"

    def test_irrational_values_survive(self, tmp_path):
        g = centered_grid(2, 2)
        f = ScalarField(grid=g, values=np.array([np.pi, 1.0 / 3.0, np.e, 2.0**-52]))
        p = tmp_path / "f.csv"
        save_field_csv(p, f)
        assert np.array_equal(read_csv(p)[1][:, 0], f.values)

    def test_deterministic_bytes(self, tmp_path, rng):
        g = centered_grid(4, 2)
        f = ScalarField(grid=g, values=rng.standard_normal(16))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_field_csv(p1, f)
        save_field_csv(p2, f)
        assert p1.read_bytes() == p2.read_bytes()


class TestKernelCsv:
    def test_roundtrip_and_header(self, tmp_path, rng):
        g = centered_grid(3, 2)
        k = KernelMatrix(grid=g, values=rng.standard_normal((4, 9)))
        p = tmp_path / "k.csv"
        save_kernel_csv(p, k)
        text = p.read_text()
        assert "# electrodes: 4" in text
        assert "# grid:" in text
        assert "# units:" in text
        header, back = read_csv(p)
        assert np.array_equal(back, k.values)
        assert header["grid"].split()[-1] == "counts=3,3"
        assert header["electrodes"] == "4"


class TestTableCsv:
    def test_real_roundtrip(self, tmp_path, rng):
        vals = rng.standard_normal((3, 5))
        axes = [("time", np.linspace(0.1, 0.5, 5))]
        p = tmp_path / "t.csv"
        save_table_csv(p, ["note line"], axes, vals)
        header, back = read_csv(p)
        assert np.array_equal(back, vals)
        assert header["axis time"] == "0.1,0.2,0.30000000000000004,0.4,0.5"
        assert (header["shape"], header["dtype"]) == ("3,5", "real")

    def test_complex_roundtrip(self, tmp_path, rng):
        vals = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        p = tmp_path / "c.csv"
        save_table_csv(p, [], [("freq", np.array([1.0, 2.0, 3.0, 4.0]))], vals)
        header, back = read_csv(p)
        assert header["dtype"] == "complex"
        assert header["axis freq"] == "1.0,2.0,3.0,4.0"
        assert back.dtype.kind == "c"
        assert np.array_equal(back, vals)

    def test_3d_shape_restored(self, tmp_path, rng):
        vals = rng.standard_normal((2, 3, 4))
        p = tmp_path / "t3.csv"
        save_table_csv(p, [], [], vals)
        header, back = read_csv(p)
        assert header["shape"] == "2,3,4"
        assert back.shape == (2, 3, 4)
        assert np.array_equal(back, vals)


def _edge_values():
    """Signed zeros, infinities, nan, the extreme doubles, the powers of ten
    from 1e-40 to 1e40 with their neighbours, and the four doubles below
    each, the nearest of which a 15-digit format rounds up to the next
    decade."""
    vals = [0.0, np.inf, np.nan, 5e-324, sys.float_info.min, sys.float_info.max]
    for k in range(-40, 41):
        p = float(f"1e{k}")
        vals += [p, np.nextafter(p, np.inf)]
        for _ in range(4):
            p = np.nextafter(p, 0.0)
            vals.append(p)
    vals = np.array(vals)
    return np.concatenate([vals, -vals])


@pytest.fixture(scope="module")
def patterns():
    """2**20 random 64-bit patterns and their '%.16e' texts.  Every other
    pattern gets a binary exponent in [-40, 150], so the decimal exponents
    also cover -6..16, which the writer formats in numpy (io._digits), and
    both sides of that range."""
    bits = np.random.default_rng(12).integers(0, 2**64, size=2**20, dtype=np.uint64)
    exponent = np.random.default_rng(13).integers(1023 - 40, 1023 + 150, size=2**19,
                                                  dtype=np.uint64)
    bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    values = bits.view(np.float64)
    return values, np.array(["%.16e" % v for v in values.tolist()], dtype=object)


def _value_lines(path):
    return [line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith("#")]


def _assert_value_lines(path, texts, cols):
    """The file's value lines are ``",".join('%.16e' % v ...)`` of `texts`
    in rows of `cols`; a mismatch names the first differing line only."""
    got = _value_lines(path)
    want = [",".join(row) + "\n" for row in np.asarray(texts, dtype=object).reshape(-1, cols)]
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"{len(got)} value lines for {len(want)}; line {i} is "
                    f"{got[i:i + 1]!r:.300} instead of {want[i:i + 1]!r:.300}")


def _assert_same_bits(back, values):
    """Bit-identical, except that every nan reads back as the default nan."""
    back = np.asarray(back).reshape(-1).view(np.float64)
    values = np.asarray(values).reshape(-1).view(np.float64)
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.uint64), values[~nan].view(np.uint64))


class TestValueFormat:
    """Every CSV value is written as '%.16e' % v, byte for byte."""

    def test_table_of_random_patterns(self, tmp_path, patterns):
        values, texts = patterns
        p = tmp_path / "t.csv"
        save_table_csv(p, [], [], values.reshape(-1, 128))
        _assert_value_lines(p, texts, 128)
        _assert_same_bits(read_csv(p)[1], values)

    def test_each_writer(self, tmp_path, patterns):
        """The other writers on 2**16 of the patterns: complex and 3-d
        tables, a kernel and a field (these two hold finite values only)."""
        values, texts = patterns[0][:2**16], patterns[1][:2**16]
        for name, table in (("complex", values.view(complex).reshape(-1, 64)),
                            ("3d", values.reshape(-1, 16, 128))):
            p = tmp_path / f"{name}.csv"
            save_table_csv(p, [], [], table)
            _assert_value_lines(p, texts, 128)
            _, back = read_csv(p)
            assert back.shape == table.shape and back.dtype == table.dtype
            _assert_same_bits(back, table)
        finite = np.isfinite(values)
        values, texts = values[finite][:64**2 * 8], texts[finite][:64**2 * 8]
        kernel = KernelMatrix(grid=centered_grid(64, 2), values=values.reshape(8, -1))
        save_kernel_csv(tmp_path / "k.csv", kernel)
        _assert_value_lines(tmp_path / "k.csv", texts, 64**2)
        _assert_same_bits(read_csv(tmp_path / "k.csv")[1], kernel.values)
        field = ScalarField(grid=centered_grid(32, 3), values=values[:32**3])
        save_field_csv(tmp_path / "f.csv", field)
        _assert_value_lines(tmp_path / "f.csv", texts[:32**3], 1)
        _assert_same_bits(read_csv(tmp_path / "f.csv")[1], field.values)

    def test_edge_values(self, tmp_path):
        vals = _edge_values()
        texts = ["%.16e" % v for v in vals.tolist()]
        p = tmp_path / "e.csv"
        save_table_csv(p, [], [], vals.reshape(2, -1))
        _assert_value_lines(p, texts, vals.size // 2)
        _assert_same_bits(read_csv(p)[1], vals)
        save_table_csv(p, [], [], vals.view(complex))
        _assert_value_lines(p, texts, vals.size)
        _assert_same_bits(read_csv(p)[1], vals)
        finite = vals[np.isfinite(vals)][:8 * 64]
        save_kernel_csv(p, KernelMatrix(grid=centered_grid(8, 2), values=finite.reshape(8, 64)))
        _assert_value_lines(p, ["%.16e" % v for v in finite.tolist()], 64)
        save_field_csv(p, ScalarField(grid=centered_grid(8, 2), values=finite[:64]))
        _assert_value_lines(p, ["%.16e" % v for v in finite[:64].tolist()], 1)

    def test_rows_wider_than_a_block(self, tmp_path, patterns):
        values, texts = patterns
        cols = synfocus.io._BLOCK + 3
        p = tmp_path / "w.csv"
        save_table_csv(p, [], [], values[:3 * cols].reshape(3, cols))
        _assert_value_lines(p, texts[:3 * cols], cols)

    def test_exact_ties_and_the_edges_of_the_fast_range(self, tmp_path):
        """Values whose 17-digit product x * 10**(16 - e) lies exactly on a
        half, 1 + (2j+1) * 2**-17 and odd m * 2**-(17 - e) in every decade
        e = -6..15, and the 64 doubles on each side of 1e-07, 1e-06, 1e16
        and 1e17, where the decimal exponent leaves -6..16 (1e-06 itself
        is a little below 10**-6)."""
        rng = np.random.default_rng(5)
        ties = [1 + (2 * j + 1) * 2.0**-17 for j in range(256)]
        for e in range(-6, 16):
            q = 17 - e
            lo = math.ceil(Fraction(10)**e * 2**q)
            hi = min(math.floor(Fraction(10)**(e + 1) * 2**q), 2**53)
            ties += [math.ldexp(m | 1, -q) for m in rng.integers(lo, hi - 1, 64).tolist()]
        for x in ties:
            e = math.floor(math.log10(x))
            assert (Fraction(x) * Fraction(10)**(16 - e)).denominator == 2
        edges = []
        for power in (1e-7, 1e-6, 1e16, 1e17):
            below = above = power
            for _ in range(64):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                edges += [below, above]
            edges.append(power)
        vals = np.array(ties + edges)
        vals = np.concatenate([vals, -vals])
        p = tmp_path / "t.csv"
        save_table_csv(p, [], [], vals.reshape(-1, 2))
        _assert_value_lines(p, ["%.16e" % v for v in vals.tolist()], 2)
        _assert_same_bits(read_csv(p)[1], vals)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (2, 0, 4), (4, 2, 0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_tables(self, tmp_path, shape, dtype):
        vals = np.zeros(shape, dtype=dtype)
        p = tmp_path / "z.csv"
        save_table_csv(p, [], [], vals)
        rows = int(np.prod(shape[:-1]))
        assert _value_lines(p) == (["\n"] * rows if shape[-1] == 0 else [])
        assert csv_header(p) == {"shape": ",".join(str(n) for n in shape),
                                 "dtype": "complex" if vals.dtype.kind == "c" else "real"}


class TestPgm:
    def test_header_and_orientation(self, tmp_path):
        g = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), counts=(3, 2))
        # value grows with y: top row of the image must be the bright one
        vals = g.mesh()[1].reshape(-1)
        save_pgm(tmp_path / "img.pgm", ScalarField(grid=g, values=vals))
        header, pix = read_pgm(tmp_path / "img.pgm")
        assert header == ["P2", "# min=0.0 max=1.0", "3 2", "255"]
        assert pix.shape == (2, 3)
        assert np.all(pix[0] == 255) and np.all(pix[1] == 0)

    def test_3d_exports_middle_slice(self, tmp_path):
        g = centered_grid(4, 3)
        vals = np.full((4, 4, 4), 100.0)  # off-slice values must not leak in
        vals[2] = np.arange(16.0).reshape(4, 4)  # middle z slice (counts // 2)
        f = ScalarField(grid=g, values=vals.reshape(-1))
        save_pgm(tmp_path / "v.pgm", f)
        header, pix = read_pgm(tmp_path / "v.pgm")
        assert pix.shape == (4, 4)
        assert header[1] == "# min=0.0 max=15.0"  # scale comes from the slice alone
        assert pix[-1, 0] == 0 and pix[0, -1] == 255  # y flipped, x kept

    def test_constant_field_is_finite(self, tmp_path):
        g = centered_grid(3, 2)
        save_pgm(tmp_path / "c.pgm", ScalarField(grid=g, values=np.full(9, 2.5)))
        header, pix = read_pgm(tmp_path / "c.pgm")
        assert header[1] == "# min=2.5 max=2.5"
        assert pix.shape == (3, 3) and np.all(pix == 0)


class TestMetrics:
    def test_roundtrip(self, tmp_path):
        # a numpy float (a config's noise may be one) is written as a plain float
        m = {"kernel_error": 0.04837291017, "config_noise": np.float64(0.01),
             "n_pixels": 1024, "status": "ok"}
        p = tmp_path / "metrics.txt"
        save_metrics(p, m)
        back = read_metrics(tmp_path)
        assert float(back["kernel_error"]) == m["kernel_error"]
        assert back["config_noise"] == "0.01"
        assert int(back["n_pixels"]) == 1024
        assert back["status"] == "ok"
