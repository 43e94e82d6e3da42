"""CSV and JSON round trips, header validation, parse error reporting, and
the %.17g kernel of the CSV writers."""

import io
import json
import tracemalloc

import numpy as np
import pytest

import snspec.io
from snspec.errors import ConfigError
from snspec.io import (
    _SEP,
    _format17,
    read_json,
    read_spectrum_csv,
    write_json,
    write_scan_csv,
    write_spectrum_csv,
)
from snspec.scan import ScanGrid
from snspec.synthesis import Spectrum


def awkward_floats(n, seed=0):
    # values exercising the full mantissa, not round decimals
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(size=n) * 10)


def every_form(seed=0):
    """Values that take every branch of the text step, shuffled: exponents k
    from -8 to 19 (fixed notation for -4..16, e-05 and e-06, and the %
    fallback beyond), trailing zeros, negatives, signed zeros, non-finite
    values and subnormals."""
    mantissas = np.array([1.0, 1.5, 1.25, 2.0**-0.5, 9.999999999999999, 1 + 2.0**-52, 7.0])
    x = (mantissas[:, None] * 10.0 ** np.arange(-8, 20)).ravel()
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.225e-308, 1e17, 1e300]
    return np.random.default_rng(seed).permutation(np.concatenate([x, -x, special]))


def savetxt_bytes(header, columns):
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), fmt="%.17g", delimiter=",")
    return (header + "\n" + buf.getvalue()).encode()


def texts(x):
    """_format17 of x, one string per value."""
    rows = _format17(x)
    rows[..., _SEP] = ord(",")
    return rows.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def percent_texts(x):
    return ["%.17g" % v for v in np.asarray(x, dtype=float).ravel().tolist()]


def ties():
    """Doubles exactly half-way between two 17-digit decimals: m / 2^j with m
    odd has j digits after the point, the last a 5, so with j = 17 - k the
    value has 18 significant digits. k runs over the exact range."""
    out = []
    for k in range(-6, 16):
        j = 17 - k
        lo, hi = np.ceil(np.ldexp(10.0**k, j)), min(np.ldexp(10.0 ** (k + 1), j), 2.0**53)
        m = np.unique(np.linspace(lo, hi - 1, 60).astype(np.int64) | 1)
        out.append(np.ldexp(m[m < hi].astype(float), -j))
    return np.concatenate(out)


class TestFormat17:
    def test_edge_sweep_is_percent_format(self):
        powers = np.concatenate([10.0 ** np.arange(-8, 21), [float(f"1e{j}") for j in range(-8, 21)]])
        neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        # both ends of the exact range, 1e-6 < |x| < 1e17, with their neighbours
        ends = [1e-6, np.nextafter(1e-6, 1), np.nextafter(1e-6, 0), 1e17, np.nextafter(1e17, 0)]
        # NaN, NaN with its sign bit set, and two with a payload: all print nan
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001], np.uint64)
        x = np.concatenate([neighbours, ends, ties(), nans.view(float)])
        x = np.concatenate([x, -x])
        assert texts(x) == percent_texts(x)

    def test_every_float64_is_percent_format(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        bits = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
        values = st.floats() | st.floats(-1e17, 1e17) | bits

        @hypothesis.settings(deadline=None, derandomize=True, database=None, max_examples=300)
        @hypothesis.given(st.lists(values, min_size=1, max_size=64))
        def check(x):
            assert texts(x) == percent_texts(x)

        check()

    def test_group_tables_hold_every_group_of_four_digits(self):
        # every entry against the text and last-digit rule of its digits: a
        # wrong entry can hide from sampled values
        words, last = snspec.io._group_tables()
        groups = ["%04d" % p for p in range(10**4)]
        assert words.tobytes() == "".join(".%s.%s.%s.%s" % tuple(s) for s in groups).encode()
        for g in range(4):  # group g holds digits 4g+1..4g+4
            want_last = [4 * g + len(s.rstrip("0")) if s != "0000" else 0 for s in groups]
            assert last[g * 10**4 : (g + 1) * 10**4].tolist() == want_last


class TestSpectrumCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "sp.csv"
        nu = 2.0 * np.arange(1, 50)
        sp = Spectrum(nu=nu, s_bar=awkward_floats(49))
        write_spectrum_csv(path, sp)
        back = read_spectrum_csv(path)
        assert isinstance(back, Spectrum)
        np.testing.assert_array_equal(back.nu, sp.nu)
        np.testing.assert_array_equal(back.s_bar, sp.s_bar)
        assert back.n_eff == 1

    def test_bytes_are_savetxt_under_the_header(self, tmp_path, monkeypatch):
        # nu from 7e-7 to 2.9e-4 crosses the e-06/e-05 forms into fixed
        # notation; s_bar takes every form that a spectrum may hold. The
        # bytes are the same in one block and in blocks of 7 rows.
        s_bar = np.abs(every_form(seed=1))
        s_bar = s_bar[np.isfinite(s_bar)]
        s_bar[:2] = 0.0, -0.0
        sp = Spectrum(nu=7e-7 * np.arange(1, s_bar.size + 1), s_bar=s_bar)
        path = tmp_path / "sp.csv"
        for block_rows in (4096, 7):
            monkeypatch.setattr(snspec.io, "_BLOCK_ROWS", block_rows)
            write_spectrum_csv(path, sp)
            assert path.read_bytes() == savetxt_bytes("nu_hz,psd_uv2_per_hz", [sp.nu, sp.s_bar])

    def test_header_line(self, tmp_path):
        path = tmp_path / "sp.csv"
        write_spectrum_csv(path, Spectrum(nu=np.array([1.0, 2.0]), s_bar=np.ones(2)))
        assert path.read_text().splitlines()[0] == "nu_hz,psd_uv2_per_hz"

    def test_averaged_round_trip(self, tmp_path):
        path = tmp_path / "sp.csv"
        sp = Spectrum(nu=np.arange(1.0, 9.0), s_bar=awkward_floats(8), n_eff=50)
        write_spectrum_csv(path, sp)
        back = read_spectrum_csv(path, n_eff=50)
        assert isinstance(back, Spectrum)
        assert back.n_eff == 50
        np.testing.assert_array_equal(back.s_bar, sp.s_bar)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,psd\n1,2\n")
        with pytest.raises(ConfigError):
            read_spectrum_csv(path)

    def test_rejects_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nu_hz,psd_uv2_per_hz\n1.0,two\n")
        with pytest.raises(ConfigError):
            read_spectrum_csv(path)

    @pytest.mark.parametrize(
        "body",
        ["1,2\n\n3,4\n", "1,2\r\n\r\n3,4\r\n", "\n1,2\n3,4\n", "1,2\n3,4\n\n"],
        ids=["between-rows", "between-crlf-rows", "after-header", "after-last-row"],
    )
    def test_rejects_blank_line(self, tmp_path, body):
        # csv reads a blank line as a row with no fields: a ragged file
        path = tmp_path / "bad.csv"
        path.write_bytes(("nu_hz,psd_uv2_per_hz\n" + body).encode())
        with pytest.raises(ConfigError, match="blank line"):
            read_spectrum_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            read_spectrum_csv(path)
        path.write_text("nu_hz,psd_uv2_per_hz\n")
        with pytest.raises(ConfigError):
            read_spectrum_csv(path)


class TestScanCsv:
    def make_grid(self):
        surfaces = awkward_floats(4 * 3 * 5, seed=3).reshape(4, 3, 5)
        surfaces[2, 1, 1] = np.nan  # singular cell survives the trip
        return ScanGrid(
            n_values=np.array([1e12, 5e12, 2e13]),
            p_values=np.linspace(1e-3, 9e-3, 5),
            xi2=1.0,
            surfaces=surfaces,
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "scan.csv"
        sg = self.make_grid()
        write_scan_csv(path, sg)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        n, p = np.meshgrid(sg.n_values, sg.p_values, indexing="ij")
        np.testing.assert_array_equal(data[:, 0], n.ravel())
        np.testing.assert_array_equal(data[:, 1], p.ravel())
        np.testing.assert_array_equal(data[:, 2:].T, sg.surfaces.reshape(4, -1))

    def test_bytes_are_savetxt_under_the_header(self, tmp_path, monkeypatch):
        # awkward axis values, and among the cells every form of the text
        # step, with NaN, infinities, signed zeros and subnormals; the bytes
        # are the same in one block and in blocks of 7 rows
        forms = every_form(seed=4)
        surfaces = np.concatenate([forms, awkward_floats(4 * 11 * 10 - forms.size, seed=4)]).reshape(4, 11, 10)
        sg = ScanGrid(
            n_values=np.sort(awkward_floats(11, seed=5)),
            p_values=np.sort(awkward_floats(10, seed=6)),
            xi2=0.55,
            surfaces=surfaces,
        )
        n, p = np.meshgrid(sg.n_values, sg.p_values, indexing="ij")
        columns = [n.ravel(), p.ravel(), *surfaces.reshape(4, -1)]
        path = tmp_path / "scan.csv"
        for block_rows in (4096, 7):
            monkeypatch.setattr(snspec.io, "_BLOCK_ROWS", block_rows)
            write_scan_csv(path, sg)
            assert path.read_bytes() == savetxt_bytes("n_cm3,p_w,gamma11,gamma22,gamma33,gamma44", columns)

    def test_peak_memory_is_one_block(self, tmp_path):
        # numpy reports its buffers to tracemalloc. A 256 x 1024 grid written
        # in blocks of 4096 rows peaks at 5.3 MiB; the writer that built the
        # whole text from a tuple of every value peaked at 110.5 MiB.
        rng = np.random.default_rng(7)
        sg = ScanGrid(
            n_values=np.geomspace(1e12, 2e13, 256),
            p_values=np.geomspace(5e-4, 1.5e-2, 1024),
            xi2=1.0,
            surfaces=np.exp(rng.normal(size=(4, 256, 1024)) * 10),
        )
        tracemalloc.start()
        try:
            write_scan_csv(tmp_path / "scan.csv", sg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan_csv(path, self.make_grid())
        lines = path.read_text().splitlines()
        assert lines[0] == "n_cm3,p_w,gamma11,gamma22,gamma33,gamma44"
        assert len(lines) == 1 + 3 * 5


class TestJson:
    def test_write_is_stable_and_sorted(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"b": 2, "a": [1.5, None], "c": {"y": False}})
        text = path.read_text()
        assert text.endswith("\n")
        assert "\r" not in text
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert json.loads(text) == {"b": 2, "a": [1.5, None], "c": {"y": False}}

    def test_non_finite_floats_are_null(self, tmp_path):
        # RFC 8259 JSON has no NaN or Infinity; finite values keep json.dump's bytes
        path = tmp_path / "r.json"
        finite = {"a": [1.5, 1e-300, np.float64(0.1)], "b": {"c": (2, -3.25)}, "d": "NaN"}
        write_json(path, finite)
        assert path.read_text() == json.dumps(finite, indent=2, sort_keys=True) + "\n"
        write_json(path, {"a": [np.nan, -np.inf, 1.0], "b": {"c": (np.float64(np.inf),)}})

        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc == {"a": [None, None, 1.0], "b": {"c": [None]}}

    def test_array_is_written_as_its_lists(self, tmp_path):
        # only write_json turns numpy into JSON; non-finite entries become null
        grid = np.array([[1.5, np.nan], [np.inf, -np.inf], [0.1, -2.0]])
        write_json(tmp_path / "array.json", {"m": grid, "v": grid[0]})
        write_json(tmp_path / "lists.json", {"m": grid.tolist(), "v": grid[0].tolist()})
        assert (tmp_path / "array.json").read_bytes() == (tmp_path / "lists.json").read_bytes()
        assert json.loads((tmp_path / "array.json").read_text())["m"] == [[1.5, None], [None, None], [0.1, -2.0]]

    def test_read_back(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"x": 1})
        assert read_json(path) == {"x": 1}

    def test_syntax_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "a": 1,\n}\n')
        with pytest.raises(ConfigError, match=r":3:1"):
            read_json(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError):
            read_json(path)
