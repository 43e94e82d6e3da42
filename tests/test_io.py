"""CSV and JSON round trips, header validation, parse error reporting."""

import io
import json

import numpy as np
import pytest

from snspec.errors import ConfigError
from snspec.io import (
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

    def test_bytes_are_savetxt_under_the_header(self, tmp_path):
        # awkward axis values, and a NaN, an inf and a subnormal among the cells
        surfaces = awkward_floats(4 * 7 * 6, seed=4).reshape(4, 7, 6)
        surfaces[0, 2, 3], surfaces[1, 6, 0], surfaces[3, 0, 5] = np.nan, np.inf, 5e-324
        sg = ScanGrid(
            n_values=np.sort(awkward_floats(7, seed=5)),
            p_values=np.sort(awkward_floats(6, seed=6)),
            xi2=0.55,
            surfaces=surfaces,
        )
        path = tmp_path / "scan.csv"
        write_scan_csv(path, sg)
        n, p = np.meshgrid(sg.n_values, sg.p_values, indexing="ij")
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([n.ravel(), p.ravel(), *surfaces.reshape(4, -1)]), fmt="%.17g", delimiter=",")
        assert path.read_bytes() == ("n_cm3,p_w,gamma11,gamma22,gamma33,gamma44\n" + buf.getvalue()).encode()

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
