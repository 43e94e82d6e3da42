"""Command-line interface: exit codes, file outputs, determinism.

All commands run in-process through main(argv), so exit codes and files are
checked without subprocess overhead.
"""

import copy
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import snspec
from snspec.cli import main
from snspec.fisher import wishart_std
from snspec.io import read_scan_csv, read_spectrum_csv
from snspec.profiles import REFERENCE_ACQUISITION, REFERENCE_INSTRUMENT
from snspec.scan import scan_grid

TRUTH = {"s_ph": 1.0, "nu_l": 42600.0, "s_at": 4.0, "delta_nu": 1000.0}

BASE = {
    "model": {
        "spectral_params": {
            "s_ph_uv2_per_hz": TRUTH["s_ph"],
            "nu_l_hz": TRUTH["nu_l"],
            "s_at_uv2_per_hz": TRUTH["s_at"],
            "delta_nu_hz": TRUTH["delta_nu"],
        }
    },
    "acquisition": {
        "delta_s": 5e-6,
        "t_total_s": 0.5,
        "n_bin": 50,
        "fit_lo_hz": 33000.0,
        "fit_hi_hz": 52000.0,
    },
    "monte_carlo": {"n_trials": 6, "master_seed": 0, "synthesis": "gamma"},
}

SCAN = {
    "model": {
        "conditions": {"n_per_cm3": 4.23e12, "p_mw": 2.0},
        "instrument": "reference",
    },
    "acquisition": BASE["acquisition"],
    "scan": {
        "n_min_per_cm3": 2e12,
        "n_max_per_cm3": 1.6e13,
        "n_points": 6,
        "p_min_mw": 1.0,
        "p_max_mw": 12.0,
        "p_points": 5,
    },
}


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def nan_bin(rows):
    rows[400][1] = "nan"  # bin 400 is centred at 40051 Hz, inside the fit window


def negate_psd(rows):
    for row in rows:
        row[1] = "-" + row[1]


def test_import_does_not_load_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(snspec.__file__)))
    code = "import sys, snspec.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestSynth:
    def test_writes_both_formats(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("synth", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "nu_hz,psd_uv2_per_hz"
        assert len(lines) == 1 + 999  # 49999 raw bins // 50
        doc = json.loads((tmp_path / "a" / "spectrum.json").read_text())
        assert doc["n_eff"] == 50
        assert len(doc["nu_hz"]) == 999
        assert doc["config"] == BASE

    def test_seed_determinism(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        run("synth", "--config", cfg, "--out", tmp_path / "a")
        run("synth", "--config", cfg, "--out", tmp_path / "b")
        assert (tmp_path / "a" / "spectrum.csv").read_bytes() == (
            tmp_path / "b" / "spectrum.csv"
        ).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        run("synth", "--config", cfg, "--out", tmp_path / "a")
        run("synth", "--config", cfg, "--seed", 1, "--out", tmp_path / "b")
        assert (tmp_path / "a" / "spectrum.csv").read_bytes() != (
            tmp_path / "b" / "spectrum.csv"
        ).read_bytes()

    def test_remainder_bins_dropped(self, tmp_path):
        body = copy.deepcopy(BASE)
        body["acquisition"] = {
            "delta_s": 5e-4,
            "t_total_s": 0.5,
            "n_bin": 50,
            "fit_lo_hz": 100.0,
            "fit_hi_hz": 900.0,
        }
        cfg = write_config(tmp_path, body)
        assert run("synth", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 1 + 499 // 50


class TestFit:
    def synth_then_fit(self, tmp_path, spectrum_name):
        cfg = write_config(tmp_path, BASE)
        assert run("synth", "--config", cfg, "--out", tmp_path) == 0
        out = tmp_path / ("fit_" + spectrum_name.split(".")[-1])
        assert run("fit", tmp_path / spectrum_name, "--config", cfg, "--out", out) == 0
        return json.loads((out / "fit.json").read_text())

    def test_recovers_parameters_from_csv(self, tmp_path):
        doc = self.synth_then_fit(tmp_path, "spectrum.csv")
        assert doc["converged"] is True
        assert doc["s_ph_uv2_per_hz"] == pytest.approx(TRUTH["s_ph"], rel=0.15)
        assert doc["nu_l_hz"] == pytest.approx(TRUTH["nu_l"], abs=150.0)
        assert doc["s_at_uv2_per_hz"] == pytest.approx(TRUTH["s_at"], rel=0.2)
        assert doc["delta_nu_hz"] == pytest.approx(TRUTH["delta_nu"], rel=0.3)
        assert doc["window_hz"] == [33000.0, 52000.0]
        assert doc["config"] == BASE

    def test_csv_and_json_inputs_agree_exactly(self, tmp_path):
        a = self.synth_then_fit(tmp_path, "spectrum.csv")
        b = self.synth_then_fit(tmp_path, "spectrum.json")
        for key in ("s_ph_uv2_per_hz", "nu_l_hz", "s_at_uv2_per_hz", "delta_nu_hz", "chi2"):
            assert a[key] == b[key], key

    @pytest.mark.parametrize(
        "fmt, spoil",
        [
            ("csv", nan_bin),
            ("csv", negate_psd),
            ("json", {"n_eff": "abc"}),
            ("json", {"n_eff": 1.5}),
            ("json", {"nu_hz": "x"}),
            ("json", {"nu_hz": [10**400]}),  # an integer no float can hold
        ],
        ids=["csv-nan", "csv-negated", "json-n_eff-text", "json-n_eff-fraction", "json-nu-text",
             "json-nu-overflow"],
    )
    def test_malformed_spectrum_exits_config(self, tmp_path, capsys, fmt, spoil):
        cfg = write_config(tmp_path, BASE)
        assert run("synth", "--config", cfg, "--out", tmp_path) == 0
        path = tmp_path / f"spectrum.{fmt}"
        if fmt == "csv":
            header, *lines = path.read_text().splitlines()
            rows = [line.split(",") for line in lines]
            spoil(rows)
            path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
        else:
            doc = json.loads(path.read_text())
            doc.update(spoil)
            path.write_text(json.dumps(doc))
        assert run("fit", path, "--config", cfg, "--out", tmp_path / "fit") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_spectrum_file(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("fit", tmp_path / "absent.csv", "--config", cfg) == 3


class TestValidate:
    def test_report_file(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 0
        doc = json.loads((tmp_path / "v" / "validate.json").read_text())
        for key in ("gamma_exp", "gamma_th", "sigma_th", "deviation"):
            m = np.array(doc[key])
            assert m.shape == (4, 4)
            assert np.all(np.isfinite(m))
        assert doc["n_trials"] == 6
        assert doc["synthesis"] == "gamma"
        assert doc["master_seed_used"] == 0
        assert doc["max_deviation"] < 30.0  # 6 trials only, loose sanity

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_rerun_writes_identical_bytes(self, tmp_path, route):
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["synthesis"] = route
        cfg = write_config(tmp_path, body)
        for out in ("a", "b"):
            assert run("validate", "--config", cfg, "--seed", 4, "--out", tmp_path / out) == 0
        assert (tmp_path / "a" / "validate.json").read_bytes() == (tmp_path / "b" / "validate.json").read_bytes()

    def test_seed_changes_scatter_not_theory(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        run("validate", "--config", cfg, "--seed", 1, "--out", tmp_path / "a")
        run("validate", "--config", cfg, "--seed", 2, "--out", tmp_path / "b")
        a = json.loads((tmp_path / "a" / "validate.json").read_text())
        b = json.loads((tmp_path / "b" / "validate.json").read_text())
        assert a["gamma_exp"] != b["gamma_exp"]
        assert a["gamma_th"] == b["gamma_th"]
        assert a["master_seed_used"] == 1

    def test_thread_flag_keeps_bits(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        run("validate", "--config", cfg, "--out", tmp_path / "a")
        run("validate", "--config", cfg, "--threads", 3, "--out", tmp_path / "b")
        a = json.loads((tmp_path / "a" / "validate.json").read_text())
        b = json.loads((tmp_path / "b" / "validate.json").read_text())
        assert a["gamma_exp"] == b["gamma_exp"]
        assert b["threads_used"] == 3

    def test_weak_line_overflow_counts_a_failure(self, tmp_path):
        # trial 94 of the first 100 gamma-route fits at seed 0 is still
        # going at the step limit; its fit reports converged=False and the
        # run counts it instead of aborting
        body = copy.deepcopy(BASE)
        body["model"]["spectral_params"]["s_at_uv2_per_hz"] = 0.05
        body["monte_carlo"]["n_trials"] = 100
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--seed", 0, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["n_trials"] == 100
        assert doc["n_failures"] >= 1

    def test_singular_bound_exits_before_fitting(self, tmp_path, capsys):
        body = copy.deepcopy(BASE)
        body["model"]["spectral_params"]["s_at_uv2_per_hz"] = 0.0
        body["monte_carlo"]["n_trials"] = 5
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 4
        assert "singular" in capsys.readouterr().err
        assert not (tmp_path / "v" / "validate.json").exists()

    def test_zero_threads_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("validate", "--config", cfg, "--threads", 0) == 2


class TestCrb:
    def test_internally_consistent_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("crb", "--config", cfg, "--out", tmp_path / "a") == 0
        assert run("crb", "--config", cfg, "--out", tmp_path / "b") == 0
        text = (tmp_path / "a" / "crb.json").read_text()
        assert text == (tmp_path / "b" / "crb.json").read_text()
        doc = json.loads(text)
        gamma = np.array(doc["gamma_th"])
        assert np.all(np.diag(gamma) > 0)
        np.testing.assert_allclose(
            np.array(doc["sigma_th"]),
            wishart_std(gamma, doc["sigma_n_samples"]),
            rtol=1e-12,
        )
        assert doc["method"] == "integral"
        assert doc["nu_t_hz"] == 100.0

    def test_singular_model_exits_numerical(self, tmp_path):
        body = copy.deepcopy(BASE)
        body["model"]["spectral_params"]["s_at_uv2_per_hz"] = 0.0
        cfg = write_config(tmp_path, body)
        assert run("crb", "--config", cfg) == 4

    def test_forward_model_overflow_exits_numerical(self, tmp_path, capsys):
        # the photocurrent squared overflows; the forward model names the
        # conditions it cannot map, without a numpy warning
        body = copy.deepcopy(SCAN)
        del body["scan"]
        body["model"]["conditions"]["p_mw"] = 1e200
        cfg = write_config(tmp_path, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("crb", "--config", cfg, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: forward model leaves the finite range")
        assert "P = 1e+197 W" in err and "n = 4230000000000.0" in err

    def test_single_trial_is_a_config_error(self, tmp_path, capsys):
        # the Wishart spread of the bound needs at least 2 samples
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["n_trials"] = 1
        assert run("crb", "--config", write_config(tmp_path, body)) == 2
        assert "n_trials" in capsys.readouterr().err


class TestScan:
    def test_outputs_and_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, SCAN)
        assert run("scan", "--config", cfg, "--out", tmp_path / "s") == 0
        lines = (tmp_path / "s" / "scan.csv").read_text().splitlines()
        assert lines[0] == "n_cm3,p_w,gamma11,gamma22,gamma33,gamma44"
        assert len(lines) == 1 + 6 * 5
        n_values, p_values, surfaces = read_scan_csv(tmp_path / "s" / "scan.csv")
        # the config layer builds the power axis in mW and then converts
        ref = scan_grid(
            np.linspace(2e12, 1.6e13, 6),
            np.linspace(1.0, 12.0, 5) * 1e-3,
            REFERENCE_INSTRUMENT,
            REFERENCE_ACQUISITION,
        )
        np.testing.assert_array_equal(n_values, np.linspace(2e12, 1.6e13, 6))
        np.testing.assert_array_equal(p_values, np.linspace(1.0, 12.0, 5) * 1e-3)
        np.testing.assert_array_equal(surfaces, ref.surfaces)
        optima = json.loads((tmp_path / "s" / "optima.json").read_text())["optima"]
        assert set(optima) == {"gamma11", "gamma22", "gamma33", "gamma44"}
        for entry in optima.values():
            assert entry["gamma_min"] > 0
            assert isinstance(entry["interior"], bool)

    def test_requires_conditions_model(self, tmp_path):
        body = copy.deepcopy(BASE)
        body["scan"] = SCAN["scan"]
        cfg = write_config(tmp_path, body)
        assert run("scan", "--config", cfg) == 2

    def test_requires_scan_section(self, tmp_path):
        body = copy.deepcopy(SCAN)
        del body["scan"]
        cfg = write_config(tmp_path, body)
        assert run("scan", "--config", cfg) == 2

    def test_out_of_range_grid_exits_config(self, tmp_path, capsys):
        body = copy.deepcopy(SCAN)
        body["scan"]["p_min_mw"] = 0.0
        cfg = write_config(tmp_path, body)
        assert run("scan", "--config", cfg, "--out", tmp_path / "s") == 2
        assert "config.scan" in capsys.readouterr().err
        assert not (tmp_path / "s" / "scan.csv").exists()


class TestKstats:
    def test_known_sample(self, tmp_path, capsys):
        sample = tmp_path / "x.txt"
        sample.write_text("1\n2\n3\n4\n")
        assert run("kstats", sample, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "kstats.json").read_text())
        assert doc["n_samples"] == 4
        assert doc["k2"] == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert doc["k4"] == pytest.approx(-10.0 / 3.0, rel=1e-12)
        assert doc["var_k2"] == pytest.approx(11.0 / 18.0, rel=1e-12)
        assert "k2=" in capsys.readouterr().out

    def test_too_few_values(self, tmp_path, capsys):
        sample = tmp_path / "x.txt"
        sample.write_text("1\n2\n3\n")
        assert run("kstats", sample, "--out", tmp_path) == 2
        assert "at least 4" in capsys.readouterr().err

    def test_non_numeric(self, tmp_path):
        sample = tmp_path / "x.txt"
        sample.write_text("1\nbanana\n3\n4\n")
        assert run("kstats", sample, "--out", tmp_path) == 2

    def test_two_columns(self, tmp_path, capsys):
        sample = tmp_path / "x.txt"
        sample.write_text("1 2\n3 4\n5 6\n7 8\n")
        assert run("kstats", sample, "--out", tmp_path) == 2
        assert "expected one value per line" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert run("synth", "--config", tmp_path / "none.json") == 3

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        # UnicodeDecodeError is a ValueError, yet not a numerical failure
        cfg = write_config(tmp_path, BASE)
        for name in ("binary.json", "binary.csv"):
            (tmp_path / name).write_bytes(b"\xff\xfe\x00{")
            assert run("fit", tmp_path / name, "--config", cfg) == 2
        assert run("synth", "--config", tmp_path / "binary.json") == 2

    def test_json_syntax_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n "model": {},\n}\n')
        assert run("synth", "--config", path) == 2
        assert ":3:1" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        body = copy.deepcopy(BASE)
        body["montecarlo"] = body.pop("monte_carlo")
        assert run("synth", "--config", write_config(tmp_path, body)) == 2

    def test_instrument_must_be_an_object(self, tmp_path, capsys):
        body = copy.deepcopy(SCAN)
        body["model"]["instrument"] = 5
        assert run("crb", "--config", write_config(tmp_path, body)) == 2
        assert "config.model.instrument: must be a JSON object" in capsys.readouterr().err

    def test_synthesis_must_be_a_string(self, tmp_path, capsys):
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["synthesis"] = 5
        assert run("synth", "--config", write_config(tmp_path, body)) == 2
        assert "run.json.monte_carlo.synthesis: expected a string" in capsys.readouterr().err

    def test_missing_required_field_is_named(self, tmp_path, capsys):
        body = copy.deepcopy(BASE)
        del body["acquisition"]["fit_hi_hz"]
        assert run("synth", "--config", write_config(tmp_path, body)) == 2
        assert "fit_hi_hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--threads", "2"],
            ["synth", "--threads", "2"],
            ["crb", "--seed", "5"],
            ["fit", "spectrum.csv", "--format", "csv"],
            ["validate", "--format", "json"],
            ["synth", "--format", "csv"],
            ["scan", "--format", "csv"],
        ],
        ids=[
            "scan-threads",
            "synth-threads",
            "crb-seed",
            "fit-format",
            "validate-format",
            "synth-format",
            "scan-format",
        ],
    )
    def test_flag_the_command_ignores_is_rejected(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, SCAN if argv[0] == "scan" else BASE)
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--config", cfg, "--out", tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    def test_validate_without_acquisition(self, tmp_path):
        body = {"model": BASE["model"]}
        assert run("validate", "--config", write_config(tmp_path, body)) == 2
