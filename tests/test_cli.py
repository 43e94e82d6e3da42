"""Command-line interface: exit codes, file outputs, determinism.

All commands run in-process through main(argv), so exit codes and files are
checked without subprocess overhead.
"""

import copy
import ctypes
import dataclasses
import importlib
import json
import os
import pkgutil
import platform
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import snspec
from snspec import cli, montecarlo, synthesis
from snspec.cli import build_parser, main
from snspec.fisher import wishart_std
from snspec.io import read_spectrum_csv, write_spectrum_csv
from snspec.profiles import REFERENCE_ACQUISITION, REFERENCE_INSTRUMENT
from snspec.scan import scan_grid
from snspec.synthesis import AcquisitionConfig, Spectrum

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

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
    # the runtime needs numpy only; scipy is a test dependency. The
    # timeseries stack starts its workers with threading and contextvars,
    # which importing numpy loads anyway, so no pool module is loaded
    # either; the quadrature rule is stored, so numpy.polynomial is not; and
    # the stacks build their generators' seeding on first use, so
    # numpy.random waits for the first draw
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(snspec.__file__)))
    code = (
        "import sys, snspec.cli; "
        "print(*(m in sys.modules for m in ('scipy', 'concurrent.futures', 'numpy.polynomial', 'numpy.random')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False False False"


def test_import_snspec_loads_no_submodule_and_no_numpy():
    # the package holds only __version__: every name comes from its module
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(snspec.__file__)))
    code = (
        "import sys, snspec; "
        "print(sorted(m for m in sys.modules if m.startswith('snspec.')), 'numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] False"


def test_every_exported_name_exists():
    # a name deleted from a module must leave its __all__ too
    for info in pkgutil.iter_modules(snspec.__path__):
        module = importlib.import_module(f"snspec.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"snspec.{info.name}.__all__ names {missing}"


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

    def test_bins_wider_than_the_record_exit_at_load(self, tmp_path, capsys):
        # 100000 raw steps per bin, against the 49999 raw bins of the record
        body = copy.deepcopy(BASE)
        body["acquisition"] = dict(body["acquisition"], n_bin=100000)
        cfg = write_config(tmp_path, body)
        assert run("synth", "--config", cfg, "--out", tmp_path / "a") == 2
        err = capsys.readouterr().err
        assert "49999" in err and "100000" in err
        assert not (tmp_path / "a").exists()

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
        # the fitted parameters under the config's own spectral_params keys
        fit_keys = {"chi2", "converged", "n_iter", "window_hz", "config", "master_seed_used", "version"}
        assert set(doc) == set(BASE["model"]["spectral_params"]) | fit_keys

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

    def test_all_zero_spectrum_is_not_converged(self, tmp_path):
        # W = sum ln f has no minimum on it; the fit reports its start
        cfg = write_config(tmp_path, BASE)
        nu = REFERENCE_ACQUISITION.coarse_grid()
        write_spectrum_csv(tmp_path / "zero.csv", Spectrum(nu, np.zeros_like(nu), 50))
        assert run("fit", tmp_path / "zero.csv", "--config", cfg, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["converged"] is False
        assert doc["n_iter"] == 0

    def test_flat_spectrum_at_the_top_of_the_float_range_fits(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        nu = REFERENCE_ACQUISITION.coarse_grid()
        write_spectrum_csv(tmp_path / "flat.csv", Spectrum(nu, np.full_like(nu, 2.0**1023), 50))
        assert run("fit", tmp_path / "flat.csv", "--config", cfg, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["converged"] is True
        assert doc["s_ph_uv2_per_hz"] == pytest.approx(2.0**1023, rel=1e-6)


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
        # the report's fields, then the run's settings and its provenance
        report = {f.name for f in dataclasses.fields(montecarlo.ValidationReport)}
        assert set(doc) == report | {"synthesis", "n_eff", "window_hz", "config", "master_seed_used", "version"}

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

    def test_weak_line_overflow_counts_a_failure(self, tmp_path):
        # trial 71 of the first 100 gamma-route fits at seed 1 is still
        # going at the step limit; its fit reports converged=False and the
        # run counts it instead of aborting
        body = copy.deepcopy(BASE)
        body["model"]["spectral_params"]["s_at_uv2_per_hz"] = 0.05
        body["monte_carlo"]["n_trials"] = 100
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--seed", 1, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["n_trials"] == 100
        assert doc["n_failures"] >= 1

    @pytest.mark.parametrize("n_trials", [2, 3])
    def test_fewer_than_four_trials_write_null_k2_stderr(self, tmp_path, n_trials):
        # var(k2) needs 4 samples; the covariance and its bound need 2
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["n_trials"] = n_trials
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 0
        doc = json.loads((tmp_path / "v" / "validate.json").read_text())
        assert (doc["n_trials"], doc["n_failures"]) == (n_trials, 0)
        assert doc["k2_stderr"] == [None] * 4
        assert all(k > 0.0 for k in doc["k2_diag"])

    def test_negative_var_k2_estimate_writes_null_k2_stderr(self, tmp_path):
        # the reference config at 4 gamma-route trials, seed 0: the s_at
        # column's var(k2) estimate is negative, so it has no standard error
        with open(os.path.join(CONFIG_DIR, "validate_reference.json")) as fh:
            body = json.load(fh)
        body["monte_carlo"].update(n_trials=4, master_seed=0, synthesis="gamma")
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 0
        doc = json.loads((tmp_path / "v" / "validate.json").read_text())
        assert (doc["n_trials"], doc["n_failures"]) == (4, 0)
        stderr = doc["k2_stderr"]
        assert stderr[2] is None
        assert all(x > 0.0 for x in stderr[:2] + stderr[3:])

    def test_singular_bound_exits_before_fitting(self, tmp_path, capsys):
        body = copy.deepcopy(BASE)
        body["model"]["spectral_params"]["s_at_uv2_per_hz"] = 0.0
        body["monte_carlo"]["n_trials"] = 5
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 4
        assert "singular" in capsys.readouterr().err
        assert not (tmp_path / "v" / "validate.json").exists()

    def test_threads_key_is_rejected(self, tmp_path, capsys):
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["threads"] = 1
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 2
        err = capsys.readouterr().err
        assert "monte_carlo: unknown key(s) 'threads'; known keys: master_seed, n_trials, synthesis" in err
        assert not (tmp_path / "v").exists()


class TestParserReuse:
    def test_reused_parser_leaks_no_state_between_calls(self, tmp_path):
        # main builds the parser once per process; each call must still see
        # only its own arguments and the parser's defaults
        assert build_parser() is build_parser()
        cfg = write_config(tmp_path, BASE)
        assert run("synth", "--config", cfg, "--out", tmp_path / "in") == 0
        spectrum = tmp_path / "in" / "spectrum.csv"
        assert run("fit", spectrum, "--config", cfg, "--out", tmp_path / "A") == 0
        assert run("validate", "--config", cfg, "--seed", -1) == 2
        assert run("synth", "--config", cfg, "--seed", 5, "--out", tmp_path / "s5") == 0
        assert run("synth", "--config", cfg, "--out", tmp_path / "s") == 0
        assert run("fit", spectrum, "--config", cfg, "--out", tmp_path / "B") == 0
        assert (tmp_path / "A" / "fit.json").read_bytes() == (tmp_path / "B" / "fit.json").read_bytes()
        seeds = [json.loads((tmp_path / d / "spectrum.json").read_text())["master_seed_used"] for d in ("s5", "s")]
        assert seeds == [5, BASE["monte_carlo"]["master_seed"]]
        assert (tmp_path / "s" / "spectrum.csv").read_bytes() == spectrum.read_bytes()


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


class TestAllocatorPolicy:
    """main keeps freed heap pages where glibc allows it, once per process."""

    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        # a test that patches ctypes must not leave its outcome cached for later calls
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy acts on glibc only")
    def test_repeated_validate_reuses_freed_pages(self, tmp_path):
        import resource

        with open(os.path.join(CONFIG_DIR, "validate_reference.json")) as fh:
            body = json.load(fh)
        body["monte_carlo"]["synthesis"] = "gamma"
        cfg = write_config(tmp_path, body)
        argv = ["validate", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        # with glibc's default thresholds this call faults over 2000 pages back in
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200

    @pytest.mark.parametrize("cdll", [no_library, lambda name: object()], ids=["no-library", "no-mallopt"])
    def test_missing_mallopt_changes_nothing(self, tmp_path, monkeypatch, cdll):
        cfg = write_config(tmp_path, BASE)
        assert run("validate", "--config", cfg, "--out", tmp_path / "ref") == 0
        cli._keep_freed_heap.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run("validate", "--config", cfg, "--out", tmp_path / "o") == 0
        ref, out = (tmp_path / d / "validate.json" for d in ("ref", "o"))
        assert out.read_bytes() == ref.read_bytes()

    def test_mallopt_is_set_once_per_process(self, tmp_path, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        cfg = write_config(tmp_path, BASE)
        assert run("validate", "--config", cfg, "--out", tmp_path / "a") == 0
        assert run("validate", "--config", cfg, "--out", tmp_path / "b") == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


class TestUsageChecks:
    """Bad seeds and windows exit 2 with a message naming them, before any work."""

    @pytest.mark.parametrize("command", ["validate", "synth"])
    def test_negative_seed_in_config(self, tmp_path, capsys, command):
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["master_seed"] = -3
        cfg = write_config(tmp_path, body)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}.monte_carlo.master_seed: seed must be a nonnegative integer, got -3\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "synth"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE)
        assert run(command, "--config", cfg, "--seed", -1, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: --seed: seed must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_too_narrow_window_exits_before_synthesis(self, tmp_path, capsys, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("a trial was synthesized")

        monkeypatch.setattr(montecarlo, "timeseries_periodogram_stack", no_synthesis)
        body = copy.deepcopy(BASE)
        body["acquisition"].update(fit_lo_hz=42000.0, fit_hi_hz=42500.0)
        body["monte_carlo"].update(synthesis="timeseries", n_trials=100)
        cfg = write_config(tmp_path, body)
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 2
        assert capsys.readouterr().err == "error: fit window holds 5 bins, need at least 8\n"
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command", ["crb", "scan", "synth"])
    def test_window_without_coarse_bins_exits_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # bins of 30000 raw steps (6 kHz) leave the reference record one
        # coarse bin, at 30.0 kHz, outside the 33-52 kHz window: the same
        # window validate rejects
        def no_work(*args, **kwargs):
            raise AssertionError("the bound was evaluated or a spectrum synthesized")

        monkeypatch.setattr("snspec.cli.fisher_integral", no_work)
        monkeypatch.setattr("snspec.cli.scan_grid", no_work)
        monkeypatch.setattr("snspec.cli.trial_spectrum", no_work)
        body = copy.deepcopy(SCAN if command == "scan" else BASE)
        body["acquisition"] = dict(body["acquisition"], n_bin=30000)
        cfg = write_config(tmp_path, body)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: fit window holds 0 bins, need at least 8\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "crb"])
    def test_record_length_overflow_exits_config(self, tmp_path, capsys, command):
        body = copy.deepcopy(BASE)
        body["acquisition"]["delta_s"] = 1e-310  # t_total/delta overflows to inf
        cfg = write_config(tmp_path, body)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err == "error: record length t_total/delta = inf must be an integer >= 4\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("points", [2**62, 2**63], ids=["2^62", "2^63"])
    @pytest.mark.parametrize("command", ["synth", "fit", "validate", "crb", "scan"])
    def test_scan_grid_past_the_cell_cap_exits_config(self, tmp_path, capsys, command, points):
        # np.linspace ran out of memory on a 2^62-point axis and raised
        # IndexError on a 2^63-point one; every command loads the scan section
        body = copy.deepcopy(SCAN)
        body["scan"]["n_points"] = points
        cfg = write_config(tmp_path, body)
        spectrum = [tmp_path / "spectrum.csv"] if command == "fit" else []  # the config is loaded first
        assert run(command, *spectrum, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: config.scan: n_points * p_points must be at most 1048576 cells\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "crb"])
    def test_trial_count_past_the_cap_exits_config(self, tmp_path, capsys, command):
        # validate would list 2^62 trial seeds until the host ran out of memory
        body = copy.deepcopy(BASE)
        body["monte_carlo"]["n_trials"] = 2**62
        cfg = write_config(tmp_path, body)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {cfg}.monte_carlo.n_trials: must be at most 1048576\n"
        assert not (tmp_path / "o").exists()


def shipped(name, **updates):
    """A shipped config with the given sections updated."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        doc = json.load(fh)
    for section, values in updates.items():
        doc.setdefault(section, {}).update(values)
    return doc


def config_leaves(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from config_leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


DELETE = "<delete the key>"
# the shipped configs with few trials and a small grid, so every call is short
FUZZ_BASES = {
    "validate_reference": shipped("validate_reference.json", monte_carlo={"n_trials": 4}),
    "scan_reference": shipped(
        "scan_reference.json", monte_carlo={"n_trials": 4}, scan={"n_points": 6, "p_points": 5}
    ),
}
FUZZ_LEAVES = sorted({leaf for doc in FUZZ_BASES.values() for leaf in config_leaves(doc)})
# the edges of every JSON type, and integers past any count the host can hold
FUZZ_VALUES = [
    0, -1, 1, 2**62, 2**63, 1e300, -1e300, 1e-300, 5e-324, float("nan"), float("inf"), float("-inf"),
    True, False, None, "reference", [], {}, DELETE,
]


# what a line edit of a spectrum or sample file puts in a field: the edges of
# the float range, text numpy or csv reads in its own way, and a byte that is
# not UTF-8 (written through surrogateescape)
FILE_TOKENS = [
    "nan", "inf", "-inf", "-1", "0", "5e-324", "1e400", "8.98846567431158e+307", "", " ", "x",
    '"3"', "1e", "0x10", "1_0", "\udcff",
]
# each edit acts on one line (a row of fields; the header of a spectrum file)
LINE_EDITS = ["psd", "nu", "drop", "blank", "extra", "short", "dup", "crlf"]


def edit_lines(lines, edits):
    """lines, a list of field lists, after each (index, edit, token) in turn."""
    for index, edit, token in edits:
        if not lines:
            break
        i = index % len(lines)
        if edit == "psd":
            lines[i] = lines[i][:-1] + [token]
        elif edit == "nu":
            lines[i] = [token] + lines[i][1:]
        elif edit == "drop":
            del lines[i]
        elif edit == "blank":
            lines.insert(i, [])
        elif edit == "extra":
            lines[i] = lines[i] + [token]
        elif edit == "short":
            lines[i] = lines[i][:-1]
        elif edit == "dup":
            lines.insert(i, list(lines[i]))
        else:
            lines[i] = lines[i][:-1] + [(lines[i][-1] if lines[i] else "") + "\r"]
    return lines


class TestExitCodeContract:
    """Every config or input file a command accepts ends in exit 0, 2, 3 or 4; a
    failure prints one stderr line and leaves no output directory."""

    def test_mutated_shipped_configs_end_in_a_documented_exit(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        spectrum = tmp_path / "spectrum.csv"
        assert run("synth", "--config", write_config(tmp_path, FUZZ_BASES["validate_reference"]), "--out", tmp_path) == 0

        @hypothesis.settings(deadline=None, derandomize=True, database=None, max_examples=120)
        @hypothesis.given(
            base=st.sampled_from(sorted(FUZZ_BASES)),
            edits=st.lists(st.tuples(st.sampled_from(FUZZ_LEAVES), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3),
            command=st.sampled_from(["synth", "fit", "validate", "crb", "scan"]),
        )
        @hypothesis.example(base="scan_reference", edits=[(("scan", "n_points"), 2**63)], command="crb")
        def check(base, edits, command):
            doc = copy.deepcopy(FUZZ_BASES[base])
            for (*path, key), value in edits:
                section = doc
                for step in path:
                    section = section.get(step) if isinstance(section, dict) else None
                if not isinstance(section, dict):
                    continue  # an earlier edit replaced or deleted this section
                if value is DELETE:
                    section.pop(key, None)
                else:
                    section[key] = value
            cfg = write_config(tmp_path, doc, "fuzz.json")
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
            code = run(command, *([spectrum] if command == "fit" else []), "--config", cfg, "--out", out)
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4)
            if code:
                assert len(err.splitlines()) == 1, err
                assert not out.exists()

        check()

    def test_malformed_spectrum_and_sample_files_end_in_a_documented_exit(self, tmp_path, capsys):
        # fit reads a spectrum file (header and nu,psd rows), kstats a sample
        # file (the psd column, one value per line); a level sets every psd
        # value before the edits, and the flat 2^1023 spectrum is an example
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        cfg = write_config(tmp_path, BASE)
        assert run("synth", "--config", cfg, "--out", tmp_path) == 0
        header, *rows = (tmp_path / "spectrum.csv").read_text().splitlines()
        rows = [row.split(",") for row in rows]
        path = tmp_path / "input.txt"

        @hypothesis.settings(deadline=None, derandomize=True, database=None, max_examples=60)
        @hypothesis.given(
            command=st.sampled_from(["fit", "kstats"]),
            level=st.sampled_from([None, 0.0, -1.0, 5e-324, 1e-300, 1e300, 2.0**1023]),
            edits=st.lists(
                st.tuples(st.integers(0, len(rows)), st.sampled_from(LINE_EDITS), st.sampled_from(FILE_TOKENS)),
                max_size=3,
            ),
        )
        @hypothesis.example(command="fit", level=2.0**1023, edits=[])
        @hypothesis.example(command="kstats", level=2.0**1023, edits=[])
        def check(command, level, edits):
            body = [[nu, psd if level is None else repr(level)] for nu, psd in rows]
            if command == "fit":
                lines = edit_lines([header.split(",")] + body, edits)
            else:
                lines = edit_lines([[psd] for _, psd in body], edits)
            text = "".join(",".join(line) + "\n" for line in lines)
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
            code = run(command, path, *(["--config", cfg] if command == "fit" else []), "--out", out)
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4)
            if code:
                assert len(err.splitlines()) == 1, err
                assert not out.exists()

        check()


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

    def test_singular_information_prints_one_line(self, tmp_path, capsys):
        # s_at 1e308 overflows the information integrand; the overflow ends
        # in a singular matrix, reported without a numpy warning
        body = copy.deepcopy(BASE)
        body["model"]["spectral_params"]["s_at_uv2_per_hz"] = 1e308
        cfg = write_config(tmp_path, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("crb", "--config", cfg, "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: information matrix is singular for this model\n"
        assert not (tmp_path / "o").exists()

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
        data = np.loadtxt(tmp_path / "s" / "scan.csv", delimiter=",", skiprows=1)
        # the config layer builds the power axis in mW and then converts
        ref = scan_grid(
            np.linspace(2e12, 1.6e13, 6),
            np.linspace(1.0, 12.0, 5) * 1e-3,
            REFERENCE_INSTRUMENT,
            REFERENCE_ACQUISITION,
        )
        n, p = np.meshgrid(np.linspace(2e12, 1.6e13, 6), np.linspace(1.0, 12.0, 5) * 1e-3, indexing="ij")
        np.testing.assert_array_equal(data[:, 0], n.ravel())
        np.testing.assert_array_equal(data[:, 1], p.ravel())
        np.testing.assert_array_equal(data[:, 2:].T, ref.surfaces.reshape(4, -1))
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

    def test_failed_optimum_writes_nothing(self, tmp_path, capsys):
        # every cell of an (n, P) grid at n <= 1e-300 cm^-3 is singular, so
        # no surface has an optimum; scan.csv is not left behind either
        body = copy.deepcopy(SCAN)
        body["scan"].update(n_min_per_cm3=0.0, n_max_per_cm3=1e-300, n_points=2, p_points=2)
        cfg = write_config(tmp_path, body)
        assert run("scan", "--config", cfg, "--out", tmp_path / "s") == 4
        assert capsys.readouterr().err == "numerical failure: surface 1 holds no finite values\n"
        assert not (tmp_path / "s").exists()


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

    def test_overflow_is_written_as_null(self, tmp_path, capsys):
        # k2 overflows to inf and k4 to NaN; neither is RFC 8259 JSON, and
        # no RuntimeWarning reaches the user
        sample = tmp_path / "x.txt"
        sample.write_text("1e200\n-1e200\n3\n4\n5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("kstats", sample, "--out", tmp_path) == 0

        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        doc = json.loads((tmp_path / "kstats.json").read_text(), parse_constant=reject)
        assert doc["k2"] is None and doc["k4"] is None and doc["var_k2"] is None
        assert doc["n_samples"] == 5
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "text", ["1\n2\nnan\n4\n5\n", "inf\n2\n3\n4\n", "1\n-inf\n3\n4\n"], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_value_names_the_file(self, tmp_path, capsys, text):
        sample = tmp_path / "x.txt"
        sample.write_text(text)
        assert run("kstats", sample, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {sample}: sample values must be finite\n"
        assert not (tmp_path / "o").exists()

    def test_too_few_values(self, tmp_path, capsys):
        sample = tmp_path / "x.txt"
        sample.write_text("1\n2\n3\n")
        assert run("kstats", sample, "--out", tmp_path) == 2
        assert "at least 4" in capsys.readouterr().err

    def test_empty_file_names_it(self, tmp_path, capsys):
        sample = tmp_path / "x.txt"
        sample.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("kstats", sample, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {sample}: k2 needs at least 2 samples, got 0\n"
        assert not (tmp_path / "o").exists()

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

    def test_memory_error_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a grid the host refuses to allocate (t_total_s 1e7 asks for 2e12
        # bins) exits 4 like any numerical failure; the refusal is simulated,
        # so nothing large is ever allocated
        def refused(self, bins=slice(None)):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (999999999999,)")

        monkeypatch.setattr(AcquisitionConfig, "coarse_grid", refused)
        cfg = write_config(tmp_path, BASE)
        assert run("synth", "--config", cfg, "--out", tmp_path / "o") == 4
        assert capsys.readouterr().err.startswith("numerical failure: Unable to allocate")
        assert not (tmp_path / "o").exists()

    def test_memory_error_in_a_synthesis_worker_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # the second of two workers is refused its record: validate exits 4
        # with one line, writes nothing, and leaves no thread running
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 2)
        caller, record = threading.get_ident(), synthesis._record

        def refused(amp, rng, y, coeff):
            if threading.get_ident() != caller:
                raise MemoryError("Unable to allocate 781 KiB for an array with shape (100000,)")
            record(amp, rng, y, coeff)

        monkeypatch.setattr(synthesis, "_record", refused)
        body = copy.deepcopy(BASE)
        body["monte_carlo"].update(synthesis="timeseries", n_trials=4)
        cfg = write_config(tmp_path, body)
        running = threading.active_count()
        assert run("validate", "--config", cfg, "--out", tmp_path / "v") == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: Unable to allocate 781 KiB for an array with shape (100000,)\n"
        assert not (tmp_path / "v").exists()
        assert threading.active_count() == running

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
            ["validate", "--threads", "2"],
            ["crb", "--seed", "5"],
            ["fit", "spectrum.csv", "--format", "csv"],
            ["validate", "--format", "json"],
            ["synth", "--format", "csv"],
            ["scan", "--format", "csv"],
        ],
        ids=[
            "scan-threads",
            "synth-threads",
            "validate-threads",
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
