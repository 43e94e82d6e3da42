"""Config document parsing: units, exclusivity, unknown keys, defaults."""

import copy

import numpy as np
import pytest

from snspec.config import config_from_dict, load_config
from snspec.errors import ConfigError
from snspec.io import write_json
from snspec.profiles import REFERENCE_INSTRUMENT

FULL = {
    "model": {
        "conditions": {"n_per_cm3": 4.23e12, "p_mw": 2.0, "xi2": 1.0},
        "instrument": "reference",
    },
    "acquisition": {
        "delta_s": 5e-6,
        "t_total_s": 0.5,
        "n_ave": 1,
        "n_bin": 50,
        "fit_lo_hz": 33000.0,
        "fit_hi_hz": 52000.0,
    },
    "monte_carlo": {
        "n_trials": 100,
        "master_seed": 7,
        "synthesis": "gamma",
    },
    "scan": {
        "n_min_per_cm3": 1e12,
        "n_max_per_cm3": 2e13,
        "n_points": 10,
        "p_min_mw": 0.5,
        "p_max_mw": 15.0,
        "p_points": 12,
        "xi2": 0.55,
    },
}

PARAMS_ONLY = {
    "model": {
        "spectral_params": {
            "s_ph_uv2_per_hz": 1.0,
            "nu_l_hz": 42600.0,
            "s_at_uv2_per_hz": 4.0,
            "delta_nu_hz": 1000.0,
        }
    },
    "acquisition": {
        "delta_s": 5e-6,
        "t_total_s": 0.5,
        "n_bin": 50,
        "fit_lo_hz": 33000.0,
        "fit_hi_hz": 52000.0,
    },
}


def doc(base=FULL, **edits):
    d = copy.deepcopy(base)
    for dotted, value in edits.items():
        node = d
        *parents, last = dotted.split("__")
        for p in parents:
            node = node[p]
        if value is ...:
            del node[last]
        else:
            node[last] = value
    return d


class TestFullDocument:
    def test_units_are_resolved(self):
        cfg = config_from_dict(FULL)
        assert cfg.conditions.p == pytest.approx(2e-3)  # mW in, W out
        assert cfg.conditions.n == 4.23e12
        assert cfg.scan.p_values[-1] == pytest.approx(15e-3)
        assert cfg.scan.p_values.size == 12
        assert cfg.scan.n_values[0] == 1e12
        assert cfg.scan.xi2 == 0.55

    def test_profile_resolves_to_reference(self):
        cfg = config_from_dict(FULL)
        assert cfg.instrument is REFERENCE_INSTRUMENT
        assert cfg.params is None

    def test_monte_carlo_and_output(self):
        cfg = config_from_dict(FULL)
        assert (cfg.n_trials, cfg.master_seed) == (100, 7)
        assert cfg.synthesis == "gamma"
        assert cfg.raw == FULL

    def test_acquisition_geometry(self):
        cfg = config_from_dict(FULL)
        acq = cfg.acquisition
        assert cfg.require_acquisition() is acq  # the accessor the benchmark's scan check reads
        assert acq.n_eff == 50
        assert acq.coarse_spacing == pytest.approx(100.0)

    def test_spectral_params_resolved_through_forward_model(self):
        v = config_from_dict(FULL).spectral_params()
        assert v.nu_l == 42600.0
        assert v.s_ph > 0 and v.s_at > 0


class TestModelExclusivity:
    def test_direct_parameters(self):
        cfg = config_from_dict(PARAMS_ONLY)
        assert cfg.conditions is None and cfg.instrument is None
        assert cfg.spectral_params().as_array().tolist() == [1.0, 42600.0, 4.0, 1000.0]

    def test_both_sources_rejected(self):
        bad = doc(model__spectral_params=PARAMS_ONLY["model"]["spectral_params"])
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(bad)

    def test_neither_source_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(doc(model__conditions=...))

    def test_instrument_with_direct_parameters_rejected(self):
        bad = copy.deepcopy(PARAMS_ONLY)
        bad["model"]["instrument"] = "reference"
        with pytest.raises(ConfigError, match="instrument"):
            config_from_dict(bad)


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "edit, path_fragment",
        [
            (dict(bogus=1), "config:"),
            (dict(model__extra=1), "config.model:"),
            (dict(model__conditions__n_trails=1), "config.model.conditions:"),
            (dict(acquisition__delta=1), "config.acquisition:"),
            (dict(monte_carlo__trials=5), "config.monte_carlo:"),
            (dict(scan__n_max=1), "config.scan:"),
            # --out is the one way to name the output directory
            (dict(output={"directory": "results"}), "'output'"),
        ],
    )
    def test_rejected_with_path(self, edit, path_fragment):
        with pytest.raises(ConfigError, match="unknown key") as err:
            config_from_dict(doc(**edit))
        assert path_fragment in str(err.value)

    def test_message_lists_known_keys(self):
        with pytest.raises(ConfigError, match="known keys"):
            config_from_dict(doc(monte_carlo__n_trails=1))

    def test_unknown_key_in_spectral_params(self):
        bad = copy.deepcopy(PARAMS_ONLY)
        bad["model"]["spectral_params"]["s_ph"] = 1.0
        with pytest.raises(ConfigError, match="spectral_params"):
            config_from_dict(bad)


class TestTypesAndValues:
    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            config_from_dict(doc(model__conditions__p_mw=True))

    def test_string_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_dict(doc(monte_carlo__n_trials="100"))

    def test_float_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_dict(doc(acquisition__n_bin=50.0))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(model__conditions__p_mw="2"), "config.model.conditions.p_mw: expected a number, got '2'"),
            (dict(model__conditions__p_mw=False), "config.model.conditions.p_mw: expected a number, got False"),
            (dict(acquisition__n_bin=True), "config.acquisition.n_bin: expected an integer, got True"),
            (dict(monte_carlo__synthesis=1), "config.monte_carlo.synthesis: expected a string, got 1"),
            (dict(monte_carlo__synthesis=True), "config.monte_carlo.synthesis: expected a string, got True"),
            (dict(model=None), "config.model: expected an object, got None"),
        ],
    )
    def test_kind_messages_are_exact(self, edit, message):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc(**edit))
        assert str(exc.value) == message

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="expected an object"):
            config_from_dict(doc(model__conditions=[1, 2]))

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            config_from_dict(doc(model__instrument="lab7"))

    def test_unknown_synthesis_rejected(self):
        with pytest.raises(ConfigError, match="synthesis"):
            config_from_dict(doc(monte_carlo__synthesis="exact"))

    def test_bad_scan_range_rejected(self):
        with pytest.raises(ConfigError, match="min < max"):
            config_from_dict(doc(scan__n_min_per_cm3=3e13))

    @pytest.mark.parametrize(
        "edit",
        [
            dict(scan__p_min_mw=0.0),
            dict(scan__n_min_per_cm3=-1e12),
            dict(scan__xi2=0.0),
            dict(scan__xi2=float("nan")),
        ],
    )
    def test_scan_corner_out_of_range_rejected(self, edit):
        # every cell's conditions lie between the two grid corners
        with pytest.raises(ConfigError, match="config.scan"):
            config_from_dict(doc(**edit))

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(monte_carlo__n_trials=0))
        with pytest.raises(ConfigError, match="n_trials: must be at least 2"):
            config_from_dict(doc(monte_carlo__n_trials=1))
        with pytest.raises(ConfigError):
            config_from_dict(doc(scan__n_points=0))
        # range errors of the model constructors name their config section
        with pytest.raises(ConfigError, match="config.model.conditions"):
            config_from_dict(doc(model__conditions__p_mw=0.0))
        with pytest.raises(ConfigError, match="config.model.spectral_params"):
            config_from_dict(doc(PARAMS_ONLY, model__spectral_params__s_ph_uv2_per_hz=-1.0))

    def test_negative_master_seed_rejected(self):
        # numpy seeds take only nonnegative integers; the key is named, not a numpy error
        with pytest.raises(
            ConfigError, match=r"config.monte_carlo.master_seed: seed must be a nonnegative integer, got -3"
        ):
            config_from_dict(doc(monte_carlo__master_seed=-3))
        assert config_from_dict(doc(monte_carlo__master_seed=0)).master_seed == 0

    def test_missing_required_field_names_it(self):
        with pytest.raises(ConfigError, match="fit_hi_hz"):
            config_from_dict(doc(acquisition__fit_hi_hz=...))


class TestDefaultsAndSections:
    def test_defaults(self):
        cfg = config_from_dict(PARAMS_ONLY)
        assert cfg.n_trials == 100
        assert cfg.master_seed == 0
        assert cfg.synthesis == "timeseries"
        assert cfg.scan is None

    def test_optional_sections_enforced_on_use(self):
        # every command reads the acquisition, so it is required at load;
        # only scan reads the scan section, so that is enforced on use
        with pytest.raises(ConfigError, match="config: missing required field 'acquisition'"):
            config_from_dict({"model": PARAMS_ONLY["model"]})
        cfg = config_from_dict(PARAMS_ONLY)
        with pytest.raises(ConfigError, match="scan"):
            cfg.require_scan()

    def test_default_instrument_is_reference_profile(self):
        cfg = config_from_dict(doc(model__instrument=...))
        assert cfg.instrument is REFERENCE_INSTRUMENT


class TestExplicitInstrument:
    def test_object_form(self):
        inst = {
            "g_v_per_a": 2e6,
            "q_c": 1.6e-19,
            "eta": 0.8,
            "e_ph_j": 2.49e-19,
            "kappa2": 1e-24,
            "a_eff_cm2": 0.05,
            "l_cell_cm": 2.0,
            "isotope_fraction": 0.72,
            "gamma0_per_s": 4000.0,
            "nu_l_hz": 40000.0,
        }
        cfg = config_from_dict(doc(model__instrument=inst))
        assert cfg.instrument.g == 2e6
        assert cfg.instrument.nu_l_fixed == 40000.0
        assert cfg.instrument.alpha == 0.0 and cfg.instrument.beta == 0.0

    def test_object_form_unknown_key(self):
        inst = {"g_v_per_a": 1e6, "gain": 2}
        with pytest.raises(ConfigError, match="config.model.instrument"):
            config_from_dict(doc(model__instrument=inst))


def test_load_config_uses_path_in_messages(tmp_path):
    path = tmp_path / "run.json"
    write_json(path, doc(monte_carlo__oops=1))
    with pytest.raises(ConfigError, match="run.json"):
        load_config(path)
    write_json(path, FULL)
    assert load_config(path).n_trials == 100


def test_scan_axes_are_ascending_linspace():
    cfg = config_from_dict(FULL)
    np.testing.assert_allclose(
        cfg.scan.n_values, np.linspace(1e12, 2e13, 10), rtol=1e-15
    )
