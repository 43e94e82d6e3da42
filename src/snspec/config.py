"""Run configuration: a single JSON document with unit-suffixed keys.

Every physical key carries its unit in its name (p_mw, delta_s, fit_lo_hz) so
a config cannot be silently misread in the wrong unit system. Unknown keys are
rejected, not ignored: a typo like "n_trails" must fail loudly rather than run
with a default. The model section names exactly one source, either direct
spectral parameters or experiment conditions plus an instrument.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError
from .io import read_json
from .model import ExperimentConditions, InstrumentConstants, SpectralParams, params_from_conditions
from .profiles import PROFILES, REFERENCE_INSTRUMENT
from .synthesis import SYNTHESIS_ROUTES, AcquisitionConfig

__all__ = ["SPECTRAL_KEYS", "ScanSpec", "RunConfig", "check_seed", "load_config", "config_from_dict"]

# the keys of model.spectral_params, in SpectralParams order; fit.json reports
# its fitted parameters under the same keys
SPECTRAL_KEYS = ("s_ph_uv2_per_hz", "nu_l_hz", "s_at_uv2_per_hz", "delta_nu_hz")

# counts past these are refused before any axis or trial list is built
_MAX_SCAN_CELLS = 1 << 20  # one Fisher integral each; 1024 x 1024 is the largest square
# validate runs its trials in blocks of bounded memory, so this cap is a time
# guard on its O(n_trials) seed and fit arrays: about 40 s by gamma on 2 vCPUs
_MAX_TRIALS = 1 << 20


@dataclass(frozen=True)
class ScanSpec:
    n_values: np.ndarray
    p_values: np.ndarray
    xi2: float


@dataclass(frozen=True)
class RunConfig:
    """Validated, unit-resolved run configuration (SI units internally)."""

    params: SpectralParams | None
    conditions: ExperimentConditions | None
    instrument: InstrumentConstants | None
    acquisition: AcquisitionConfig
    n_trials: int
    master_seed: int
    synthesis: str
    scan: ScanSpec | None
    raw: dict[str, Any]

    def spectral_params(self) -> SpectralParams:
        """The model the run operates on, resolved to spectral parameters."""
        if self.params is not None:
            return self.params
        return params_from_conditions(self.conditions, self.instrument)

    def require_acquisition(self) -> AcquisitionConfig:
        """self.acquisition: the benchmark's scan spot check reads it by this name."""
        return self.acquisition

    def require_scan(self) -> ScanSpec:
        if self.scan is None:
            raise ConfigError("config: missing required section 'scan'")
        return self.scan


# each kind take reads: the JSON types it accepts, and its noun in messages
_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    dict: (dict, "an object"),
}


class _Section:
    """One config object: tracked key set, typed extraction, unknown-key check."""

    def __init__(self, path: str, doc: dict[str, Any]):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: must be a JSON object")
        self.path = path
        self.doc = doc
        self.seen: set[str] = set()

    def take(self, key: str, kind, required: bool = False, default=None):
        self.seen.add(key)
        if key not in self.doc:
            if required:
                raise ConfigError(f"{self.path}: missing required field '{key}'")
            return default
        value = self.doc[key]
        types, noun = _KINDS[kind]
        # json yields bool for true and false, and a bool is not a number
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{self.path}.{key}: expected {noun}, got {value!r}")
        return float(value) if kind is float else value

    def build(self, cls, *args, **fields):
        """cls(*args, **fields), with the range errors of its constructor named by section."""
        try:
            return cls(*args, **fields)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc

    def finish(self) -> None:
        unknown = sorted(set(self.doc) - self.seen)
        if unknown:
            raise ConfigError(
                f"{self.path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(sorted(self.seen))}"
            )


def check_seed(seed: int, where: str) -> int:
    """seed, or a ConfigError naming where it was set when it is negative
    (numpy's SeedSequence takes only nonnegative integers)."""
    if seed < 0:
        raise ConfigError(f"{where}: seed must be a nonnegative integer, got {seed}")
    return seed


def _parse_model(section: dict[str, Any]):
    s = _Section("config.model", section)
    sp = s.take("spectral_params", dict)
    cond = s.take("conditions", dict)
    # instrument may be a profile name or an explicit object, so take it raw
    s.seen.add("instrument")
    inst_raw = section.get("instrument")
    s.finish()
    if (sp is None) == (cond is None):
        raise ConfigError(
            "config.model: exactly one of 'spectral_params' or 'conditions' is required"
        )
    if sp is not None:
        if inst_raw is not None:
            raise ConfigError("config.model: 'instrument' only applies to 'conditions'")
        p = _Section("config.model.spectral_params", sp)
        params = p.build(SpectralParams, *[p.take(key, float, required=True) for key in SPECTRAL_KEYS])
        p.finish()
        return params, None, None
    c = _Section("config.model.conditions", cond)
    conditions = c.build(
        ExperimentConditions,
        n=c.take("n_per_cm3", float, required=True),
        p=c.take("p_mw", float, required=True) * 1e-3,
        xi2=c.take("xi2", float, default=1.0),
    )
    c.finish()
    return None, conditions, _parse_instrument(inst_raw)


def _parse_instrument(raw) -> InstrumentConstants:
    if raw is None:
        return REFERENCE_INSTRUMENT
    if isinstance(raw, str):
        if raw not in PROFILES:
            raise ConfigError(
                f"config.model.instrument: unknown profile {raw!r}; "
                f"available: {', '.join(sorted(PROFILES))}"
            )
        return PROFILES[raw]
    i = _Section("config.model.instrument", raw)
    constants = i.build(
        InstrumentConstants,
        g=i.take("g_v_per_a", float, required=True),
        q=i.take("q_c", float, required=True),
        eta=i.take("eta", float, required=True),
        e_ph=i.take("e_ph_j", float, required=True),
        kappa2=i.take("kappa2", float, required=True),
        a_eff=i.take("a_eff_cm2", float, required=True),
        l_cell=i.take("l_cell_cm", float, required=True),
        isotope_fraction=i.take("isotope_fraction", float, required=True),
        gamma0=i.take("gamma0_per_s", float, required=True),
        nu_l_fixed=i.take("nu_l_hz", float, required=True),
        alpha=i.take("alpha_cm3_per_s", float, default=0.0),
        beta=i.take("beta_per_s_w", float, default=0.0),
    )
    i.finish()
    return constants


def _parse_acquisition(section: dict[str, Any]) -> AcquisitionConfig:
    a = _Section("config.acquisition", section)
    cfg = AcquisitionConfig(
        delta=a.take("delta_s", float, required=True),
        t_total=a.take("t_total_s", float, required=True),
        n_ave=a.take("n_ave", int, default=1),
        n_bin=a.take("n_bin", int, default=1),
        fit_lo=a.take("fit_lo_hz", float, required=True),
        fit_hi=a.take("fit_hi_hz", float, required=True),
    )
    a.finish()
    return cfg


def _parse_scan(section: dict[str, Any]) -> ScanSpec:
    s = _Section("config.scan", section)
    n_min = s.take("n_min_per_cm3", float, required=True)
    n_max = s.take("n_max_per_cm3", float, required=True)
    n_points = s.take("n_points", int, default=50)
    p_min = s.take("p_min_mw", float, required=True)
    p_max = s.take("p_max_mw", float, required=True)
    p_points = s.take("p_points", int, default=50)
    xi2 = s.take("xi2", float, default=1.0)
    s.finish()
    if not (n_min < n_max and p_min < p_max):
        raise ConfigError("config.scan: ranges must satisfy min < max")
    if n_points < 1 or p_points < 1:
        raise ConfigError("config.scan: point counts must be at least 1")
    if n_points * p_points > _MAX_SCAN_CELLS:
        raise ConfigError(f"config.scan: n_points * p_points must be at most {_MAX_SCAN_CELLS} cells")
    # the grids ascend, so the two corners bound every cell's conditions
    for n, p_mw in ((n_min, p_min), (n_max, p_max)):
        s.build(ExperimentConditions, n=n, p=p_mw * 1e-3, xi2=xi2)
    return ScanSpec(
        n_values=np.linspace(n_min, n_max, n_points),
        p_values=np.linspace(p_min, p_max, p_points) * 1e-3,
        xi2=xi2,
    )


def config_from_dict(doc: dict[str, Any], origin: str = "config") -> RunConfig:
    top = _Section(origin, doc)
    model = top.take("model", dict, required=True)
    acq = top.take("acquisition", dict, required=True)
    mc = top.take("monte_carlo", dict, default={})
    scan = top.take("scan", dict)
    top.finish()

    params, conditions, instrument = _parse_model(model)

    m = _Section(f"{origin}.monte_carlo", mc)
    n_trials = m.take("n_trials", int, default=100)
    master_seed = check_seed(
        m.take("master_seed", int, default=0), f"{origin}.monte_carlo.master_seed"
    )
    synthesis = m.take("synthesis", str, default="timeseries")
    m.finish()
    if n_trials < 2:
        # validate forms a covariance and crb a Wishart spread from n_trials samples
        raise ConfigError(f"{origin}.monte_carlo.n_trials: must be at least 2")
    if n_trials > _MAX_TRIALS:
        raise ConfigError(f"{origin}.monte_carlo.n_trials: must be at most {_MAX_TRIALS}")
    if synthesis not in SYNTHESIS_ROUTES:
        raise ConfigError(
            f"{origin}.monte_carlo.synthesis: {synthesis!r} is not one of {SYNTHESIS_ROUTES}"
        )

    return RunConfig(
        params=params,
        conditions=conditions,
        instrument=instrument,
        acquisition=_parse_acquisition(acq),
        n_trials=n_trials,
        master_seed=master_seed,
        synthesis=synthesis,
        scan=_parse_scan(scan) if scan is not None else None,
        raw=doc,
    )


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path), origin=str(path))
