"""The bytes of every shipped-config output, pinned by a committed manifest.

tests/data/golden_outputs.json holds the full sha256 of the 59 files that
synth, fit (of synth's spectrum.csv), crb, and validate or scan write for the
shipped configs: validate_reference.json on both synthesis routes, as
shipped and at a short acquisition whose fit window ends at the last coarse
bin, the short gamma run again at a master seed of two 32-bit words and at
3 trials (too few for a k2 standard error, written as null), the shipped
gamma run at 4 trials (one negative var(k2) estimate, its k2 standard error
written as null), the shipped gamma run at s_at 0.05 (a weak line: the
solver's long tail), and scan_reference.json at xi2 1 and 0.55, all at the
default seed otherwise, and scan_reference.json again with an explicit
instrument at a tenth of the reference kappa2, whose stack mixes the
closed form and the quadrature;
and of what kstats writes for the psd column of one synthesized spectrum. It
also records the numpy version and the platform that made them. The bits depend on numpy's
Generator and pocketfft, so under another numpy or platform the test skips
and names both, rather than pass or fail on bits it cannot vouch for.

When a change moves bytes on purpose, rewrite the manifest and cite its diff:

    PYTHONPATH=src python tests/test_golden_outputs.py

Before it writes, it prints each digest that moved, was added or was
removed, as 'run/file old8 -> new8' ('absent' for a side that lacks it).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from snspec.cli import main
from snspec.config import _parse_instrument
from snspec.profiles import REFERENCE_INSTRUMENT

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
MANIFEST = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

# a short record of 4000 samples, three records a trial, n_bin 5 over 1999
# raw bins (a remainder of 4), and a window that runs to the last coarse bin
SHORT = {
    ("acquisition", "t_total_s"): 0.02,
    ("acquisition", "n_ave"): 3,
    ("acquisition", "n_bin"): 5,
    ("acquisition", "fit_lo_hz"): 30000.0,
    ("acquisition", "fit_hi_hz"): 99900.0,
    ("monte_carlo", "n_trials"): 40,
}

# profiles.REFERENCE_INSTRUMENT written out, with kappa2 times 0.1
KAPPA2_TENTH = {
    "g_v_per_a": 1.0e6,
    "q_c": 1.6e-19,
    "eta": 0.880011,
    "e_ph_j": 2.49e-19,
    "kappa2": 9.97625e-26,
    "a_eff_cm2": 0.054,
    "l_cell_cm": 3.0,
    "isotope_fraction": 0.72,
    "gamma0_per_s": 3720.15,
    "nu_l_hz": 42600.0,
    "alpha_cm3_per_s": 2.39751e-10,
    "beta_per_s_w": 449124.0,
}

# run name: (shipped config, {key path: value} set on it, the commands beyond
# synth, fit and crb); kstats reads the psd column of the run's spectrum.csv
RUNS = {
    "validate_reference-timeseries": ("validate_reference.json", {}, ("validate",)),
    "validate_reference-gamma": (
        "validate_reference.json",
        {("monte_carlo", "synthesis"): "gamma"},
        ("validate", "kstats"),
    ),
    **{
        f"validate_short-{route}": ("validate_reference.json", {**SHORT, ("monte_carlo", "synthesis"): route}, ("validate",))
        for route in ("timeseries", "gamma")
    },
    # a master seed of two 32-bit words, 7 and 1
    "validate_short-gamma-seed_2^32+7": (
        "validate_reference.json",
        {**SHORT, ("monte_carlo", "synthesis"): "gamma", ("monte_carlo", "master_seed"): 2**32 + 7},
        ("validate",),
    ),
    # 3 trials: k2_stderr needs 4 converged fits, so it is written as null
    "validate_short-gamma-n_trials_3": (
        "validate_reference.json",
        {**SHORT, ("monte_carlo", "synthesis"): "gamma", ("monte_carlo", "n_trials"): 3},
        ("validate",),
    ),
    # 4 trials, seed 0: the s_at column's var(k2) estimate is negative, so
    # its k2_stderr is written as null
    "validate_reference-gamma-n_trials_4": (
        "validate_reference.json",
        {("monte_carlo", "synthesis"): "gamma", ("monte_carlo", "n_trials"): 4},
        ("validate",),
    ),
    # a weak line, s_at 0.05: the solver's long tail (13 steps in fit, one
    # failed fit of the 100 in validate)
    "validate_reference-gamma-s_at_0.05": (
        "validate_reference.json",
        {("monte_carlo", "synthesis"): "gamma", ("model", "spectral_params", "s_at_uv2_per_hz"): 0.05},
        ("validate",),
    ),
    "scan_reference-xi2_1": ("scan_reference.json", {}, ("scan",)),
    "scan_reference-xi2_0.55": (
        "scan_reference.json",
        {("model", "conditions", "xi2"): 0.55, ("scan", "xi2"): 0.55},
        ("scan",),
    ),
    # the reference instrument at a tenth of its kappa2: 39 of the 2500
    # cells lie off the closed form's band and take the quadrature
    "scan_reference-kappa2_0.1": (
        "scan_reference.json",
        {("model", "instrument"): KAPPA2_TENTH},
        ("scan",),
    ),
}


def environment() -> dict:
    """What the bits depend on beyond the source: numpy and the platform."""
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def outputs(root: Path) -> dict:
    """Run every shipped-config command under root; the sha256 of each file written, by 'run/file'."""
    digests = {}
    for name, (config, edits, commands) in RUNS.items():
        doc = json.loads((CONFIG_DIR / config).read_text())
        for keys, value in edits.items():
            section = doc
            for key in keys[:-1]:
                section = section[key]
            section[keys[-1]] = value
        path, out, sample = root / f"{name}.json", root / name, root / f"{name}-psd.txt"
        path.write_text(json.dumps(doc))
        calls = [
            ["synth", "--config", path, "--out", out],
            ["fit", out / "spectrum.csv", "--config", path, "--out", out],
            ["crb", "--config", path, "--out", out],
        ]
        calls += [
            ["kstats", sample, "--out", out] if command == "kstats" else [command, "--config", path, "--out", out]
            for command in commands
        ]
        for argv in calls:
            if argv[0] == "kstats":
                rows = (out / "spectrum.csv").read_text().splitlines()[1:]
                sample.write_text("".join(row.split(",")[1] + "\n" for row in rows))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv])
            assert code == 0, f"{name}: {argv[0]} exited {code}"
        for f in sorted(out.iterdir()):
            digests[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def moved(expected: dict, got: dict) -> list:
    """'run/file old8 -> new8' for each digest that differs between two manifests, sorted."""
    return [
        f"{k} {expected.get(k, 'absent')[:8]} -> {got.get(k, 'absent')[:8]}"
        for k in sorted(expected.keys() | got.keys())
        if expected.get(k) != got.get(k)
    ]


def test_kappa2_tenth_is_the_reference_instrument_at_a_tenth_of_kappa2():
    want = dataclasses.replace(REFERENCE_INSTRUMENT, kappa2=REFERENCE_INSTRUMENT.kappa2 * 0.1)
    assert _parse_instrument(KAPPA2_TENTH) == want


def test_shipped_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["made_with"] != environment():
        pytest.skip(f"manifest made with {manifest['made_with']}, this is {environment()}: bits not comparable")
    changes = moved(manifest["sha256"], outputs(tmp_path))
    assert not changes, "outputs differ from the manifest: " + ", ".join(changes)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = outputs(Path(tmp))
    old = json.loads(MANIFEST.read_text())["sha256"] if MANIFEST.exists() else {}
    changes = moved(old, digests)
    print("\n".join(changes + [f"{len(changes)} of {len(old.keys() | digests.keys())} digests moved, added or removed"]))
    MANIFEST.write_text(json.dumps({"made_with": environment(), "sha256": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
