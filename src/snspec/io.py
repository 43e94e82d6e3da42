"""File formats: CSV for grids and surfaces, JSON for structured reports.

Spectrum files are CSV (nu_hz, psd_uv2_per_hz; the caller supplies n_eff) or
JSON (the same columns as lists, n_eff, provenance keys); only this module
knows either layout. Readers report a malformed file as a ConfigError.

Each CSV table has its own writer, and both write the bytes of
np.savetxt(fmt="%.17g", delimiter=","). The spectrum table is one % formatting
pass over all rows, read back by np.loadtxt. The scan table, which is not read
back, formats each grid axis value once, since its long format repeats each
value on many rows. Floats are written with repr-exact precision (%.17g) so
every emitted file re-ingests bit-identically; writers emit LF newlines and
sorted JSON keys so identical inputs give byte-identical files. write_json
is the one place that turns numpy values into JSON: an array is written as
its nested lists (a numpy float is a float already). JSON files hold no NaN
or Infinity, which RFC 8259 lacks: a non-finite float is null.
"""
from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from .errors import ConfigError
from .synthesis import Spectrum

__all__ = [
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_spectrum_json",
    "read_spectrum_json",
    "write_scan_csv",
    "write_json",
    "read_json",
]

SPECTRUM_HEADER = ["nu_hz", "psd_uv2_per_hz"]
SCAN_HEADER = ["n_cm3", "p_w", "gamma11", "gamma22", "gamma33", "gamma44"]


def _spectrum(path, nu, s_bar, n_eff) -> Spectrum:
    try:
        return Spectrum(nu=nu, s_bar=s_bar, n_eff=n_eff)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_spectrum_csv(path, sp: Spectrum) -> None:
    """Spectrum to two-column CSV in np.savetxt's bytes; n_eff is not stored."""
    values = np.column_stack((sp.nu, sp.s_bar)).ravel().tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(SPECTRUM_HEADER) + "\n")
        fh.write(("%.17g,%.17g\n" * sp.nu.size) % tuple(values))


def read_spectrum_csv(path, n_eff: int = 1) -> Spectrum:
    """Two-column CSV back to a Spectrum with the given n_eff."""
    with open(path, newline="") as fh:
        line = fh.readline()
        body = fh.read()
    first = next(csv.reader([line]), [])
    if first != SPECTRUM_HEADER:
        raise ConfigError(
            f"{path}: expected header {','.join(SPECTRUM_HEADER)}, "
            f"got {','.join(first) if line else 'empty file'}"
        )
    if not body:
        raise ConfigError(f"{path}: no data rows")
    # loadtxt skips empty lines, which csv reads as rows with no fields
    body = body.replace("\r\n", "\n").replace("\r", "\n")
    if body.startswith("\n") or "\n\n" in body:
        raise ConfigError(f"{path}: blank line among the spectrum rows")
    try:
        data = np.loadtxt(
            io.StringIO(body), delimiter=",", ndmin=2, comments=None, quotechar='"'
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric or ragged spectrum rows ({exc})") from exc
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: spectrum rows must have 2 columns")
    return _spectrum(path, data[:, 0], data[:, 1], n_eff)


def write_spectrum_json(path, sp: Spectrum, **extra) -> None:
    """Spectrum to JSON with n_eff; extra keys (provenance) go alongside."""
    write_json(
        path,
        {"nu_hz": sp.nu, "psd_uv2_per_hz": sp.s_bar, "n_eff": sp.n_eff, **extra},
    )


def read_spectrum_json(path) -> Spectrum:
    """JSON from write_spectrum_json back to a Spectrum; other keys are ignored."""
    doc = read_json(path)
    for key in ("nu_hz", "psd_uv2_per_hz"):
        # json yields int, float or bool for a literal; bool is not a number here
        if not (isinstance(doc.get(key), list) and all(type(x) in (int, float) for x in doc[key])):
            raise ConfigError(f"{path}: '{key}' must be a list of numbers")
    return _spectrum(path, doc["nu_hz"], doc["psd_uv2_per_hz"], doc.get("n_eff"))


def write_scan_csv(path, sg) -> None:
    """ScanGrid to long-format CSV, one row per (n, P) cell, in np.savetxt's bytes.

    Each n and P value is formatted once, as the grid repeats it, and the four
    surfaces in one % pass; each row is then its n, its P and its line of
    surfaces.
    """
    n = ["%.17g," % x for x in sg.n_values.tolist()]
    p = ["%.17g," % x for x in sg.p_values.tolist()]
    cells = sg.surfaces.reshape(4, -1).T
    lines = iter(
        (("%.17g,%.17g,%.17g,%.17g\n" * len(cells)) % tuple(cells.ravel().tolist())).splitlines(True)
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(SCAN_HEADER) + "\n")
        fh.write("".join([a + b + next(lines) for a in n for b in p]))


def _finite(x):
    """x with every numpy array as its nested lists and every non-finite
    float as None: RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(x, dict):
        return {key: _finite(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(value) for value in x]
    if isinstance(x, np.ndarray):
        return _finite(x.tolist())
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_json(path, payload: dict[str, Any]) -> None:
    """payload as sorted, indented JSON; its values may be numpy arrays and
    floats, and a non-finite float is written as null.

    The document is encoded whole and written once: json.dump would write
    each of its many small chunks separately."""
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def read_json(path) -> dict[str, Any]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc
