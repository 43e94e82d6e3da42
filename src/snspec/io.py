"""File formats: CSV for grids and surfaces, JSON for structured reports.

Spectrum files are CSV (nu_hz, psd_uv2_per_hz; the caller supplies n_eff) or
JSON (the same columns as lists, n_eff, provenance keys); only this module
knows either layout. Readers report a malformed file as a ConfigError.

Both CSV tables (spectrum and scan) are written by one % formatting pass over
all rows; only the spectrum table is read back, by np.loadtxt. Floats are written with repr-exact precision (%.17g) so
every emitted file re-ingests bit-identically; writers emit LF newlines and
sorted JSON keys so identical inputs give byte-identical files. JSON files
hold no NaN or Infinity, which RFC 8259 lacks: a non-finite float is null.
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


def _write_csv(path, header, cols) -> None:
    """Equal-length columns under the given header, one row per index, in np.savetxt's bytes."""
    data = np.column_stack(cols)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * data.shape[0]) % tuple(data.ravel().tolist()))


def write_spectrum_csv(path, sp: Spectrum) -> None:
    """Spectrum to two-column CSV; n_eff is not stored."""
    _write_csv(path, SPECTRUM_HEADER, (sp.nu, sp.s_bar))


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
        {"nu_hz": sp.nu.tolist(), "psd_uv2_per_hz": sp.s_bar.tolist(), "n_eff": sp.n_eff, **extra},
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
    """ScanGrid to long-format CSV, one row per (n, P) cell."""
    n, p = np.meshgrid(sg.n_values, sg.p_values, indexing="ij")
    _write_csv(path, SCAN_HEADER, (n.ravel(), p.ravel(), *sg.surfaces.reshape(4, -1)))


def _finite(x):
    """x with every non-finite float as None: RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(x, dict):
        return {key: _finite(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(value) for value in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_json(path, payload: dict[str, Any]) -> None:
    """payload as sorted, indented JSON; a non-finite float is written as null."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path) -> dict[str, Any]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc
