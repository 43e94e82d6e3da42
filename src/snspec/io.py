"""File formats: CSV for grids and surfaces, JSON for structured reports.

Spectrum files are CSV (nu_hz, psd_uv2_per_hz; the caller supplies n_eff) or
JSON (the same columns as lists, n_eff, provenance keys); only this module
knows either layout. Readers report a malformed file as a ConfigError.

Both CSV tables write the bytes of np.savetxt(fmt="%.17g", delimiter=","):
every float keeps its repr-exact 17 significant digits, so the file
re-ingests bit-identically (np.loadtxt reads the spectrum table back). One
kernel, _format17, formats a float64 array as '%.17g' % v does, in array
operations. Its exact range is 1e-6 <= |x| < 1e17, where the scale 10^(16-k)
that brings |x| to 17 integer digits is an exact double: Dekker's
error-free product gives the scaled value as hi + lo, hence the correctly
rounded 17-digit integer and the text. Zeros, NaN, infinities and values
outside that range go through '%.17g' % v one by one. Each value fills a
fixed-width byte row padded with NULs, which are deleted when the rows are
joined. Both tables go through one block loop, _write_csv, which formats
_BLOCK_ROWS rows of floats at a time, so the text never grows with the
table. Writers emit LF newlines and sorted JSON keys so identical inputs
give byte-identical files.
write_json is the one place that turns numpy values into JSON: an array is
written as its nested lists (a numpy float is a float already). JSON files
hold no NaN or Infinity, which RFC 8259 lacks: a non-finite float is null.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
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

# CSV rows formatted and written at a time; the shipped 50 x 50 scan is one block
_BLOCK_ROWS = 4096

# _format17 writes a value with 17 significant digits d0..d16 and decimal
# exponent k (|x| rounds to d0.d1...d16 * 10^k) into a row of bytes:
#   0-5 "-0.000" | 6 NUL | 7 d0 | 8-39 ".d1.d2" ... ".d15.d16" | 40-43 "e-0" -k | 44 separator
# and deletes what its form does not print. '%.17g' prints k in -4..16 in fixed
# notation, the rest as d0[.d1..]e-05 and e-06; trailing zero digits go, and
# with them a dot that has no digit after it. Rows are 48 bytes wide, so that
# the sixteen digits after d0 are four aligned 8-byte words ".d.d.d.d".
_WIDTH, _SEP = 48, 44
_HEAD = np.frombuffer(b"-0.000\0\0", np.uint64)[0]
_TAIL = np.frombuffer(b"e-0\0\0\0\0\0", np.uint64)[0]
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a double into two 26-bit halves


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


# 10^j for j = 0..22, each an exact double, with its split halves
_POW = np.array([float(10**j) for j in range(23)])
_POW_HI, _POW_LO = _split(_POW)


@functools.cache
def _group_tables():
    """(words, last): words[p] is the word ".d.d.d.d" of the four digits p,
    and last[10^4 g + p] the index of their last nonzero digit (0: none) in
    group g, which holds digits 4g+1..4g+4."""
    p = np.arange(10**4)
    digits = p // np.array([1000, 100, 10, 1])[:, None] % 10
    text = np.full((10**4, 8), ord("."), np.uint8)
    text[:, 1::2] = 48 + digits.T
    t = np.argmax(digits[::-1] != 0, axis=0)  # zeros after the last nonzero digit
    last = np.where(p != 0, 4 - t + 4 * np.arange(4)[:, None], 0)
    return text.view(np.uint64).ravel(), last.ravel().astype(np.uint8)


def _masks():
    """Bytes kept, 0 or 0xFF, by (sign bit, k + 6, index of the last nonzero digit)."""
    neg = np.arange(2)[:, None, None, None]
    k = np.arange(-6, 17)[None, :, None, None]
    last = np.arange(17)[None, None, :, None]
    b = np.arange(_WIDTH)
    j = (b - 7) // 2  # digit j sits at byte 7 + 2j, the dot before digit j + 1 after it
    digit = (b >= 7) & (b <= 39) & (b % 2 == 1)
    dot = (b >= 8) & (b <= 38) & (b % 2 == 0)
    fixed_below_one = (k >= -4) & (k <= -1)  # 0.00ddd: -k - 1 zeros after the point
    dot_after = np.where(k >= 0, k, np.where(k <= -5, 0, -1))
    keep = (
        ((b == 0) & (neg == 1))
        | ((b >= 1) & (b <= 2) & fixed_below_one)
        | ((b >= 3) & (b <= 5) & fixed_below_one & (b - 2 <= -k - 1))
        | (digit & ((j <= last) | (j <= k)))
        | (dot & (j == dot_after) & (j < last))
        | ((b >= 40) & (b <= 43) & (k <= -5))
    )
    return (keep * np.uint8(0xFF)).reshape(-1, _WIDTH).view(np.uint64)


_MASK = _masks()


def _round17(a, k):
    """round(a * 10^(16 - k)) half to even, as int64, for a > 0 and k in -6..16.

    Dekker's product gives a * 10^(16 - k) exactly as hi + lo. Where hi >= 2^53
    it is an even integer, so hi + rint(lo) is the rounded sum; below that the
    result is less than 10^16 and only tells the caller that k was too large.
    """
    m = 16 - k
    b, b_hi, b_lo = np.take(_POW, m), np.take(_POW_HI, m), np.take(_POW_LO, m)
    a_hi, a_lo = _split(a)
    hi = a * b
    lo = a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal(a):
    """(k, D) of each a in the exact range: a rounds to D * 10^(k - 16), with
    D an int64 in [10^16, 10^17)."""
    with np.errstate(all="ignore"):
        k = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
        # log10 and the rounding to 17 digits move k by at most one
        digits = _round17(a, k)
        off = (digits >= 10**17).astype(np.intp) - (digits < 10**16)
        fix = np.flatnonzero(off)
        k[fix] += off[fix]
        digits[fix] = _round17(a[fix], k[fix])
    return k, digits


def _rows(k, digits):
    """Each value's row with all of its characters, and the index (0..16) of
    its last nonzero digit."""
    words, last = _group_tables()
    # d0..d8 and d9..d16 as int32, then their groups of four digits from the right
    halves = np.empty((2, digits.size), np.int32)
    np.floor_divide(digits, 10**8, out=halves[0], casting="unsafe")
    halves[1] = digits - 10**8 * halves[0].astype(np.int64)
    groups = np.empty((2, 2, digits.size), np.intp)
    q = halves // 10**4
    np.subtract(halves, 10**4 * q, out=groups[:, 1])
    d0 = q // 10**4  # d0, and 0 for the lower half
    np.subtract(q, 10**4 * d0, out=groups[:, 0])
    groups = groups.reshape(4, -1)
    out = np.empty((digits.size, _WIDTH), np.uint8)
    out.view(np.uint64)[:, 0] = _HEAD
    out.view(np.uint64)[:, 5] = _TAIL
    out.view(np.uint64)[:, 1:5] = np.take(words, groups).T
    out[:, 7] = 48 + d0[0]
    out[:, 43] = 48 - k
    groups += 10**4 * np.arange(4)[:, None]
    return out, np.maximum.reduce(np.take(last, groups))


def _format17(x) -> np.ndarray:
    """x.shape + (_WIDTH,) uint8: each value as '%.17g' % v, padded with NULs.

    The separator byte _SEP is left NUL for the caller.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    exact = (a > 1e-6) & (a < 1e17)  # a double is never 1e-6 exactly
    k, digits = _decimal(np.where(exact, a, 1.0))
    out, last = _rows(k, digits)
    words = out.view(np.uint64)
    words &= np.take(_MASK, (np.signbit(flat) * 23 + k + 6) * 17 + last, axis=0)
    rest = np.flatnonzero(~exact)
    text = np.array([b"%.17g" % v for v in flat[rest].tolist()], dtype=f"S{_WIDTH}")
    out[rest] = text.view(np.uint8).reshape(-1, _WIDTH)
    return out.reshape(x.shape + (_WIDTH,))


def _write_csv(path, header, n_rows, rows) -> None:
    """header, then n_rows rows of floats; rows(start, stop) gives rows start
    to stop - 1 as a (stop - start, columns) table, _BLOCK_ROWS at a time."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = _format17(rows(start, min(start + _BLOCK_ROWS, n_rows)))
            block[:, :, _SEP] = ord(",")
            block[:, -1, _SEP] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))


def _spectrum(path, nu, s_bar, n_eff) -> Spectrum:
    try:
        return Spectrum(nu=nu, s_bar=s_bar, n_eff=n_eff)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_spectrum_csv(path, sp: Spectrum) -> None:
    """Spectrum to two-column CSV in np.savetxt's bytes; n_eff is not stored."""
    values = np.column_stack((sp.nu, sp.s_bar))
    _write_csv(path, SPECTRUM_HEADER, len(values), lambda start, stop: values[start:stop])


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
    """ScanGrid to long-format CSV, one row per (n, P) cell, in np.savetxt's bytes."""
    cells = sg.surfaces.reshape(4, -1)

    def rows(start, stop):
        n, p = np.divmod(np.arange(start, stop), len(sg.p_values))
        return np.column_stack((sg.n_values[n], sg.p_values[p], cells[:, start:stop].T))

    _write_csv(path, SCAN_HEADER, cells.shape[1], rows)


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
    """The JSON object in the file at path; a malformed document, a key
    written twice in one object and nesting past the parser's recursion
    limit are each a ConfigError naming the file."""

    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"{path}: key '{key}' is written more than once in one object")
            doc[key] = value
        return doc

    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: arrays or objects nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc
