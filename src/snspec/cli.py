"""Command-line front end.

Subcommands wire the pipeline end to end: synth writes synthetic spectra, fit
recovers parameters from a spectrum file, validate runs the Monte Carlo
comparison against the covariance bound, crb evaluates the bound alone, scan
maps it over the (n, P) plane, kstats computes cumulant statistics of a sample
file. Every command is deterministic given (config, seed); no output carries a
timestamp. Each writes into --out (default: the current directory), and only
once all of its results are computed. Spectrum files are read and written only
through io, which knows their CSV and JSON layouts.

Exit codes: 0 success, 2 usage or config error (including a malformed
spectrum file), 3 I/O error, 4 numerical failure (NumericalError, any
ValueError still uncaught, or a MemoryError: an array the host cannot hold).
Commands run with numpy's floating-point warnings off: every layer turns a
non-finite value into an error or a JSON null, so a failure prints one line.
On glibc, main also keeps freed heap pages in the process (see
_keep_freed_heap), so repeated calls reuse memory instead of page-faulting.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import warnings

import numpy as np

from . import __version__
from .config import SPECTRAL_KEYS, RunConfig, check_seed, load_config
from .errors import ConfigError, NumericalError
from .estimation import k_statistics, mle_fit
from .fisher import fisher_integral, wishart_std
from .io import (
    read_spectrum_csv,
    read_spectrum_json,
    write_json,
    write_scan_csv,
    write_spectrum_csv,
    write_spectrum_json,
)
from .montecarlo import run_validation, trial_spectrum
from .scan import find_optimum, scan_grid

__all__ = ["main"]


def _provenance(cfg: RunConfig, seed: int) -> dict:
    return {
        "config": cfg.raw,
        "master_seed_used": seed,
        "version": __version__,
    }


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _seed(args, cfg: RunConfig) -> int:
    return check_seed(args.seed, "--seed") if args.seed is not None else cfg.master_seed


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    cfg.acquisition.fit_window()  # a spectrum that no fit could use is not written
    v = cfg.spectral_params()
    seed = _seed(args, cfg)
    sp = trial_spectrum(v, cfg.acquisition, (seed, 0), cfg.synthesis)
    csv_path = _outpath(args, "spectrum.csv")
    write_spectrum_csv(csv_path, sp)
    json_path = _outpath(args, "spectrum.json")
    write_spectrum_json(json_path, sp, synthesis=cfg.synthesis, **_provenance(cfg, seed))
    print(f"synth: {sp.nu.size} bins, n_eff={sp.n_eff}, wrote {csv_path}, {json_path}")
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    acq = cfg.acquisition
    if str(args.spectrum).endswith(".json"):
        sp = read_spectrum_json(args.spectrum)
    else:
        sp = read_spectrum_csv(args.spectrum, n_eff=acq.n_eff)
    result = mle_fit(sp, (acq.fit_lo, acq.fit_hi))
    v = result.v_hat
    payload = {
        **dict(zip(SPECTRAL_KEYS, v.as_array())),
        "chi2": result.chi2,
        "converged": result.converged,
        "n_iter": result.n_iter,
        "window_hz": [acq.fit_lo, acq.fit_hi],
        **_provenance(cfg, cfg.master_seed),
    }
    path = _outpath(args, "fit.json")
    write_json(path, payload)
    print(f"{'parameter':<12}{'value':>16}")
    for name, value in vars(v).items():
        print(f"{name:<12}{value:>16.6g}")
    print(f"chi2={result.chi2:.6g} converged={result.converged} wrote {path}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg)
    report = run_validation(
        cfg.spectral_params(), cfg.acquisition, cfg.n_trials, seed, synthesis=cfg.synthesis
    )
    payload = {
        **vars(report),
        "synthesis": cfg.synthesis,
        "n_eff": cfg.acquisition.n_eff,
        "window_hz": [cfg.acquisition.fit_lo, cfg.acquisition.fit_hi],
        **_provenance(cfg, seed),
    }
    path = _outpath(args, "validate.json")
    write_json(path, payload)
    print(
        f"validate: {report.n_trials} trials ({report.n_failures} failed), "
        f"max normalized deviation {report.max_deviation:.3g}, wrote {path}"
    )
    return 0


def cmd_crb(args) -> int:
    cfg = load_config(args.config)
    acq = cfg.acquisition
    acq.fit_window()
    result = fisher_integral(cfg.spectral_params(), (acq.fit_lo, acq.fit_hi), acq.coarse_spacing, acq.n_eff)
    if result.rank < 4:
        raise NumericalError("information matrix is singular for this model")
    sigma = wishart_std(result.gamma_th, cfg.n_trials)
    payload = {
        "info": result.info,
        "gamma_th": result.gamma_th,
        "sigma_th": sigma,
        "sigma_n_samples": cfg.n_trials,
        "n_eff": result.n_eff,
        "nu_t_hz": result.nu_t,
        "window_hz": list(result.window),
        "method": result.method,
        **_provenance(cfg, cfg.master_seed),
    }
    path = _outpath(args, "crb.json")
    write_json(path, payload)
    diag = np.diag(result.gamma_th)
    print(
        "crb diagonal: "
        + " ".join(f"gamma{j+1}{j+1}={diag[j]:.6g}" for j in range(4))
        + f", wrote {path}"
    )
    return 0


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.require_scan()
    if cfg.instrument is None:
        raise ConfigError(
            "config.model: scan requires 'conditions' with an instrument, "
            "not direct spectral parameters"
        )
    cfg.acquisition.fit_window()
    sg = scan_grid(spec.n_values, spec.p_values, cfg.instrument, cfg.acquisition, spec.xi2)
    optima = {}
    for index in (1, 2, 3, 4):
        report = find_optimum(sg, index)
        optima[f"gamma{index}{index}"] = {
            "param_index": report.param_index,
            "n_opt_per_cm3": report.n_opt,
            "p_opt_w": report.p_opt,
            "gamma_min": report.gamma_min,
            "interior": report.interior,
        }
    csv_path = _outpath(args, "scan.csv")
    write_scan_csv(csv_path, sg)
    json_path = _outpath(args, "optima.json")
    write_json(json_path, {"optima": optima, "xi2": sg.xi2, **_provenance(cfg, cfg.master_seed)})
    for name, o in optima.items():
        print(
            f"{name}: min={o['gamma_min']:.6g} at n={o['n_opt_per_cm3']:.4g} cm^-3, "
            f"P={o['p_opt_w']*1e3:.4g} mW, interior={o['interior']}"
        )
    print(f"scan: wrote {csv_path}, {json_path}")
    return 0


def cmd_kstats(args) -> int:
    try:
        with warnings.catch_warnings():
            # an empty file fails below, as a sample too small for k2
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            x = np.loadtxt(args.sample, ndmin=1)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{args.sample}: could not parse sample values ({exc})") from exc
    if x.ndim != 1:
        raise ConfigError(f"{args.sample}: expected one value per line")
    if not np.isfinite(x).all():
        raise ConfigError(f"{args.sample}: sample values must be finite")
    # extreme values overflow to inf or NaN, which kstats.json writes as null
    try:
        k2, k4, var_k2 = k_statistics(x)
    except ValueError as exc:
        raise ConfigError(f"{args.sample}: {exc}") from exc
    payload = {"n_samples": int(x.size), "k2": k2, "k4": k4, "var_k2": var_k2, "version": __version__}
    path = _outpath(args, "kstats.json")
    write_json(path, payload)
    print(
        f"kstats: n={payload['n_samples']} k2={payload['k2']:.9g} "
        f"k4={payload['k4']:.9g} var_k2={payload['var_k2']:.9g}, wrote {path}"
    )
    return 0


@functools.cache  # built on first use, then shared by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snspec",
        description="Sensitivity analysis for noise power spectra: synthesis, "
        "fitting, covariance bounds, and (n, P) sensitivity scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags that change what it writes
    def common(p, seed=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory, default .")
        if seed:
            p.add_argument(
                "--seed", type=int, default=None, help="override monte_carlo.master_seed"
            )

    p = sub.add_parser("synth", help="write one synthetic averaged spectrum")
    common(p, seed=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a spectrum file")
    p.add_argument("spectrum", help="spectrum CSV or JSON (from synth)")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="Monte Carlo covariance vs theory")
    common(p, seed=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("crb", help="covariance bound for the configured model")
    common(p)
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("scan", help="map the bound over the (n, P) plane")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("kstats", help="cumulant statistics of a sample file")
    p.add_argument("sample", help="text file, one value per line")
    p.add_argument("--out", default=".", help="output directory, default .")
    p.set_defaults(func=cmd_kstats)

    return parser


@functools.cache  # once per process
def _keep_freed_heap() -> None:
    """Keep freed heap pages in this process, so the next call reuses them.

    By default glibc serves each block of 128 KiB or more by its own mmap and
    hands it back to the kernel when it is freed, and trims the heap top, so
    every validate trial faults its buffers in again. Raising both thresholds
    keeps those pages on the heap. Nothing happens where the C library has no
    mallopt or does not act on it (macOS, Windows, musl). Only the CLI process
    is changed: library callers keep their allocator's defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the cap of glibc's own dynamic threshold
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc's dynamic rule sets it


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, UnicodeDecodeError) as exc:  # a file that is not text is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ValueError, MemoryError) as exc:
        # a ValueError that no layer turned into a ConfigError is a numerical
        # failure, such as a forward model that overflows; so is a grid or
        # record too large to allocate
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
