"""End-to-end statistical validation: many synthetic acquisitions, a fit per
acquisition, and the comparison of the fitted-parameter scatter against the
covariance bound.

The comparison metric is the normalized deviation |Gamma_th - Gamma_exp| /
sigma_th, where sigma_th is the Wishart standard error of an N-sample
covariance estimate. Deviations of a few or less mean the bound describes the
estimator; the report carries all four matrices so nothing has to be rerun to
inspect a discrepancy.

Seeding contract: trial k draws from the generator numpy's
default_rng((master_seed, k)) gives, PCG64 in the same state, so results
are independent of execution order and any single trial can be replayed in
isolation. The seeds are built once per run (trial_seeds) as the entropy
words numpy's SeedSequence forms from (master_seed, k): master_seed's
32-bit words, lowest first, then k, one uint32 row per trial. The route's
stack in synthesis hashes all the rows into their PCG64 states in one pass
of array arithmetic, SeedSequence's own steps on every row at once, and
builds each trial's generator from its state as the trial is drawn;
default_rng itself is not called. The trials run in blocks of
_BLOCK_BINS // (window bins) consecutive trials (one at least), each
synthesized on the coarse bins of cfg.fit_window() only (in slices on worker
threads for the timeseries route's long records) and fitted in one stacked
solve, each row bit for bit as if alone: row k holds the window's columns of
trial_spectrum(v, cfg, (master_seed, k)). Only fits and flags outlive a block.
On the gamma route a trial's generator draws the window's bins first (the
stream order of synthesis), so a trial draws its window's variates alone.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .estimation import k2, k_statistics, mle_fit_stack, sample_covariance
from .fisher import fisher_integral, normalized_deviation, wishart_std
from .model import SpectralParams
from .synthesis import (
    SYNTHESIS_ROUTES,
    AcquisitionConfig,
    Spectrum,
    _seed_words,
    sample_periodogram_exact_stack,
    timeseries_periodogram_stack,
)

__all__ = ["ValidationReport", "run_validation", "trial_seeds", "trial_spectra", "trial_spectrum"]

_BLOCK_BINS = 1 << 16  # rows x window bins of a block: its solve bounds a run's memory


@dataclass(frozen=True)
class ValidationReport:
    """Everything a theory-vs-Monte-Carlo comparison produced.

    Its fields are the computed fields of validate.json, under the same
    names: the CLI writes vars(report) and adds only the run's settings and
    provenance, so a field added here is a field of the file.
    """

    gamma_exp: np.ndarray
    gamma_th: np.ndarray
    sigma_th: np.ndarray
    deviation: np.ndarray
    max_deviation: float
    mean_fit: np.ndarray
    # per-diagonal unbiased variance of the fitted parameters and its own
    # standard error, sqrt(var(k2)); NaN below 4 converged fits, and where
    # the var(k2) estimate is negative, as it can be at a few fits
    k2_diag: np.ndarray
    k2_stderr: np.ndarray
    n_trials: int
    n_failures: int


def trial_spectra(
    v: SpectralParams,
    cfg: AcquisitionConfig,
    seeds,
    synthesis: str = "timeseries",
    bins: slice = slice(None),
) -> np.ndarray:
    """Synthetic averaged spectra by either route, one row of bin means per
    seed on the contiguous range bins of cfg.coarse_grid(), the whole grid
    by default: a (len(seeds), len(grid[bins])) array.

    "timeseries" runs the physical pipeline: n_ave Gaussian records, a
    periodogram each, average, coarse-grain. "gamma" draws the averaged bins
    directly from their exact sampling law. The finished stack must be finite
    and nonnegative.
    """
    if synthesis == "gamma":
        stack = sample_periodogram_exact_stack
    elif synthesis == "timeseries":
        stack = timeseries_periodogram_stack
    else:
        raise ConfigError(f"unknown synthesis route {synthesis!r}; known: {SYNTHESIS_ROUTES}")
    s_bar = stack(v, cfg, seeds, bins)
    if not (np.isfinite(s_bar).all() and (s_bar >= 0.0).all()):
        raise NumericalError("synthesized spectra hold a non-finite or negative bin")
    return s_bar


def trial_spectrum(
    v: SpectralParams, cfg: AcquisitionConfig, seed, synthesis: str = "timeseries"
) -> Spectrum:
    """One synthetic averaged spectrum on cfg.coarse_grid(): trial_spectra's one-row case."""
    return Spectrum(cfg.coarse_grid(), trial_spectra(v, cfg, [seed], synthesis)[0], cfg.n_eff)


def trial_seeds(master_seed: int, n_trials: int) -> np.ndarray:
    """The entropy words of (master_seed, k) for k < n_trials: an (n_trials,
    w + 1) uint32 array whose row k holds master_seed's w 32-bit words,
    lowest first, then k (one word, as n_trials <= 2^32). default_rng(row k)
    has the state of default_rng((master_seed, k))."""
    words = _seed_words(operator.index(master_seed))
    seeds = np.empty((n_trials, len(words) + 1), dtype=np.uint32)
    seeds[:, :-1] = words
    seeds[:, -1] = np.arange(n_trials)
    return seeds


def run_validation(
    v: SpectralParams,
    cfg: AcquisitionConfig,
    n_trials: int,
    master_seed: int,
    synthesis: str = "timeseries",
) -> ValidationReport:
    """Synthesize and fit n_trials spectra, then compare scatter to theory.

    Each block of trials is one trial_spectra stack on the fit window's bins
    alone, the only bins the fit and the bound read, fitted by one
    mle_fit_stack call. Trials whose fit does not converge count as failures,
    excluded from the covariance; the report flags the count rather than
    raising, since a rare non-convergence is a property of the data, not a
    tool fault; fewer than 2 converged fits raise ConfigError, and with 2 or
    3 the k2_stderr entries are NaN, as is any whose var(k2) estimate is
    negative. A fit window with too few bins raises ConfigError and a
    singular information matrix NumericalError, both before any trial is
    synthesized.
    """
    if n_trials < 2:
        raise ConfigError(f"n_trials must be at least 2, got {n_trials}")
    window = (cfg.fit_lo, cfg.fit_hi)
    bins = cfg.fit_window()  # a window too narrow to fit fails before any synthesis
    bound = fisher_integral(v, window, cfg.coarse_spacing, cfg.n_eff)
    if bound.rank < 4:
        raise NumericalError("information matrix is singular for this model: no bound to test")

    seeds, nu = trial_seeds(master_seed, n_trials), cfg.coarse_grid(bins)
    rows = max(1, _BLOCK_BINS // nu.size)
    v_hat, converged = np.empty((n_trials, 4)), np.empty(n_trials, dtype=bool)
    for b in range(0, n_trials, rows):
        s_bar = trial_spectra(v, cfg, seeds[b : b + rows], synthesis, bins)
        v_hat[b : b + rows], _, converged[b : b + rows] = mle_fit_stack(nu, s_bar, window)

    good = v_hat[converged]
    n_failures = n_trials - len(good)
    if len(good) < 2:
        raise ConfigError(
            f"only {len(good)} of {n_trials} fits converged, cannot form a covariance"
        )
    mean_fit, gamma_exp = sample_covariance(good)
    sigma_th = wishart_std(bound.gamma_th, len(good))
    dev = normalized_deviation(gamma_exp, bound.gamma_th, len(good))

    # a converged fit onto a sub-bin line (s_at ~ 1e138) overflows these:
    # inf/NaN; var(k2) needs 4 samples, so 2 or 3 fits leave it NaN, and the
    # root of a negative estimate is NaN too, not a standard error of 0
    with np.errstate(over="ignore", invalid="ignore"):
        stats = [k_statistics(x) if len(good) >= 4 else (k2(x), np.nan, np.nan) for x in good.T]
        k2_diag = np.array([k for k, _, _ in stats])
        k2_stderr = np.sqrt([var for _, _, var in stats])

    return ValidationReport(
        gamma_exp=gamma_exp,
        gamma_th=bound.gamma_th,
        sigma_th=sigma_th,
        deviation=dev,
        max_deviation=float(np.max(dev)),
        mean_fit=mean_fit,
        k2_diag=k2_diag,
        k2_stderr=k2_stderr,
        n_trials=n_trials,
        n_failures=n_failures,
    )
