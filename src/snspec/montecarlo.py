"""End-to-end statistical validation: many synthetic acquisitions, a fit per
acquisition, and the comparison of the fitted-parameter scatter against the
covariance bound.

The comparison metric is the normalized deviation |Gamma_th - Gamma_exp| /
sigma_th, where sigma_th is the Wishart standard error of an N-sample
covariance estimate. Deviations of a few or less mean the bound describes the
estimator; the report carries all four matrices so nothing has to be rerun to
inspect a discrepancy.

Seeding contract: trial k draws from numpy's default_rng seeded with
(master_seed, k). Results are therefore independent of execution order and of
the thread count, and any single trial can be replayed in isolation. All
trials are fitted in one stacked solve, bit for bit as if each were alone.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .estimation import k2, mle_fit_stack, sample_covariance, var_k2
from .fisher import fisher_integral, normalized_deviation, wishart_std
from .model import SpectralParams
from .synthesis import (
    SYNTHESIS_ROUTES,
    AcquisitionConfig,
    average_spectra,
    coarse_grain,
    periodogram,
    sample_periodogram_exact,
    synthesize_timeseries,
)

__all__ = ["ValidationReport", "run_validation", "trial_spectrum"]


@dataclass(frozen=True)
class ValidationReport:
    """Everything a theory-vs-Monte-Carlo comparison produced."""

    gamma_exp: np.ndarray
    gamma_th: np.ndarray
    sigma_th: np.ndarray
    deviation: np.ndarray
    max_deviation: float
    mean_fit: np.ndarray
    # per-diagonal unbiased variance of the fitted parameters and its own
    # standard error, sqrt(var(k2))
    k2_diag: np.ndarray
    k2_stderr: np.ndarray
    n_trials: int
    n_failures: int
    master_seed: int
    synthesis: str
    n_eff: int
    window: tuple[float, float]


def trial_spectrum(v: SpectralParams, cfg: AcquisitionConfig, seed, synthesis: str = "timeseries"):
    """One synthetic averaged spectrum, by either generation route.

    "timeseries" runs the physical pipeline: n_ave Gaussian records, a
    periodogram each, average, coarse-grain. "gamma" draws the averaged bins
    directly from their exact sampling law.
    """
    if synthesis == "gamma":
        return sample_periodogram_exact(v, cfg, seed)
    if synthesis != "timeseries":
        raise ConfigError(f"unknown synthesis route {synthesis!r}; known: {SYNTHESIS_ROUTES}")
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(cfg.n_ave):
        ts = synthesize_timeseries(v, cfg, rng)
        records.append(periodogram(ts))
    return coarse_grain(average_spectra(records), cfg.n_bin)


def run_validation(
    v: SpectralParams,
    cfg: AcquisitionConfig,
    n_trials: int,
    master_seed: int,
    threads: int = 1,
    synthesis: str = "timeseries",
) -> ValidationReport:
    """Synthesize and fit n_trials spectra, then compare scatter to theory.

    threads > 1 synthesizes the spectra in a thread pool; one mle_fit_stack
    call fits them all. Trials whose fit does not converge count as failures,
    excluded from the covariance; the report flags the count rather than
    raising, since a rare non-convergence is a property of the data, not a
    tool fault. A singular information matrix raises NumericalError before
    any trial runs.
    """
    if n_trials < 2:
        raise ConfigError(f"n_trials must be at least 2, got {n_trials}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    window = (cfg.fit_lo, cfg.fit_hi)
    gamma_th = fisher_integral(v, window, cfg.coarse_spacing, cfg.n_eff).gamma_th
    if gamma_th is None:
        raise NumericalError("information matrix is singular for this model: no bound to test")

    s_bar = np.empty((n_trials, cfg.coarse_grid().size))

    def synthesize(k):
        s_bar[k] = trial_spectrum(v, cfg, (master_seed, k), synthesis).s_bar

    if threads == 1:
        list(map(synthesize, range(n_trials)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(synthesize, range(n_trials)))
    fits = mle_fit_stack(cfg.coarse_grid(), s_bar, window)

    good = [f.v_hat for f in fits if f.converged]
    n_failures = n_trials - len(good)
    if len(good) < 2:
        raise ConfigError(
            f"only {len(good)} of {n_trials} fits converged, cannot form a covariance"
        )
    cov = sample_covariance(good)
    sigma_th = wishart_std(gamma_th, cov.n_samples)
    dev = normalized_deviation(cov.gamma, gamma_th, cov.n_samples)

    samples = np.array([g.as_array() for g in good])
    # a converged fit onto a sub-bin line (s_at ~ 1e138) overflows these: inf/NaN
    with np.errstate(over="ignore", invalid="ignore"):
        k2_diag = np.array([k2(samples[:, j]) for j in range(4)])
        k2_stderr = np.sqrt([max(var_k2(samples[:, j]), 0.0) for j in range(4)])

    return ValidationReport(
        gamma_exp=cov.gamma,
        gamma_th=gamma_th,
        sigma_th=sigma_th,
        deviation=dev,
        max_deviation=float(np.max(dev)),
        mean_fit=cov.mean,
        k2_diag=k2_diag,
        k2_stderr=k2_stderr,
        n_trials=n_trials,
        n_failures=n_failures,
        master_seed=int(master_seed),
        synthesis=synthesis,
        n_eff=cfg.n_eff,
        window=window,
    )
