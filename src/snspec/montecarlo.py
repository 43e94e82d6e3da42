"""End-to-end statistical validation: many synthetic acquisitions, a fit per
acquisition, and the comparison of the fitted-parameter scatter against the
covariance bound.

The comparison metric is the normalized deviation |Gamma_th - Gamma_exp| /
sigma_th, where sigma_th is the Wishart standard error of an N-sample
covariance estimate. Deviations of a few or less mean the bound describes the
estimator; the report carries all four matrices so nothing has to be rerun to
inspect a discrepancy.

Seeding contract: trial k draws from numpy's default_rng seeded with
(master_seed, k). Results are therefore independent of execution order, and
any single trial can be replayed in isolation. The trials are synthesized as
one serial (n_trials, K) array program and fitted in one stacked solve, each
bit for bit as if alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .estimation import fit_bins, k2, mle_fit_stack, sample_covariance, var_k2
from .fisher import fisher_integral, normalized_deviation, wishart_std
from .model import SpectralParams
from .synthesis import (
    SYNTHESIS_ROUTES,
    AcquisitionConfig,
    Spectrum,
    sample_periodogram_exact_stack,
    timeseries_periodogram_stack,
)

__all__ = ["ValidationReport", "run_validation", "trial_spectra", "trial_spectrum"]


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


def trial_spectra(
    v: SpectralParams, cfg: AcquisitionConfig, seeds, synthesis: str = "timeseries"
) -> np.ndarray:
    """Synthetic averaged spectra by either route, one row of bin means per
    seed: a (len(seeds), K) array.

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
    s_bar = stack(v, cfg, seeds)
    if not (np.isfinite(s_bar).all() and (s_bar >= 0.0).all()):
        raise NumericalError("synthesized spectra hold a non-finite or negative bin")
    return s_bar


def trial_spectrum(
    v: SpectralParams, cfg: AcquisitionConfig, seed, synthesis: str = "timeseries"
) -> Spectrum:
    """One synthetic averaged spectrum on cfg.coarse_grid(): trial_spectra's one-row case."""
    return Spectrum(cfg.coarse_grid(), trial_spectra(v, cfg, [seed], synthesis)[0], cfg.n_eff)


def run_validation(
    v: SpectralParams,
    cfg: AcquisitionConfig,
    n_trials: int,
    master_seed: int,
    synthesis: str = "timeseries",
) -> ValidationReport:
    """Synthesize and fit n_trials spectra, then compare scatter to theory.

    One trial_spectra stack holds the spectra, and one mle_fit_stack call
    fits them all. Trials whose fit does not converge count as failures,
    excluded from the covariance; the report flags the count rather than
    raising, since a rare non-convergence is a property of the data, not a
    tool fault. A fit window with too few bins raises ConfigError and a
    singular information matrix NumericalError, both before any trial is
    synthesized.
    """
    if n_trials < 2:
        raise ConfigError(f"n_trials must be at least 2, got {n_trials}")
    window = (cfg.fit_lo, cfg.fit_hi)
    nu = cfg.coarse_grid()
    fit_bins(nu, window)  # a window too narrow to fit fails before any synthesis
    bound = fisher_integral(v, window, cfg.coarse_spacing, cfg.n_eff)
    if bound.rank < 4:
        raise NumericalError("information matrix is singular for this model: no bound to test")

    seeds = [(master_seed, k) for k in range(n_trials)]
    s_bar = trial_spectra(v, cfg, seeds, synthesis)
    v_hat, _, converged = mle_fit_stack(nu, s_bar, window)

    good = v_hat[converged]
    n_failures = n_trials - len(good)
    if len(good) < 2:
        raise ConfigError(
            f"only {len(good)} of {n_trials} fits converged, cannot form a covariance"
        )
    mean_fit, gamma_exp = sample_covariance(good)
    sigma_th = wishart_std(bound.gamma_th, len(good))
    dev = normalized_deviation(gamma_exp, bound.gamma_th, len(good))

    # a converged fit onto a sub-bin line (s_at ~ 1e138) overflows these: inf/NaN
    with np.errstate(over="ignore", invalid="ignore"):
        k2_diag = np.array([k2(x) for x in good.T])
        k2_stderr = np.sqrt([max(var_k2(x), 0.0) for x in good.T])

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
        master_seed=int(master_seed),
        synthesis=synthesis,
        n_eff=cfg.n_eff,
        window=window,
    )
