"""Sensitivity analysis for noise spectroscopy experiments.

Synthesizes statistically faithful noise power spectra, fits them by maximum
likelihood, computes Fisher-information/Cramer-Rao covariance bounds, checks
theory against Monte Carlo at Wishart tolerances, and scans experimental
parameter space for sensitivity optima, including squeezed-probe operation.
"""

from .errors import ConfigError, NumericalError
from .model import (
    ExperimentConditions,
    InstrumentConstants,
    SpectralParams,
    eval_psd,
    grad_log_psd,
    params_from_conditions,
    snr,
)
from .fisher import (
    FisherResult,
    error_propagation_covariance,
    fisher_discrete,
    fisher_integral,
    normalized_deviation,
    wishart_std,
)
from .synthesis import (
    AcquisitionConfig,
    Spectrum,
    TimeSeries,
    average_spectra,
    coarse_grain,
    periodogram,
    sample_periodogram_exact,
    sample_periodogram_exact_stack,
    synthesize_timeseries,
    timeseries_periodogram_stack,
)
from .estimation import (
    FitResult,
    SampleCovariance,
    chi_squared,
    initial_guess,
    k2,
    k4,
    mle_fit,
    mle_fit_stack,
    sample_covariance,
    var_k2,
)
from .montecarlo import ValidationReport, run_validation, trial_spectra, trial_spectrum
from .scan import OptimumReport, ScanGrid, find_optimum, scan_grid, squeezing_gain
from .profiles import (
    PROFILES,
    REFERENCE_ACQUISITION,
    REFERENCE_CONDITIONS,
    REFERENCE_INSTRUMENT,
    default_scan_axes,
)
from .config import RunConfig, ScanSpec, config_from_dict, load_config

__version__ = "0.1.0"
