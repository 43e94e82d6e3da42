"""Sensitivity analysis for noise spectroscopy experiments.

Synthesizes statistically faithful noise power spectra, fits them by maximum
likelihood, computes Fisher-information/Cramer-Rao covariance bounds, checks
theory against Monte Carlo at Wishart tolerances, and scans experimental
parameter space for sensitivity optima, including squeezed-probe operation.
"""

__version__ = "0.1.0"
