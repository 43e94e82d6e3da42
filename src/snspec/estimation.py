"""Spectral fitting and cumulant estimators.

The fit minimizes chi^2 = sum_i (1 - S_bar_i/f(nu_i, v))^2 over the bins in
the fit window. Residuals r_i = 1 - S_bar_i/f_i have variance 1/n_eff each at
the true parameters, which makes the objective a likelihood surrogate whose
curvature reproduces the Fisher information treated in the fisher module.

Positivity of s_ph, s_at, delta_nu is enforced by fitting their logs; nu_l is
fitted directly, bounded to the window padded by one window width, in one
trust-region solve. A fit that diverges reports converged=False, never raises.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import ConfigError
from .model import SpectralParams, grad_log_psd_array, psd_array
from .synthesis import Spectrum

__all__ = [
    "FitResult",
    "SampleCovariance",
    "chi_squared",
    "initial_guess",
    "mle_fit",
    "sample_covariance",
    "k2",
    "k4",
    "var_k2",
]

_MIN_WINDOW_BINS = 8
# floor for the s_at guess when the spectrum shows no peak, uV^2/Hz
_S_AT_FLOOR_FRACTION = 1e-6


@dataclass(frozen=True)
class FitResult:
    """Fit of a spectrum: converged, best so far, or the start of a diverged solve."""

    v_hat: SpectralParams
    chi2: float
    n_iter: int
    converged: bool
    window: tuple[float, float]


@dataclass(frozen=True)
class SampleCovariance:
    """Mean and divide-by-N covariance of fitted parameter vectors."""

    mean: np.ndarray
    gamma: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "gamma", gamma)
        if mean.shape != (4,) or gamma.shape != (4, 4):
            raise ValueError("mean must be length 4 and gamma 4x4")
        if not np.allclose(gamma, gamma.T, rtol=1e-12, atol=0.0):
            raise ValueError("gamma must be symmetric")
        if np.any(np.diag(gamma) < 0.0):
            raise ValueError("gamma diagonal must be nonnegative")


def _window_slice(sp: Spectrum, window) -> np.ndarray:
    lo, hi = window
    if not (0.0 <= lo < hi):
        raise ConfigError(f"bad fit window [{lo}, {hi}]")
    mask = (sp.nu >= lo) & (sp.nu <= hi)
    return np.flatnonzero(mask)


def _fit_bins(sp: Spectrum, window) -> tuple[np.ndarray, np.ndarray]:
    """(nu, s_bar) of the bins inside window; too few bins to fit is a ConfigError."""
    idx = _window_slice(sp, window)
    if idx.size < _MIN_WINDOW_BINS:
        raise ConfigError(f"fit window holds {idx.size} bins, need at least {_MIN_WINDOW_BINS}")
    return sp.nu[idx], sp.s_bar[idx]


def _residuals(p, nu, s) -> np.ndarray:
    """r_i = 1 - S_bar_i/f(nu_i, p) for p = (s_ph, nu_l, s_at, delta_nu)."""
    return 1.0 - s / psd_array(*p, nu)


def chi_squared(v: SpectralParams, sp: Spectrum, window) -> float:
    """sum over window bins of (1 - S_bar_i/f(nu_i, v))^2."""
    idx = _window_slice(sp, window)
    r = _residuals(v.as_array(), sp.nu[idx], sp.s_bar[idx])
    return float(r @ r)


def initial_guess(sp: Spectrum, window) -> SpectralParams:
    """Moment-style starting point for mle_fit.

    s_ph from the median over the outer quartiles of the window (the line
    wings), nu_l from the argmax bin, s_at from the peak height above s_ph,
    delta_nu from the half-maximum crossings (falling back to a quarter of
    the window when the peak is unresolved).
    """
    nu, s = _fit_bins(sp, window)
    q = max(s.size // 4, 1)
    s_ph = float(np.median(np.concatenate([s[:q], s[-q:]])))
    if s_ph <= 0.0:
        s_ph = max(float(np.mean(np.abs(s))), _S_AT_FLOOR_FRACTION)
    k = int(np.argmax(s))
    nu_l = float(nu[k])
    s_at = float(s[k] - s_ph)
    if s_at <= 0.0:
        s_at = _S_AT_FLOOR_FRACTION * s_ph
    # width from the outermost half-maximum crossings around the peak
    half = s_ph + 0.5 * s_at
    above = s >= half
    left = k
    while left > 0 and above[left - 1]:
        left -= 1
    right = k
    while right < s.size - 1 and above[right + 1]:
        right += 1
    width = nu[right] - nu[left]
    if width <= 0.0:
        width = 0.25 * (window[1] - window[0])
    return SpectralParams(s_ph=s_ph, nu_l=nu_l, s_at=s_at, delta_nu=width)


def _params(theta: np.ndarray) -> np.ndarray:
    """(s_ph, nu_l, s_at, delta_nu) at theta, unvalidated: exp may overflow or underflow."""
    return np.array([np.exp(theta[0]), theta[1], np.exp(theta[2]), np.exp(theta[3])])


def mle_fit(sp: Spectrum, window, guess: SpectralParams | None = None) -> FitResult:
    """Minimize chi_squared from guess (or initial_guess) inside window.

    One trust-region least-squares solve (scipy's trf) on r_i = 1 - S_bar_i/f_i
    with the analytic Jacobian; trf shrinks its trust region on a trial step
    with non-finite residuals. A solve that leaves the model's range (a
    non-finite Jacobian at an accepted point, or an invalid end point) returns
    converged=False with the start point as v_hat and chi2 taken there.
    n_iter counts the residual evaluations.

    The relative-residual weighting carries a multiplicative amplitude bias
    of order 1/n_eff (a pure scale fit gives E[s_hat] = s (1 + 1/n_eff));
    the center and width estimates are unbiased at that order. Covariances
    are unaffected since they subtract the sample mean.
    """
    nu, s = _fit_bins(sp, window)
    v0 = guess if guess is not None else initial_guess(sp, window)
    theta0 = np.array([np.log(v0.s_ph), v0.nu_l, np.log(v0.s_at), np.log(v0.delta_nu)])
    width = window[1] - window[0]
    lo = np.array([-np.inf, window[0] - width, -np.inf, -np.inf])
    hi = np.array([np.inf, window[1] + width, np.inf, np.inf])
    theta0[1] = np.clip(theta0[1], lo[1], hi[1])
    window = (float(window[0]), float(window[1]))
    nfev = 0

    def residuals(theta):
        nonlocal nfev
        nfev += 1
        return _residuals(_params(theta), nu, s)

    def jacobian(theta):
        p = _params(theta)
        scale = np.array([p[0], 1.0, p[2], p[3]])
        # d r_i / d theta_j = (S_bar_i/f_i) * dlogf_i/dv_j * dv_j/dtheta_j
        jac = (s / psd_array(*p, nu))[:, None] * grad_log_psd_array(*p, nu) * scale
        if not np.all(np.isfinite(jac)):
            raise ValueError("the model's Jacobian is not finite")
        return jac

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            out = least_squares(
                residuals,
                theta0,
                jac=jacobian,
                bounds=(lo, hi),
                method="trf",
                ftol=1e-12,
                xtol=1e-10,
                gtol=None,
                max_nfev=500,
            )
            v_hat = SpectralParams.from_array(_params(out.x))
        except ValueError:  # the jacobian above, or from_array on the end point
            return FitResult(v0, chi_squared(v0, sp, window), nfev, False, window)
    return FitResult(v_hat, float(2.0 * out.cost), nfev, bool(out.status > 0), window)


def sample_covariance(fits) -> SampleCovariance:
    """Mean and maximum-likelihood (divide-by-N) covariance of fit vectors."""
    arr = np.array([f.as_array() if isinstance(f, SpectralParams) else np.asarray(f, dtype=float) for f in fits])
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("fits must be a sequence of 4-component parameter vectors")
    n = arr.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = arr.mean(axis=0)
    d = arr - mean
    gamma = d.T @ d / n
    gamma = 0.5 * (gamma + gamma.T)
    return SampleCovariance(mean=mean, gamma=gamma, n_samples=n)


def _centered_power_sums(x, r_max: int):
    x = np.asarray(x, dtype=float).ravel()
    d = x - x.mean()
    return x.size, [np.sum(d**r) for r in range(2, r_max + 1)]


def k2(x) -> float:
    """Unbiased second cumulant (sample variance with 1/(m-1))."""
    m = np.asarray(x).size
    if m < 2:
        raise ValueError(f"k2 needs at least 2 samples, got {m}")
    m, (p2,) = _centered_power_sums(x, 2)
    return float(p2 / (m - 1))


def k4(x) -> float:
    """Unbiased fourth cumulant.

    Evaluated from centered power sums p_r = sum (x - mean)^r; with the raw
    power sums S_r and S_1 = 0 the textbook formula
    (-6 S_1^4 + 12 m S_1^2 S_2 - 3 m(m-1) S_2^2 - 4 m(m+1) S_1 S_3
     + m^2(m+1) S_4) / (m(m-1)(m-2)(m-3))
    collapses to the centered expression used here, which avoids the
    catastrophic cancellation of the S_1^4 terms for offset data.
    """
    m = np.asarray(x).size
    if m < 4:
        raise ValueError(f"k4 needs at least 4 samples, got {m}")
    m, (p2, _p3, p4) = _centered_power_sums(x, 4)
    return float((m * (m + 1) * p4 - 3 * (m - 1) * p2**2) / ((m - 1) * (m - 2) * (m - 3)))


def var_k2(x) -> float:
    """Unbiased estimator of var(k2): (2 m k2^2 + (m-1) k4) / (m (m+1))."""
    m = np.asarray(x).size  # k4 checks m >= 4
    # float_power is C pow, as float ** is, but overflows to inf instead of raising
    return float((2.0 * m * np.float_power(k2(x), 2) + (m - 1) * k4(x)) / (m * (m + 1.0)))
