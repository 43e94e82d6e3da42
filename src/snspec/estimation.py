"""Spectral fitting and cumulant estimators.

The fit minimizes Whittle's W = sum_i (ln f_i + S_bar_i/f_i) over the bins of
the fit window: an averaged bin follows a Gamma(n_eff) law with mean f_i, and
n_eff W is its negative log-likelihood up to a constant, so the estimate is
unbiased to leading order at any n_eff. The solver is damped Fisher scoring
(Levenberg-Marquardt) on theta = (ln s_ph, nu_l, ln s_at, ln delta_nu), nu_l
clipped to the window padded by one width. With J = d ln f / d theta (the
model's log-gradient times the log-scale factors) each step solves
(J^T J + lambda diag(J^T J)) delta = J^T (S_bar/f - 1) through
fisher.invert_psd_stack, one lambda per spectrum. That is one Cholesky of
the active rows, whose pivots certify full rank, and an eigen-factorization
of the rows they do not certify; a row whose matrix is rank-deficient fails.
mle_fit_stack fits spectra stacked on one grid, each row with its bits alone,
and returns arrays; mle_fit is its one-row case and the one place that builds
a FitResult.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fisher import invert_psd_stack
from .model import SpectralParams, eval_psd, grad_log_psd
from .synthesis import Spectrum

__all__ = [
    "FitResult",
    "chi_squared",
    "fit_bins",
    "initial_guess",
    "mle_fit",
    "mle_fit_stack",
    "sample_covariance",
    "k2",
    "k4",
    "var_k2",
]

_MIN_WINDOW_BINS = 8
# floor for the s_at guess when the spectrum shows no peak, uV^2/Hz
_S_AT_FLOOR_FRACTION = 1e-6
# A row stops once its objective falls (or a rejected step promised to) by at
# most _STOP_DECREASE per bin, 1e-6 of the log-likelihood n_eff W at the
# reference; after _MAX_STEPS steps a row keeps its best point, unconverged.
# _BLOCK_BINS, rows times bins solved together, bounds the memory.
_STOP_DECREASE = 1e-10
_MAX_STEPS = 200
_LAMBDA_START = 1e-3
_BLOCK_BINS = 1 << 18


@dataclass(frozen=True)
class FitResult:
    """Fit of a spectrum: converged, best so far, or the start of a failed solve."""

    v_hat: SpectralParams
    chi2: float
    n_iter: int
    converged: bool
    window: tuple[float, float]


def fit_bins(nu: np.ndarray, window, min_bins: int = _MIN_WINDOW_BINS) -> np.ndarray:
    """Indices of the bins inside window; fewer than min_bins is a ConfigError."""
    lo, hi = window
    if not (0.0 <= lo < hi):
        raise ConfigError(f"bad fit window [{lo}, {hi}]")
    idx = np.flatnonzero((nu >= lo) & (nu <= hi))
    if idx.size < min_bins:
        raise ConfigError(f"fit window holds {idx.size} bins, need at least {min_bins}")
    return idx


def chi_squared(v: SpectralParams, sp: Spectrum, window) -> float:
    """sum over window bins of (1 - S_bar_i/f(nu_i, v))^2; inf or NaN where that leaves the float range."""
    idx = fit_bins(sp.nu, window, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        r = 1.0 - sp.s_bar[idx] / eval_psd(v, sp.nu[idx])
        return float(np.sum(r * r))


def _initial_guess_stack(nu: np.ndarray, s: np.ndarray, window) -> np.ndarray:
    """initial_guess for every row of s, as an (m, 4) parameter array."""
    m, k_bins = s.shape
    q = max(k_bins // 4, 1)
    s_ph = np.median(np.concatenate([s[:, :q], s[:, -q:]], axis=1), axis=1)
    flat = ~(s_ph > 0.0)  # no wing level: the mean level, for these rows only
    s_ph[flat] = np.maximum(np.mean(np.abs(s[flat]), axis=1), _S_AT_FLOOR_FRACTION)
    k = np.argmax(s, axis=1)
    s_at = s[np.arange(m), k] - s_ph
    s_at = np.where(s_at > 0.0, s_at, _S_AT_FLOOR_FRACTION * s_ph)
    # width from the outermost half-maximum crossings around the peak: the
    # nearest bin below half maximum on each side of it bounds the run
    below = s < (s_ph + 0.5 * s_at)[:, None]
    j = np.arange(k_bins)
    left = np.max(np.where(below & (j < k[:, None]), j, -1), axis=1) + 1
    right = np.min(np.where(below & (j > k[:, None]), j, k_bins), axis=1) - 1
    width = nu[right] - nu[left]
    width = np.where(width > 0.0, width, 0.25 * (window[1] - window[0]))
    return np.column_stack([s_ph, nu[k], s_at, width])


def initial_guess(sp: Spectrum, window) -> SpectralParams:
    """Moment-style starting point for mle_fit.

    s_ph from the median over the outer quartiles of the window (the line
    wings), nu_l from the argmax bin, s_at from the peak height above s_ph,
    delta_nu from the half-maximum crossings (falling back to a quarter of
    the window when the peak is unresolved).
    """
    idx = fit_bins(sp.nu, window)
    return SpectralParams.from_array(_initial_guess_stack(sp.nu[idx], sp.s_bar[idx][None], window)[0])


_LOG = np.array([True, False, True, True])  # the entries of theta that are logs
# the entries that scale with the spectrum; int32 as frexp returns, for which
# ldexp has its fast loop
_LEVEL = np.array([1, 0, 1, 0], dtype=np.int32)
# start levels s_ph outside this range are solved at a power-of-two scale
_LEVEL_RANGE = (2.0**-256, 2.0**256)


def _params(theta: np.ndarray) -> np.ndarray:
    """(s_ph, nu_l, s_at, delta_nu) per row of theta, unvalidated: exp may overflow or underflow."""
    return np.where(_LOG, np.exp(theta), theta)


def _score(theta: np.ndarray, nu: np.ndarray, s: np.ndarray):
    """Objective W, normal matrix J^T J, score J^T (S/f - 1), and whether the
    row is usable: all finite (their sum is), no zero column (an exp underflow)."""
    p = _params(theta)
    g = grad_log_psd(p[:, None, :], nu)
    ratio = s * g[..., 0]
    objective = np.sum(ratio - np.log(g[..., 0]), axis=1)
    p[:, 1] = 1.0
    jac_t = np.swapaxes(np.multiply(g, p[:, None, :], out=g), 1, 2)
    normal = jac_t @ np.swapaxes(jac_t, 1, 2)
    score = (jac_t @ (ratio - 1.0)[..., None])[..., 0]
    ok = np.isfinite(objective + score.sum(axis=1) + normal.sum(axis=(1, 2)))
    return objective, normal, score, ok & (np.diagonal(normal, axis1=1, axis2=2) > 0.0).all(axis=1)


def mle_fit_stack(nu, s_bar, window, guess=None):
    """Whittle fit of every row of s_bar, an (m, len(nu)) stack of spectra.

    guess is None (initial_guess of each row) or an (m, 4) array. Returns
    (v_hat, n_iter, converged) with shapes (m, 4), (m,) and (m,). A row
    leaves the active set once its objective stops falling; n_iter counts its
    steps. A trial step out of the model's range (a non-finite objective or
    normal matrix, or an exp that underflows) is rejected and the damping
    raised. A row whose start is out of range or whose damped normal matrix
    is rank-deficient returns converged=False with its start point as v_hat.
    A row whose start level s_ph lies outside [2^-256, 2^256] is solved
    scaled by the power of two that brings that level into [0.5, 1), so a
    spectrum near either end of the float range fits as it does at scale 1.
    """
    nu = np.asarray(nu, dtype=float)
    idx = fit_bins(nu, window)
    nu, s = nu[idx], np.asarray(s_bar, dtype=float)[:, idx]
    v0 = _initial_guess_stack(nu, s, window) if guess is None else np.asarray(guess, dtype=float)
    bounds = (2.0 * window[0] - window[1], 2.0 * window[1] - window[0])  # padded by one width
    rows = max(1, _BLOCK_BINS // nu.size)
    # a row whose start level is far from 1 is solved scaled by an exact 2^-e,
    # so that its model cannot overflow; e = 0 leaves the other rows' bits
    far = ~((v0[:, 0] >= _LEVEL_RANGE[0]) & (v0[:, 0] <= _LEVEL_RANGE[1]))
    e = np.where(far, np.frexp(v0[:, 0])[1], 0)[:, None] * _LEVEL
    with np.errstate(all="ignore"):
        s, start = np.ldexp(s, -e[:, :1]), np.ldexp(v0, -e)
        theta = np.where(_LOG, np.log(start), np.clip(start, *bounds))
        done = [_solve(theta[b : b + rows], nu, s[b : b + rows], bounds) for b in range(0, len(s), rows)]
        steps, converged, failed = (np.concatenate(x) for x in zip(*done))
        return np.where(failed[:, None], v0, np.ldexp(_params(theta), e)), steps, converged


def _solve(theta, nu, s, bounds):
    """Damped scoring of every row of theta, in place; returns (steps, converged, failed).

    The state holds the active rows only; a row that stops writes its outputs and leaves it."""
    objective, normal, score, ok = _score(theta, nu, s)
    steps, converged, failed = np.zeros(len(s), dtype=int), np.zeros(len(s), dtype=bool), ~ok
    rows = np.flatnonzero(ok)
    th, objective, normal, score, s = theta[rows], objective[rows], normal[rows], score[rows], s[rows]
    lam, grow = np.full(rows.size, _LAMBDA_START), np.full(rows.size, 2.0)
    eye, tol, step = np.eye(4), _STOP_DECREASE * nu.size, 0
    while rows.size:
        diag = np.diagonal(normal, axis1=1, axis2=2)
        inverse, rank = invert_psd_stack(normal + (lam[:, None] * diag)[:, None, :] * eye)
        delta = (inverse @ score[:, :, None])[..., 0]
        # the decrease of W that the scoring model predicts for this step
        predicted = 0.5 * np.sum(delta * (lam[:, None] * diag * delta + score), axis=1)
        trial = th + delta
        trial[:, 1] = np.clip(trial[:, 1], *bounds)
        t_objective, t_normal, t_score, t_ok = _score(trial, nu, s)
        gain = (objective - t_objective) / predicted
        accept = (rank == 4) & t_ok & (gain > 0.0)
        stop = np.where(accept, objective - t_objective <= tol, ~(predicted > tol))
        # Madsen, Nielsen & Tingleff's damping update
        lam *= np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), grow)
        grow = np.where(accept, 2.0, 2.0 * grow)
        th[accept], objective[accept] = trial[accept], t_objective[accept]
        normal[accept], score[accept] = t_normal[accept], t_score[accept]
        step += 1
        now_failed, now_converged = rank < 4, stop & (rank == 4)
        leave = now_failed | now_converged | (step >= _MAX_STEPS)
        if leave.any():
            out, keep = rows[leave], ~leave
            theta[out], steps[out] = th[leave], step
            converged[out], failed[out] = now_converged[leave], now_failed[leave]
            rows, th, objective, normal, score, s, lam, grow = (
                x[keep] for x in (rows, th, objective, normal, score, s, lam, grow))
    return steps, converged, failed


def mle_fit(sp: Spectrum, window, guess: SpectralParams | None = None) -> FitResult:
    """Whittle fit of one spectrum from guess (or initial_guess) inside window.

    The one-row case of mle_fit_stack, with the same bits. Unlike the relative
    least squares sum (1 - S_bar/f)^2, whose minimum sits a factor about
    (1 + 1/n_eff) high in amplitude, the estimate has no 1/n_eff bias; that
    sum is still reported as chi2. A failed fit returns converged=False.
    """
    v_hat, n_iter, converged = mle_fit_stack(
        sp.nu, sp.s_bar[None], window, None if guess is None else guess.as_array()[None]
    )
    v = SpectralParams.from_array(v_hat[0])
    window = (float(window[0]), float(window[1]))
    return FitResult(v, chi_squared(v, sp, window), int(n_iter[0]), bool(converged[0]), window)


def sample_covariance(fits) -> tuple[np.ndarray, np.ndarray]:
    """(mean, gamma): the mean and the maximum-likelihood (divide-by-N), symmetrized
    covariance of an (N, 4) array of fit vectors."""
    arr = np.asarray(fits, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("fits must be an (N, 4) array of parameter vectors")
    n = arr.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = arr.mean(axis=0)
    d = arr - mean
    gamma = d.T @ d / n
    return mean, 0.5 * (gamma + gamma.T)


def _centered_power_sums(x, *orders):
    x = np.asarray(x, dtype=float).ravel()
    d = x - x.mean()
    return x.size, [np.sum(d**r) for r in orders]


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
    m, (p2, p4) = _centered_power_sums(x, 2, 4)
    return float((m * (m + 1) * p4 - 3 * (m - 1) * p2**2) / ((m - 1) * (m - 2) * (m - 3)))


def var_k2(x) -> float:
    """Unbiased estimator of var(k2): (2 m k2^2 + (m-1) k4) / (m (m+1))."""
    m = np.asarray(x).size  # k4 checks m >= 4
    # float_power is C pow, as float ** is, but overflows to inf instead of raising
    return float((2.0 * m * np.float_power(k2(x), 2) + (m - 1) * k4(x)) / (m * (m + 1.0)))
