"""Spectral fitting and cumulant estimators.

The fit minimizes Whittle's W = sum_i (ln f_i + S_bar_i/f_i) over the bins of
the fit window, which synthesis.fit_bins finds as one slice of an ascending
grid: an averaged bin follows a Gamma(n_eff) law with mean f_i, and n_eff W
is its negative log-likelihood up to a constant, so the estimate is
unbiased to leading order at any n_eff. The solver is damped Fisher scoring
(Levenberg-Marquardt) on theta = (ln s_ph, nu_l, ln s_at, ln delta_nu), nu_l
clipped to the window padded by one width. J = d ln f / d theta, the 4 x bins
Jacobian, is model.log_jacobian, the kernel the Fisher bounds take to v.
Each step solves (J J^T + lambda diag(J J^T)) delta = J (S_bar/f - 1)
through fisher.invert_psd_stack, one lambda per spectrum. That is one
Cholesky of the active rows, whose pivots certify full rank, and an
eigen-factorization of the rows they do not certify; a row whose matrix is
rank-deficient fails.
Convergence is decided on the fall of W that the scoring model predicts
(Madsen, Nielsen & Tingleff, Methods for Non-Linear Least Squares Problems,
2004): a row whose certified step predicts a fall of at most tol takes that
step without evaluating W there, a Newton step of about sqrt(tol), and
stops; a row also stops after an accepted step that fell by at most tol.
A step that every row accepts adopts the trial state. Every row starts from
the moment estimate of its own bins, its only start, whose width is at
least the bins at or above half maximum; a row with no positive bin, where
W has no minimum, fails there. mle_fit_stack fits spectra stacked on one
grid, each row with its bits alone, and returns arrays; mle_fit is its
one-row case and the one place that builds a FitResult, with
chi2 = sum_i (1 - S_bar_i/f_i(v_hat))^2 over the window's bins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fisher import invert_psd_stack
from .model import SpectralParams, eval_psd, log_jacobian
from .synthesis import Spectrum, fit_bins

__all__ = [
    "FitResult",
    "mle_fit",
    "mle_fit_stack",
    "sample_covariance",
    "k2",
    "k4",
    "k_statistics",
    "var_k2",
]

# floor for the s_at start when the spectrum shows no peak, uV^2/Hz
_S_AT_FLOOR_FRACTION = 1e-6
# A row stops once its certified step predicts, or its accepted step makes, a
# fall of W of at most _STOP_DECREASE per bin, 1e-6 of the log-likelihood
# n_eff W at the reference; after _MAX_STEPS steps a row keeps its best
# point, unconverged.
_STOP_DECREASE = 1e-10
_MAX_STEPS = 200
_LAMBDA_START = 1e-3


@dataclass(frozen=True)
class FitResult:
    """Fit of a spectrum: converged, best so far, or the start of a failed solve."""

    v_hat: SpectralParams
    chi2: float
    n_iter: int
    converged: bool


def _initial_guess_stack(nu: np.ndarray, s: np.ndarray, window) -> np.ndarray:
    """Moment-style start of every row of s, the window's bins: an (m, 4) parameter array.

    s_ph from the median over the outer quartiles of the window (the line
    wings), nu_l from the argmax bin, s_at from the peak height above s_ph,
    delta_nu the larger of two widths at half maximum: the span of the bin
    centres of the run at or above it around the argmax, bounded by the
    nearest bin below it on each side (a quarter of the window where that
    span is zero), and the bin spacing times the count of the window's bins
    at or above it, which a core bin that dips below cannot cut short (from
    the run alone, a strong, wide line could fall into a sub-bin local
    minimum; a one-bin window has no spacing). The rows are taken as given;
    mle_fit_stack hands over each row scaled to its own level.
    The 2q wing bins are sorted once, and their median is the mean of the
    middle pair, NaN where the sorted row ends in NaN, as np.median takes it.
    """
    m, k_bins = s.shape
    q = max(k_bins // 4, 1)
    wings = np.sort(np.concatenate([s[:, :q], s[:, -q:]], axis=1), axis=1)
    s_ph = (wings[:, q - 1] + wings[:, q]) / 2.0
    s_ph[np.isnan(wings[:, -1])] = np.nan
    flat = ~(s_ph > 0.0)  # no wing level: the mean level, for these rows only
    s_ph[flat] = np.maximum(np.mean(np.abs(s[flat]), axis=1), _S_AT_FLOOR_FRACTION)
    k = np.argmax(s, axis=1)
    s_at = s[np.arange(m), k] - s_ph
    s_at = np.where(s_at > 0.0, s_at, _S_AT_FLOOR_FRACTION * s_ph)
    # width: the run of bins at or above half maximum around the argmax,
    # bounded by the nearest bin below it on each side
    below = s < (s_ph + 0.5 * s_at)[:, None]
    j = np.arange(k_bins)
    left = np.max(np.where(below & (j < k[:, None]), j, -1), axis=1) + 1
    right = np.min(np.where(below & (j > k[:, None]), j, k_bins), axis=1) - 1
    width = nu[right] - nu[left]
    width = np.where(width > 0.0, width, 0.25 * (window[1] - window[0]))
    # and at least the spacing times the count of bins at or above it
    spacing = (nu[-1] - nu[0]) / max(k_bins - 1, 1)
    width = np.maximum(width, spacing * (k_bins - np.count_nonzero(below, axis=1)))
    return np.column_stack([s_ph, nu[k], s_at, width])


_LOG = np.array([True, False, True, True])  # the entries of theta that are logs
# the entries that scale with the spectrum; int32 as frexp returns, for which
# ldexp has its fast loop
_LEVEL = np.array([1, 0, 1, 0], dtype=np.int32)
# levels outside this range are brought into [0.5, 1) by an exact power of two
_LEVEL_RANGE = (2.0**-256, 2.0**256)


def _far(x: np.ndarray) -> np.ndarray:
    """Whether each level x lies outside _LEVEL_RANGE (zero and NaN do)."""
    return ~((x >= _LEVEL_RANGE[0]) & (x <= _LEVEL_RANGE[1]))


def _params(theta: np.ndarray) -> np.ndarray:
    """(s_ph, nu_l, s_at, delta_nu) per row of theta, unvalidated: exp of the
    log entries alone may overflow or underflow."""
    return np.exp(theta, out=theta.copy(), where=_LOG)


def _score(theta: np.ndarray, nu: np.ndarray, s: np.ndarray):
    """Objective W = sum (S/f + ln f), normal matrix J J^T, score J (S/f - 1),
    and whether the row is usable: all finite (their sum is), no zero row of J
    (an exp underflow).

    J is model.log_jacobian's (4, rows, bins) planes, and both products are
    batched matmuls on their (rows, 4, bins) view; a row at levels near
    2^1000 stays usable.
    """
    jac, f, ratio = log_jacobian(_params(theta)[:, None, :], nu)
    np.divide(s, f, out=ratio)  # in the bare line's buffer, which the fit does not use
    np.log(f, out=f)
    f += ratio
    objective = np.add.reduce(f, axis=1)
    ratio -= 1.0
    jac = jac.transpose(1, 0, 2)  # (rows, 4, bins)
    normal = jac @ jac.transpose(0, 2, 1)
    score = (jac @ ratio[..., None])[..., 0]
    ok = np.isfinite(objective + np.add.reduce(score, axis=1) + np.add.reduce(normal, axis=(1, 2)))
    return objective, normal, score, ok & np.logical_and.reduce(normal.diagonal(0, 1, 2) > 0.0, axis=1)


def mle_fit_stack(nu, s_bar, window):
    """Whittle fit of every row of s_bar, an (m, len(nu)) stack of spectra on
    the ascending grid nu, read through views of the window's bins.

    Each row starts from its moment estimate. Returns (v_hat, n_iter, converged)
    with shapes (m, 4), (m,) and (m,). A row converges once its certified
    step predicts a fall of W of at most tol (1e-10 per bin), and takes that
    last step without a trial if its parameters stay in the model's range
    (s_ph, s_at and delta_nu^2 finite and above 0), or once an accepted step
    falls by at most tol; n_iter counts its trials, and the last step when
    taken. A trial step out of the model's range (a non-finite objective or
    normal matrix, or an exp that underflows) is rejected and the damping
    raised. A row with no positive bin, whose start is out of range or whose
    damped normal matrix is rank-deficient returns converged=False with its
    start point as v_hat.
    A row whose start level s_ph lies outside [2^-256, 2^256] is solved
    scaled by the power of two that brings that level into [0.5, 1), so a
    spectrum near either end of the float range fits as it does at scale 1.
    The whole stack is solved at once: its caller bounds the memory by the
    rows it passes, as montecarlo.run_validation passes blocks of trials.
    """
    nu = np.asarray(nu, dtype=float)
    bins = fit_bins(nu, window)
    return _fit_window(nu[bins], np.asarray(s_bar, dtype=float)[:, bins], window)


def _fit_window(nu, s, window):
    """mle_fit_stack on the window's bins alone: nu and the columns of s are those bins."""
    # Each row is solved at one exact power-of-two scale 2^-e from its start
    # on, and only its output is scaled back; e = 0 leaves a row's bits. Its
    # start is formed at the level 2^t of its largest bin, where neither the
    # median of two wing bins overflows nor the s_at floor underflows, and e
    # is the level of that start's s_ph where it lies outside _LEVEL_RANGE.
    top = np.max(np.abs(s), axis=1)
    t = np.where(_far(top), np.frexp(top)[1], 0)
    v0 = _initial_guess_stack(nu, np.ldexp(s, -t[:, None]), window)
    e = np.where(_far(np.ldexp(v0[:, 0], t)), np.frexp(v0[:, 0])[1] + t, 0)
    bounds = (2.0 * window[0] - window[1], 2.0 * window[1] - window[0])  # padded by one width
    with np.errstate(all="ignore"):
        s, start = np.ldexp(s, -e[:, None]), np.ldexp(v0, (t - e)[:, None] * _LEVEL)
        theta = np.where(_LOG, np.log(start), np.clip(start, *bounds))
        steps, converged, failed = _solve(theta, nu, s, bounds)
        v_hat = np.where(failed[:, None], start, _params(theta))
        return np.ldexp(v_hat, e[:, None] * _LEVEL), steps, converged


def _solve(theta, nu, s, bounds):
    """Damped scoring of every row of theta, in place; returns (steps, converged, failed).

    The state holds the active rows only; a row that stops writes its outputs
    and leaves it. A row leaves before its trial when its damped normal
    matrix is rank-deficient (failed) or its certified step predicts a fall
    of W of at most tol (converged, the step kept where its parameters stay
    in the model's range), so no row evaluates W only to confirm that it
    has converged; and after its trial when an accepted step fell by at
    most tol (converged) or at _MAX_STEPS steps (not converged)."""
    objective, normal, score, ok = _score(theta, nu, s)
    ok &= np.logical_or.reduce(s > 0.0, axis=1)  # an all-zero window: W = sum ln f has no minimum
    steps, converged, failed = np.zeros(len(s), dtype=int), np.zeros(len(s), dtype=bool), ~ok
    rows = np.flatnonzero(ok)
    th, objective, normal, score, s = theta[rows], objective[rows], normal[rows], score[rows], s[rows]
    lam, grow = np.full(rows.size, _LAMBDA_START), np.full(rows.size, 2.0)
    eye, tol, step = np.eye(4), _STOP_DECREASE * nu.size, 0
    while rows.size:
        damping = lam[:, None] * normal.diagonal(0, 1, 2)
        inverse, rank = invert_psd_stack(normal + damping[:, None, :] * eye)
        delta = (inverse @ score[:, :, None])[..., 0]
        # the decrease of W that the scoring model predicts for this step
        predicted = 0.5 * np.add.reduce(delta * (damping * delta + score), axis=1)
        trial = th + delta
        trial[:, 1].clip(*bounds, out=trial[:, 1])
        # before the trial: a rank loss fails, a predicted fall of at most tol converges
        now_failed = rank < 4
        now_converged = ~now_failed & ~(predicted > tol)
        leave = now_failed | now_converged
        if np.logical_or.reduce(leave):
            # the model's range: s_ph, s_at and delta_nu^2, which it forms, finite and above 0
            p = _params(trial)
            p[:, 3] *= p[:, 3]
            taken = now_converged & np.logical_and.reduce(np.isfinite(p), axis=1)
            taken &= np.logical_and.reduce(p[:, _LOG] > 0.0, axis=1)
            out, keep = rows[leave], ~leave
            theta[out] = np.where(taken[:, None], trial, th)[leave]
            steps[out], converged[out], failed[out] = step + taken[leave], now_converged[leave], now_failed[leave]
            rows, th, objective, normal, score, s, lam, grow, trial, predicted = (
                x[keep] for x in (rows, th, objective, normal, score, s, lam, grow, trial, predicted))
            if not rows.size:
                break
        t_objective, t_normal, t_score, t_ok = _score(trial, nu, s)
        fall = objective - t_objective
        gain = fall / predicted
        accept = t_ok & (gain > 0.0)
        # Madsen, Nielsen & Tingleff's damping update
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        if np.logical_and.reduce(accept):  # the common step: the trial is the new state
            lam *= shrink
            grow.fill(2.0)
            th, objective, normal, score = trial, t_objective, t_normal, t_score
        else:
            lam *= np.where(accept, shrink, grow)
            grow = np.where(accept, 2.0, 2.0 * grow)
            for x, t_x in ((th, trial), (objective, t_objective), (normal, t_normal), (score, t_score)):
                np.copyto(x, t_x, where=accept.reshape((-1,) + (1,) * (x.ndim - 1)))
        step += 1
        # after it: an accepted step that fell by at most tol converges its row
        stop = accept & (fall <= tol)
        leave = stop | (step >= _MAX_STEPS)
        if np.logical_or.reduce(leave):
            out, keep = rows[leave], ~leave
            theta[out], steps[out], converged[out] = th[leave], step, stop[leave]
            rows, th, objective, normal, score, s, lam, grow = (
                x[keep] for x in (rows, th, objective, normal, score, s, lam, grow))
    return steps, converged, failed


def mle_fit(sp: Spectrum, window) -> FitResult:
    """Whittle fit of one spectrum inside window, from its moment estimate.

    The one-row case of mle_fit_stack, with the same bits. Unlike the relative
    least squares, whose minimum sits a factor about (1 + 1/n_eff) high in
    amplitude, the estimate has no 1/n_eff bias; that sum is still reported:
    chi2 = sum (1 - S_bar_i/f_i(v_hat))^2 over the window's bins, inf or NaN
    where it leaves the float range. A failed fit returns converged=False.
    """
    bins = fit_bins(sp.nu, window)
    nu, s = sp.nu[bins], sp.s_bar[bins]
    v_hat, n_iter, converged = _fit_window(nu, s[None], window)
    v = SpectralParams.from_array(v_hat[0])
    with np.errstate(over="ignore", invalid="ignore"):
        r = 1.0 - s / eval_psd(v, nu)
        chi2 = float(np.sum(r * r))
    return FitResult(v, chi2, int(n_iter[0]), bool(converged[0]))


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


def _require(x, m_min: int, name: str) -> None:
    m = np.asarray(x).size
    if m < m_min:
        raise ValueError(f"{name} needs at least {m_min} samples, got {m}")


def _k2(m: int, p2) -> float:
    return float(p2 / (m - 1))


def k2(x) -> float:
    """Unbiased second cumulant (sample variance with 1/(m-1))."""
    _require(x, 2, "k2")
    m, (p2,) = _centered_power_sums(x, 2)
    return _k2(m, p2)


def k4(x) -> float:
    """Unbiased fourth cumulant.

    Evaluated from centered power sums p_r = sum (x - mean)^r; with the raw
    power sums S_r and S_1 = 0 the textbook formula
    (-6 S_1^4 + 12 m S_1^2 S_2 - 3 m(m-1) S_2^2 - 4 m(m+1) S_1 S_3
     + m^2(m+1) S_4) / (m(m-1)(m-2)(m-3))
    collapses to the centered expression used here, which avoids the
    catastrophic cancellation of the S_1^4 terms for offset data.
    """
    _require(x, 4, "k4")
    return k_statistics(x)[1]


def k_statistics(x) -> tuple[float, float, float]:
    """(k2, k4, var_k2) of x, all from one centring of x; too small a sample
    is a ValueError naming the first of k2 and k4 that it cannot form."""
    _require(x, 2, "k2")
    _require(x, 4, "k4")
    m, (p2, p4) = _centered_power_sums(x, 2, 4)
    k2_ = _k2(m, p2)
    k4_ = float((m * (m + 1) * p4 - 3 * (m - 1) * p2**2) / ((m - 1) * (m - 2) * (m - 3)))
    # float_power is C pow, as float ** is, but overflows to inf instead of raising
    return k2_, k4_, float((2.0 * m * np.float_power(k2_, 2) + (m - 1) * k4_) / (m * (m + 1.0)))


def var_k2(x) -> float:
    """Unbiased estimator of var(k2): (2 m k2^2 + (m-1) k4) / (m (m+1))."""
    return k_statistics(x)[2]
