"""Fisher information and Cramer-Rao covariance bounds for spectrum fits.

Two construction routes are provided and kept deliberately independent so
they can cross-check each other:

* a discrete sum over the fitted frequency bins, info = (n_eff + 2) *
  sum_i g_i g_i^T with g_i the log-spectrum gradient, and
* a continuous-frequency approximation, info = (n_eff + 2) / nu_t *
  integral of g g^T over the fit window, evaluated by one fixed-order
  Gauss-Legendre rule on panels that double in width away from the line.

`nu_t` is the frequency spacing of the grid actually fit (after any
coarse-graining), not necessarily 1/T of the raw record. The covariance
bound is the inverse information matrix; rank-deficient information is
reported instead of pseudo-inverted.

The quadrature and the inverse work on stacks: `_outer_integral` integrates
many parameter vectors at once, each on its own panels, and
`invert_psd_stack` inverts many matrices in one eigen-factorization call.
`fisher_integral` and `invert_psd_matrix` are their one-item cases, and
`integral_covariance_stack` is the bound of a whole stack (the (n, P) scan),
equal bit for bit to `fisher_integral` cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import SpectralParams, grad_log_psd

# Eigenvalues below RANK_TOL times the largest (on the correlation-equilibrated
# matrix) count as zero for the rank check.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class FisherResult:
    """Information matrix and, when it is invertible, the covariance bound.

    info     : 4x4 Fisher information matrix (exactly symmetric)
    gamma_th : 4x4 covariance lower bound info^-1, or None if info is singular
    rank     : numerical rank of info
    n_eff    : statistical average count per fitted bin
    nu_t     : frequency spacing of the fitted grid, Hz
    window   : (lo, hi) fit window, Hz
    method   : "discrete-sum" or "integral"
    """

    info: np.ndarray
    gamma_th: np.ndarray | None
    rank: int
    n_eff: float
    nu_t: float
    window: tuple[float, float]
    method: str


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def invert_psd_matrix(a: np.ndarray):
    """Invert a symmetric positive-semidefinite matrix with a rank check.

    Returns (inverse, rank); inverse is None when the matrix is numerically
    rank-deficient. The matrix is equilibrated to correlation form before the
    eigen-factorization so badly mixed units (uV^2 vs Hz scales) do not
    masquerade as rank deficiency, and so both covariance routes agree to
    near machine precision. This is the one-matrix case of invert_psd_stack.
    """
    a = np.asarray(a, dtype=float)
    inverse, rank = invert_psd_stack(a[None])
    rank = int(rank[0])
    return (inverse[0] if rank == a.shape[0] else None), rank


def invert_psd_stack(a: np.ndarray):
    """invert_psd_matrix over a stack of matrices with shape (m, n, n).

    Returns (inverses, ranks): inverses has shape (m, n, n) and holds NaN for
    every matrix whose rank is below n. A zero diagonal entry of a PSD matrix
    means its whole row and column are zero; those rows and columns stay zero
    in the correlation form, so they add only zero eigenvalues and the rank is
    that of the remaining submatrix. A matrix with a non-finite entry has
    rank 0 and never reaches the eigen-factorization.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    d = np.sqrt(np.clip(np.diagonal(a, axis1=1, axis2=2), 0.0, None))
    zero = d <= 0
    scale = np.where(zero, 1.0, d)
    scale = scale[:, :, None] * scale[:, None, :]
    corr = _symmetrize(a / scale)
    # nearly every stack is regular: fix up only when needed
    if zero.any():
        corr[zero[:, :, None] | zero[:, None, :]] = 0.0
    bad = ~np.isfinite(corr).all(axis=(1, 2))
    if bad.any():
        corr[bad] = 0.0
    w, q = np.linalg.eigh(corr)
    top = w[:, -1:]
    rank = np.where(top[:, 0] > 0, np.sum(w > RANK_TOL * top, axis=1), 0)
    deficient = rank < n
    w[deficient] = 1.0  # any finite inverse; NaN-filled below
    inverse = _symmetrize((q / w[:, None, :]) @ np.swapaxes(q, 1, 2)) / scale
    inverse[deficient] = np.nan
    return inverse, rank


def _result(info, n_eff, nu_t, window, method) -> FisherResult:
    info = _symmetrize(info)
    gamma, rank = invert_psd_matrix(info)
    return FisherResult(
        info=info,
        gamma_th=gamma,
        rank=rank,
        n_eff=float(n_eff),
        nu_t=float(nu_t),
        window=(float(window[0]), float(window[1])),
        method=method,
    )


def fisher_discrete(v: SpectralParams, bins, n_eff: float) -> FisherResult:
    """Fisher information from an explicit list of fitted bin frequencies."""
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 1 or bins.size < 1:
        raise ValueError("bins must be a nonempty 1-D frequency array")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    g = grad_log_psd(v, bins)
    info = (n_eff + 2.0) * (g.T @ g)
    spacing = float(np.median(np.diff(bins))) if bins.size > 1 else 0.0
    return _result(info, n_eff, spacing, (bins[0], bins[-1]), "discrete-sum")


# One fixed Gauss-Legendre rule for every panel, and the cells integrated
# together: the block size is what bounds the memory of a stack.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_BLOCK_CELLS = 64


def _outer_integral(theta: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Integral over [lo, hi] of the 4x4 outer product of grad_log_psd, per cell.

    theta holds one parameter vector (s_ph, nu_l, s_at, delta_nu) per row;
    the result has shape (rows, 4, 4). In u = 2 (nu - nu_l) / delta_nu the
    panel edges are 0, +-1, +-2, +-4, ... +-2^K, with 2^K beyond both window
    ends for every row, clipped to the window; each panel gets the same
    16-point Gauss-Legendre rule. The integrand is rational in u with poles
    only at u = +-i and u = +-i sqrt(1 + s_at / s_ph), so every pole lies at
    least one panel width away from each panel, and order 16 is accurate to
    rounding on every panel. A clipped panel has zero width and adds exactly
    zero, and each row's panels add in ascending order, so a row gets the
    same bits alone or in any stack.
    """
    nu_l, half = theta[:, 1:2], 0.5 * theta[:, 3:4]
    # reach < 2^e_reach and half >= 2^(e_half - 1), so half * 2^k passes the
    # reach at k = e_reach - e_half + 1; working on exponents rather than on
    # reach / half keeps a tiny linewidth from overflowing u
    reach = np.maximum(np.abs(lo - nu_l), np.abs(hi - nu_l))
    k = max(0, int(np.max(np.frexp(reach)[1] - np.frexp(half)[1])) + 1)
    offsets = np.ldexp(half, np.arange(k + 1))
    edges = np.clip(np.hstack([nu_l - offsets[:, ::-1], nu_l, nu_l + offsets]), lo, hi)
    a, b = edges[:, :-1], edges[:, 1:]
    width = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[..., None] + width[..., None] * _GL_X
    g = grad_log_psd(theta[:, None, None, :], nodes)
    sums = width[..., None, None] * (np.swapaxes(g * _GL_W[:, None], -1, -2) @ g)
    total = np.zeros((theta.shape[0], 4, 4))
    for panel in range(sums.shape[1]):
        total += sums[:, panel]
    return total


def _check_integral_args(window, nu_t, n_eff):
    lo, hi = float(window[0]), float(window[1])
    if not (0 <= lo < hi):
        raise ValueError(f"window must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    if nu_t <= 0:
        raise ValueError(f"nu_t must be > 0, got {nu_t}")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    return lo, hi


def fisher_integral(
    v: SpectralParams, window: tuple[float, float], nu_t: float, n_eff: float
) -> FisherResult:
    """Fisher information in the continuous-frequency approximation.

    nu_t is the spacing of the fitted grid; the information is
    (n_eff + 2) / nu_t times the window integral of the log-gradient outer
    product. Agrees with fisher_discrete on the same window once the
    linewidth spans many grid steps.
    """
    lo, hi = _check_integral_args(window, nu_t, n_eff)
    info = (n_eff + 2.0) / nu_t * _outer_integral(v.as_array()[None], lo, hi)[0]
    return _result(info, n_eff, nu_t, (lo, hi), "integral")


def integral_covariance_stack(
    theta, window: tuple[float, float], nu_t: float, n_eff: float
) -> np.ndarray:
    """fisher_integral's covariance bound for a stack of parameter vectors.

    theta has shape (m, 4), one (s_ph, nu_l, s_at, delta_nu) row per cell;
    the parameters must be valid. Returns the (m, 4, 4) bounds, NaN for a
    cell whose information is singular. Each bound equals
    fisher_integral(...).gamma_th bit for bit.
    """
    lo, hi = _check_integral_args(window, nu_t, n_eff)
    theta = np.asarray(theta, dtype=float)
    info = np.empty((theta.shape[0], 4, 4))
    for s in range(0, theta.shape[0], _BLOCK_CELLS):
        info[s : s + _BLOCK_CELLS] = _outer_integral(theta[s : s + _BLOCK_CELLS], lo, hi)
    return invert_psd_stack(_symmetrize((n_eff + 2.0) / nu_t * info))[0]


def error_propagation_covariance(v: SpectralParams, bins, n_eff: float) -> np.ndarray:
    """Covariance of the spectrum fit by linear error propagation.

    Builds the design matrix L_ij = (d f_i / d v_j) / f_i on the fitted bins
    and returns (L^T L)^-1 / n_eff. Up to the (n_eff + 2) vs n_eff factor this
    is the same bound as the Fisher route; the residual difference is the
    Gaussian-approximation variance term.
    """
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 1 or bins.size < 4:
        raise ValueError("bins must be a 1-D frequency array with >= 4 entries")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    ell = grad_log_psd(v, bins)
    m = _symmetrize(ell.T @ ell)
    m_inv, rank = invert_psd_matrix(m)
    if m_inv is None:
        raise NumericalError(
            f"design matrix is rank-deficient (rank {rank} of 4); "
            "covariance undefined in the null directions"
        )
    return m_inv / n_eff


def wishart_std(gamma_th: np.ndarray, n_samples: int) -> np.ndarray:
    """Standard error of each sample-covariance element at the Wishart law.

    For N samples with true covariance Gamma, var(Gamma_exp_ij) =
    (Gamma_ij^2 + Gamma_ii Gamma_jj) / N; returns the elementwise square root.
    """
    g = np.asarray(gamma_th, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gamma_th must be square, got shape {g.shape}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    d = np.diag(g)
    return np.sqrt((g * g + np.outer(d, d)) / n_samples)


def normalized_deviation(
    gamma_exp: np.ndarray, gamma_th: np.ndarray, n_samples: int
) -> np.ndarray:
    """|gamma_th - gamma_exp| in units of the Wishart standard error.

    Elements whose standard error is zero map to 0 when the matrices agree
    there and +inf otherwise.
    """
    ge = np.asarray(gamma_exp, dtype=float)
    gt = np.asarray(gamma_th, dtype=float)
    if ge.shape != gt.shape:
        raise ValueError(f"shape mismatch: {ge.shape} vs {gt.shape}")
    sigma = wishart_std(gt, n_samples)
    num = np.abs(gt - ge)
    out = np.full_like(num, np.inf)
    np.divide(num, sigma, out=out, where=sigma > 0)
    out[(sigma == 0) & (num == 0)] = 0.0
    return out
