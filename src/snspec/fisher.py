"""Fisher information and Cramer-Rao covariance bounds for spectrum fits.

Two construction routes are provided and kept deliberately independent so
they can cross-check each other:

* a discrete sum over the fitted frequency bins, info = (n_eff + 2) *
  sum_i g_i g_i^T with g_i the log-spectrum gradient, and
* a continuous-frequency approximation, info = (n_eff + 2) / nu_t *
  integral of g g^T over the fit window, evaluated by adaptive quadrature.

`nu_t` is the frequency spacing of the grid actually fit (after any
coarse-graining), not necessarily 1/T of the raw record. The covariance
bound is the inverse information matrix; rank-deficient information is
reported instead of pseudo-inverted.

The quadrature and the inverse work on stacks: `_outer_integral` integrates
many parameter vectors at once, each on its own panels and to its own
converged order, and `invert_psd_stack` inverts many matrices in one
eigen-factorization call. `fisher_integral` and `invert_psd_matrix` are their
one-item cases, and `integral_covariance_stack` is the bound of a whole stack
(the (n, P) scan), equal bit for bit to `fisher_integral` cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .model import SpectralParams, grad_log_psd, grad_log_psd_array

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


def invert_psd_matrix(a: np.ndarray, rel_tol: float = RANK_TOL):
    """Invert a symmetric positive-semidefinite matrix with a rank check.

    Returns (inverse, rank); inverse is None when the matrix is numerically
    rank-deficient. The matrix is equilibrated to correlation form before the
    eigen-factorization so badly mixed units (uV^2 vs Hz scales) do not
    masquerade as rank deficiency, and so both covariance routes agree to
    near machine precision. This is the one-matrix case of invert_psd_stack.
    """
    a = np.asarray(a, dtype=float)
    inverse, rank = invert_psd_stack(a[None], rel_tol)
    rank = int(rank[0])
    return (inverse[0] if rank == a.shape[0] else None), rank


def invert_psd_stack(a: np.ndarray, rel_tol: float = RANK_TOL):
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
    corr[zero[:, :, None] | zero[:, None, :]] = 0.0
    corr[~np.isfinite(corr).all(axis=(1, 2))] = 0.0
    w, q = np.linalg.eigh(corr)
    top = w[:, -1:]
    rank = np.where(top[:, 0] > 0, np.sum(w > rel_tol * top, axis=1), 0)
    inverse = np.full(a.shape, np.nan)
    full = rank == n
    q, w = q[full], w[full]
    inverse[full] = _symmetrize((q / w[:, None, :]) @ np.swapaxes(q, 1, 2)) / scale[full]
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


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


# Panel edges graded toward the resonance, in linewidths from nu_l.
_PANEL_OFFSETS = np.array([-25.0, -5.0, -1.0, 0.0, 1.0, 5.0, 25.0])
_ORDERS = (32, 64, 128, 256, 512)
# Quadrature nodes evaluated in one array pass (32 cells x 4 panels x order
# 64) and cells integrated and inverted together: they bound the memory of a
# stack of cells whatever its size and however high its orders go.
_MAX_NODES = 32 * 4 * 64
_BLOCK_CELLS = 64


def _panel_edges(lo: float, hi: float, nu_l: np.ndarray, delta_nu: np.ndarray):
    """Sorted distinct panel edges of each cell, +inf-padded, and their counts.

    Each cell's edges are lo, hi and the graded points nu_l + k delta_nu that
    fall inside [lo, hi].
    """
    edges = np.empty((nu_l.size, 2 + _PANEL_OFFSETS.size))
    edges[:, 0] = lo
    edges[:, 1] = hi
    edges[:, 2:] = nu_l[:, None] + _PANEL_OFFSETS * delta_nu[:, None]
    edges[~((edges >= lo) & (edges <= hi))] = np.inf
    edges.sort(axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.inf
    edges.sort(axis=1)
    return edges, np.isfinite(edges).sum(axis=1)


def _panel_sums(theta, a, b, x, w):
    """half-width times the weighted sum of g g^T over each panel [a, b]."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * x
    t = theta[:, None, :]
    g = grad_log_psd_array(t[..., 0], t[..., 1], t[..., 2], t[..., 3], nodes)
    return half[:, None, None] * np.einsum("i,pij,pik->pjk", w, g, g)


def _outer_integral(theta: np.ndarray, lo: float, hi: float, rel_tol: float) -> np.ndarray:
    """Integral over [lo, hi] of the 4x4 outer product of grad_log_psd, per cell.

    theta holds one parameter vector (s_ph, nu_l, s_at, delta_nu) per row;
    the result has shape (rows, 4, 4), NaN for a cell that did not converge.
    Composite Gauss-Legendre on each cell's resonance-graded panels, doubling
    the order until every element is stable to rel_tol (elementwise,
    normalized by sqrt(diag_j diag_k) so near-zero antisymmetric elements do
    not stall convergence on a meaningless relative scale). A cell leaves the
    active set at the first order where its own check passes, and its panels
    are summed in ascending order, so every cell gets the value it would get
    alone.
    """
    edges, counts = _panel_edges(lo, hi, theta[:, 1], theta[:, 3])
    result = np.full((theta.shape[0], 4, 4), np.nan)
    active = np.arange(theta.shape[0])
    previous = None
    for order in _ORDERS:
        x, w = _gl_nodes(order)
        # the active cells' panels, cell-major, ascending within a cell
        cell, pos = np.nonzero(np.arange(edges.shape[1] - 1) < counts[active, None] - 1)
        rows = active[cell]
        a, b = edges[rows, pos], edges[rows, pos + 1]
        total = np.zeros((active.size, 4, 4))
        step = max(1, _MAX_NODES // order)
        for s in range(0, cell.size, step):
            sl = slice(s, s + step)
            sums = _panel_sums(theta[rows[sl]], a[sl], b[sl], x, w)
            # chunks follow the cell-major order, so a cell's panels still
            # add in ascending order when the cell spans two chunks
            for k in range(pos[sl].max() + 1):
                at = pos[sl] == k
                total[cell[sl][at]] += sums[at]
        if previous is not None:
            d = np.sqrt(np.clip(np.diagonal(total, axis1=1, axis2=2), 0.0, None))
            norm = d[:, :, None] * d[:, None, :]
            norm[norm == 0] = np.inf
            done = np.max(np.abs(total - previous) / norm, axis=(1, 2)) <= rel_tol
            result[active[done]] = total[done]
            active, total = active[~done], total[~done]
            if active.size == 0:
                break
        previous = total
    return result


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
    v: SpectralParams,
    window: tuple[float, float],
    nu_t: float,
    n_eff: float,
    rel_tol: float = 1e-9,
) -> FisherResult:
    """Fisher information in the continuous-frequency approximation.

    nu_t is the spacing of the fitted grid; the information is
    (n_eff + 2) / nu_t times the window integral of the log-gradient outer
    product. Agrees with fisher_discrete on the same window once the
    linewidth spans many grid steps.
    """
    lo, hi = _check_integral_args(window, nu_t, n_eff)
    integral = _outer_integral(v.as_array()[None], lo, hi, rel_tol)[0]
    if np.isnan(integral).any():
        raise NumericalError(
            f"quadrature did not converge to {rel_tol} on window ({lo}, {hi})"
        )
    info = (n_eff + 2.0) / nu_t * integral
    return _result(info, n_eff, nu_t, (lo, hi), "integral")


def integral_covariance_stack(
    theta, window: tuple[float, float], nu_t: float, n_eff: float, rel_tol: float = 1e-9
) -> np.ndarray:
    """fisher_integral's covariance bound for a stack of parameter vectors.

    theta has shape (m, 4), one (s_ph, nu_l, s_at, delta_nu) row per cell;
    the parameters must be valid. Returns the (m, 4, 4) bounds, NaN for a
    cell whose information is singular or whose quadrature did not converge.
    Each bound equals fisher_integral(...).gamma_th bit for bit.
    """
    lo, hi = _check_integral_args(window, nu_t, n_eff)
    theta = np.asarray(theta, dtype=float)
    gamma = np.full((theta.shape[0], 4, 4), np.nan)
    for s in range(0, theta.shape[0], _BLOCK_CELLS):
        block = slice(s, s + _BLOCK_CELLS)
        info = _symmetrize((n_eff + 2.0) / nu_t * _outer_integral(theta[block], lo, hi, rel_tol))
        ok = ~np.isnan(info).any(axis=(1, 2))
        gamma[block][ok] = invert_psd_stack(info[ok])[0]
    return gamma


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
