"""Fisher information and Cramer-Rao covariance bounds for spectrum fits.

Two construction routes are provided and kept deliberately independent so
they can cross-check each other:

* a discrete sum over the fitted frequency bins, info = (n_eff + 2) *
  sum_i g_i g_i^T with g_i the log-spectrum gradient (_log_gradient), and
* a continuous-frequency approximation, info = (n_eff + 2) / nu_t *
  integral of g g^T over the fit window.

The integral takes one of two paths per row. The closed form's band is
s_at / s_ph = r in _CLOSED_BAND, 0.1 to 100 (the shipped scan spans 0.20 to
59), with the line inside the window and at least one half-width from its
farther edge. There the elementary antiderivatives hold 1e-11 of the
quadrature, normalized by the diagonal (8.5e-13 at the band's ends), and
the integral is taken in closed form. Every other row, a weak or dominant
line, a line outside the window or a window inside the line, takes one
fixed-order Gauss-Legendre rule on panels that double in width away from
the line. The quadrature stays because the partial fractions cancel among
themselves off the band, not only in their differences: the error passes
1e-11 near r 0.03 and 300 and reaches 1e-8 near 1e-3 and 1e4, and a window
within a hundredth of a half-width of the line gives 2e-5. With every
F(u_hi) - F(u_lo) taken exactly, a line far outside the 33-52 kHz window
still leaves the nu_l entry off by 3.0e-4 (r 0.1, delta_nu 30 Hz, 268
half-widths below) and 3.8e-9 (r 4, delta_nu 1 kHz, at 100 kHz); ROADMAP
item 18 records what one closed form for every row would take. The rule is
folded about the line centre: f is even in nu - nu_l, so g at nu_l - x is g
at nu_l + x with its nu_l component negated, and each panel of |nu - nu_l|
is evaluated once for both sides of the line.

`nu_t` is the frequency spacing of the grid actually fit (after any
coarse-graining), not necessarily 1/T of the raw record. The covariance
bound is the inverse information matrix; rank-deficient information is
reported instead of pseudo-inverted.

The integral and the inverse work on stacks of (4, 4, m) planes, one (m,)
array per entry: `_integral_info` takes `_closed_form` of every row, then
writes `_outer_integral` (each row alone, on its own panels) over the rows
off the band, and `invert_psd_stack` equilibrates them into the [C | I]
buffer of a Cholesky in array operations, keeping an eigen-factorization for
the matrices whose pivots do not certify full rank. Only L^-T L^-1 leaves
the planes, as (m, n, n), for one batched matmul: a product on the planes
would not repeat its FMA sums bit for bit. L^-T enters that product as a
contiguous copy, not a view: numpy sends a matrix's transposed view times
itself through BLAS syrk, about 2.5x slower on a stack of 4 x 4 matrices
than gemm on the copy (about 350 against 150 us at 2500 rows, with the
CLI's heap settings). The copy keeps every bit: TestInvertPsdStackBits
compares it with the view's product. A stack of exactly one 4 x 4
matrix, as each pass of a one-spectrum fit and each one-row bound passes,
first goes to `_invert_one`: the same steps in straight-line Python floats,
where the planes spend their time dispatching about 45 numpy calls on
planes of one element. It defers to the planes, which then decide the
matrix, wherever a Python float would raise or the pivots do not certify
full rank, and it keeps the product a matmul on a (1, 4, 4) array, so
OpenBLAS sums it with the same FMAs and every output keeps its bits. Stacks
of two rows or more (the scan's grid, a validate block) take the planes alone.
`integral_covariance_stack` is the bound of a whole stack (the (n, P) scan),
and `fisher_integral` is its one-row slice, equal to it bit for bit. Every
bound is a row of an `invert_psd_stack` call, and NaN is the one way a bound
says that the information is singular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import SpectralParams, log_jacobian

# Eigenvalues below RANK_TOL times the largest (on the correlation-equilibrated
# matrix) count as zero for the rank check.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class FisherResult:
    """Information matrix and the covariance bound.

    info     : 4x4 Fisher information matrix (exactly symmetric)
    gamma_th : 4x4 covariance lower bound info^-1, NaN where info is singular
    rank     : numerical rank of info
    n_eff    : statistical average count per fitted bin
    nu_t     : frequency spacing of the fitted grid, Hz
    window   : (lo, hi) fit window, Hz
    method   : "discrete-sum" or "integral"
    """

    info: np.ndarray
    gamma_th: np.ndarray
    rank: int
    n_eff: float
    nu_t: float
    window: tuple[float, float]
    method: str


def _symmetrize(a: np.ndarray, axes=(-1, -2), out=None) -> np.ndarray:
    return np.multiply(0.5, a + a.swapaxes(*axes), out=out)


def invert_psd_stack(a: np.ndarray):
    """Invert a stack of symmetric positive-semidefinite matrices, (m, n, n).

    Returns (inverses, ranks): inverses has shape (m, n, n) and holds NaN for
    every matrix whose rank is below n; one matrix is the stack a[None]. The
    work runs on a's view as (n, n, m) planes (module docstring). Each
    is equilibrated to its correlation form C (unit diagonal), so mixed units
    (uV^2 vs Hz) do not masquerade as rank deficiency, and C is factored by a
    Cholesky as array operations over the stack. A row is certified when the
    product of its pivots, det C, exceeds n^n RANK_TOL. Every pivot is then
    positive, so C is positive definite (Sylvester's criterion; a negative
    pivot makes the later ones NaN or the product negative), and with
    lambda_max <= tr C = n, lambda_min >= det C / lambda_max^(n-1) >
    n RANK_TOL >= RANK_TOL lambda_max: the eigenvalue test below would find
    full rank too. A certified row is inverted as L^-T L^-1.

    Every other row goes to the eigen-factorization, with the same bits and
    rank as on its own. That covers zero diagonals, non-finite entries, and
    rank-deficient or near-singular rows. A zero diagonal entry of a PSD
    matrix means its whole row and column are zero; those rows and columns
    stay zero in the correlation form, so they add only zero eigenvalues and
    the rank is that of the remaining submatrix. A matrix with a non-finite
    entry has rank 0 and never reaches the eigen-factorization.

    A (1, 4, 4) stack is first offered to _invert_one, which takes the same
    steps in Python floats and returns the same bits for a certified matrix;
    any other matrix it hands back to the planes (module docstring).
    """
    a = np.asarray(a, dtype=float)
    if a.shape == (1, 4, 4):
        one = _invert_one(a)
        if one is not None:
            return one
    a = a.transpose(1, 2, 0)
    n, m = a.shape[0], a.shape[-1]
    d = np.sqrt(np.maximum(a.diagonal(), 0.0))
    zero = d <= 0
    scale = np.where(zero, 1.0, d).T
    scale = scale[:, None] * scale[None, :]
    b = np.empty((n, 2 * n, m))
    b[:, :n] = corr = _symmetrize(a / scale, (0, 1))
    inverse, certified = _cholesky_inverse(b)
    rank = np.full(m, n)
    if not certified.all():
        rest = ~certified
        inverse[rest], rank[rest] = _eigh_inverse(corr[..., rest].transpose(2, 0, 1), zero[rest])
    inverse /= scale.transpose(2, 0, 1)
    return inverse, rank


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The I of _cholesky_inverse's [C | I], (n, n, 1): one read-only constant per n."""
    return np.broadcast_to(np.eye(n)[:, :, None], (n, n, 1))


def _cholesky_inverse(b: np.ndarray):
    """(inverses, certified) of the correlation stack in b, by Cholesky.

    b is the (n, 2n, m) buffer [C | I], one (m,) array per entry, holding C;
    I is written here. It is eliminated row by row: row j is divided by the
    square root of its pivot and its outer product taken off the rows below.
    That leaves the pivots on the diagonal of C, L^T above it, and L^-1 in
    place of I. Rows that are not certified hold arbitrary values. L^-T is
    copied before the product (module docstring).
    """
    n = b.shape[0]
    b[:, n:] = _identity(n)
    with np.errstate(all="ignore"):
        for j in range(n):
            row = b[j, j + 1 :]
            row /= np.sqrt(b[j, j])
            if j < n - 1:  # the last row has none below it
                b[j + 1 :, j + 1 :] -= row[: n - 1 - j, None] * row
        det = b[0, 0]
        for j in range(1, n):
            det = det * b[j, j]
        certified = det > float(n) ** n * RANK_TOL
        inv_l = np.ascontiguousarray(b[:, n:].transpose(2, 0, 1))
        return np.ascontiguousarray(inv_l.swapaxes(1, 2)) @ inv_l, certified


# _cholesky_inverse's certificate at n = 4, float(n) ** n * RANK_TOL
_DET_FLOOR_4 = 4.0**4 * RANK_TOL


def _invert_one(a: np.ndarray):
    """invert_psd_stack of a (1, 4, 4) stack in Python floats, or None to defer.

    The steps and their order are those of the planes, entry by entry: the
    scale s_ik = d_i d_k, the symmetrized correlation form, and the
    elimination of [C | I] on its upper rows, with L^-1's upper entries the
    +0.0 the planes hold there and each of its lower entries started from
    0.0 - x y, as the planes start them, so a zero keeps its sign. IEEE
    arithmetic rounds the same in floats and in arrays, so a certified
    matrix gets the planes' bits. Python raises on sqrt(x < 0) and x / 0
    where numpy returns NaN or inf, so a diagonal entry or a pivot that is
    not positive and finite returns None before either is taken, as does a
    det that does not certify: the planes then decide the matrix. The
    product keeps the view of inv_l: on one matrix a copy gains nothing
    (3.3 against 2.9 us).
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a[0].tolist()
    if not (0.0 < a00 < math.inf and 0.0 < a11 < math.inf and 0.0 < a22 < math.inf and 0.0 < a33 < math.inf):
        return None
    d0, d1, d2, d3 = math.sqrt(a00), math.sqrt(a11), math.sqrt(a22), math.sqrt(a33)
    s00, s01, s02, s03 = d0 * d0, d0 * d1, d0 * d2, d0 * d3
    s11, s12, s13, s22, s23, s33 = d1 * d1, d1 * d2, d1 * d3, d2 * d2, d2 * d3, d3 * d3
    t0, t1, t2, t3 = a00 / s00, a11 / s11, a22 / s22, a33 / s33
    c00, c11, c22, c33 = 0.5 * (t0 + t0), 0.5 * (t1 + t1), 0.5 * (t2 + t2), 0.5 * (t3 + t3)
    c01, c02, c03 = 0.5 * (a01 / s01 + a10 / s01), 0.5 * (a02 / s02 + a20 / s02), 0.5 * (a03 / s03 + a30 / s03)
    c12, c13, c23 = 0.5 * (a12 / s12 + a21 / s12), 0.5 * (a13 / s13 + a31 / s13), 0.5 * (a23 / s23 + a32 / s23)
    # row 0
    p0 = c00
    if not 0.0 < p0 < math.inf:
        return None
    r = math.sqrt(p0)
    c01, c02, c03, l00 = c01 / r, c02 / r, c03 / r, 1.0 / r
    c11, c12, c13 = c11 - c01 * c01, c12 - c01 * c02, c13 - c01 * c03
    c22, c23, c33 = c22 - c02 * c02, c23 - c02 * c03, c33 - c03 * c03
    l10, l20, l30 = 0.0 - c01 * l00, 0.0 - c02 * l00, 0.0 - c03 * l00
    # row 1
    p1 = c11
    if not 0.0 < p1 < math.inf:
        return None
    r = math.sqrt(p1)
    c12, c13, l10, l11 = c12 / r, c13 / r, l10 / r, 1.0 / r
    c22, c23, c33 = c22 - c12 * c12, c23 - c12 * c13, c33 - c13 * c13
    l20, l30 = l20 - c12 * l10, l30 - c13 * l10
    l21, l31 = 0.0 - c12 * l11, 0.0 - c13 * l11
    # row 2
    p2 = c22
    if not 0.0 < p2 < math.inf:
        return None
    r = math.sqrt(p2)
    c23, l20, l21, l22 = c23 / r, l20 / r, l21 / r, 1.0 / r
    c33 = c33 - c23 * c23
    l30, l31, l32 = l30 - c23 * l20, l31 - c23 * l21, 0.0 - c23 * l22
    # row 3
    p3 = c33
    if not 0.0 < p3 < math.inf:
        return None
    r = math.sqrt(p3)
    l30, l31, l32, l33 = l30 / r, l31 / r, l32 / r, 1.0 / r
    if not p0 * p1 * p2 * p3 > _DET_FLOOR_4:
        return None
    inv_l = np.array([[[l00, 0.0, 0.0, 0.0], [l10, l11, 0.0, 0.0], [l20, l21, l22, 0.0], [l30, l31, l32, l33]]])
    inverse = inv_l.swapaxes(1, 2) @ inv_l
    inverse /= np.array([[s00, s01, s02, s03], [s01, s11, s12, s13], [s02, s12, s22, s23], [s03, s13, s23, s33]])
    return inverse, np.array([4])


def _eigh_inverse(corr: np.ndarray, zero: np.ndarray):
    """(inverses, ranks) of a correlation stack by eigen-factorization.

    The inverses are those of corr (not yet rescaled), NaN below full rank.
    """
    corr[zero[:, :, None] | zero[:, None, :]] = 0.0
    corr[~np.isfinite(corr).all(axis=(1, 2))] = 0.0
    w, q = np.linalg.eigh(corr)
    top = w[:, -1:]
    rank = np.where(top[:, 0] > 0, np.sum(w > RANK_TOL * top, axis=1), 0)
    deficient = rank < corr.shape[-1]
    w[deficient] = 1.0  # any finite inverse; NaN-filled below
    inverse = _symmetrize((q / w[:, None, :]) @ np.swapaxes(q, 1, 2))
    inverse[deficient] = np.nan
    return inverse, rank


def _result(info, n_eff, nu_t, window, method) -> FisherResult:
    """FisherResult of a symmetric info, inverted as a one-row stack."""
    gamma, rank = invert_psd_stack(info[None])
    return FisherResult(
        info=info,
        gamma_th=gamma[0],
        rank=int(rank[0]),
        n_eff=float(n_eff),
        nu_t=float(nu_t),
        window=(float(window[0]), float(window[1])),
        method=method,
    )


def _log_gradient(v, nu) -> np.ndarray:
    """d ln f / d v, v = (s_ph, nu_l, s_at, delta_nu), on model.log_jacobian's planes.

    v and nu are taken as by log_jacobian. Its planes in theta are taken
    to v as (1 / f, J_nu, lor / f, J_delta / delta_nu): the s_at plane is
    the line's own share of f, not J_at / s_at, so it holds at s_at = 0.
    """
    v = np.asarray(v, dtype=float)
    g, f, lor = log_jacobian(v, nu)
    np.divide(1.0, f, out=g[0])
    np.divide(lor, f, out=g[2])
    g[3] /= v[..., 3]
    return g


def _gram(v: SpectralParams, bins: np.ndarray) -> np.ndarray:
    """G G^T for the log-spectrum gradient G on the bins, not yet symmetrized."""
    g = _log_gradient(v, bins)
    return g @ g.T


def fisher_discrete(v: SpectralParams, bins, n_eff: float) -> FisherResult:
    """Fisher information from an explicit list of fitted bin frequencies."""
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 1 or bins.size < 1:
        raise ValueError("bins must be a nonempty 1-D frequency array")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    info = _symmetrize((n_eff + 2.0) * _gram(v, bins))
    spacing = float(np.median(np.diff(bins))) if bins.size > 1 else 0.0
    return _result(info, n_eff, spacing, (bins[0], bins[-1]), "discrete-sum")


# One fixed 16-point Gauss-Legendre rule for every panel: the positive nodes
# and their weights, repr-exact as leggauss(16) returns them (it makes both
# symmetric, so mirroring them gives its arrays), with no numpy.polynomial
# import. The cells are integrated in blocks: the block size is what bounds
# the memory of a stack.
_GL_X_POS = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_W_POS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_X = np.concatenate([-_GL_X_POS[::-1], _GL_X_POS])
_GL_W = np.concatenate([_GL_W_POS[::-1], _GL_W_POS])
_BLOCK_CELLS = 64
# S = diag(1, -1, 1, 1): _log_gradient at nu_l - x is S times its value at
# nu_l + x. A panel of |x| weighs its outer product M by one of these, when
# the window holds both sides of the line (M + S M S), its upper side only
# (M) or its lower side only (S M S).
_MIRROR = np.outer([1.0, -1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0])
_SIDES = np.stack([1.0 + _MIRROR, np.ones((4, 4)), _MIRROR])
# The s_at / s_ph range of the closed form's band (module docstring).
_CLOSED_BAND = (0.1, 100.0)


def _outer_integral(theta: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Integral over [lo, hi] of the 4x4 outer product of _log_gradient, per cell.

    theta holds one parameter vector (s_ph, nu_l, s_at, delta_nu) per row;
    the result has shape (rows, 4, 4). f is even in x = nu - nu_l, so the
    rule runs on |x| and each panel is evaluated once, at nu_l = 0 with the
    nodes as offsets, which makes the mirror an exact sign flip of the nu_l
    component. In u = 2 |x| / delta_nu the panel edges are 0, 1, 2, 4, ...
    2^K, with 2^K beyond both window ends for every row, plus the fold point
    c = min(nu_l - lo, hi - nu_l) up to which the window holds both sides of
    the line; they are clipped to the |x| range the window covers, and each
    panel gets the same 16-point Gauss-Legendre rule. The integrand is
    rational in u with poles only at u = +-i and u = +-i sqrt(1 + s_at /
    s_ph), so every pole lies at least one panel width away from each
    dyadic panel, and the split at c only shrinks a panel; order 16 is
    accurate to rounding on every panel. A panel below c adds M + S M S
    (twice M, with its nu_l cross terms cancelled exactly), one above it M
    or S M S. A clipped panel has zero width and adds exactly zero, and
    each row's panels add in ascending |x|, so a row gets the same bits
    alone or in any stack.

    _integral_info hands it the rows outside the closed form's band (module
    docstring), where this rule keeps its digits. It is also the reference
    the closed form is tested against.

    The panels (edges, widths, centres and side) are built once per call, at
    the largest depth K of the stack, and the rule is evaluated in blocks of
    _BLOCK_CELLS rows, each on its own first K_block + 2 panels only. Every
    edge past a row's depth lies beyond its reach, so it clips to the reach
    and sorts after the row's own edges: those panels are the ones the block
    would build alone.
    """
    nu_l, half = theta[:, 1:2], 0.5 * theta[:, 3:4]
    below, above = nu_l - lo, hi - nu_l
    # reach < 2^e_reach and half >= 2^(e_half - 1), so half * 2^k passes the
    # reach at k = e_reach - e_half + 1; working on exponents rather than on
    # reach / half keeps a tiny linewidth from overflowing u
    reach = np.maximum(np.abs(below), np.abs(above))
    depth = (np.frexp(reach)[1] - np.frexp(half)[1])[:, 0]
    k = max(0, int(np.max(depth, initial=-1)) + 1)
    near = np.minimum(below, above)  # negative when nu_l is outside the window
    fold = np.maximum(near, 0.0)
    edges = np.hstack([np.zeros_like(half), np.ldexp(half, np.arange(k + 1)), fold])
    edges = np.clip(np.sort(edges, axis=1), np.maximum(-near, 0.0), reach)
    a, b = edges[:, :-1], edges[:, 1:]
    width = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    side = np.where(b <= fold, 0, np.where(above >= below, 1, 2))
    centred = theta.copy()
    centred[:, 1] = 0.0
    total = np.zeros((theta.shape[0], 4, 4))
    for s in range(0, theta.shape[0], _BLOCK_CELLS):
        block = slice(s, s + _BLOCK_CELLS)
        panels = max(0, int(np.max(depth[block])) + 1) + 2
        w = width[block, :panels]
        nodes = centre[block, :panels, None] + w[..., None] * _GL_X
        g = _log_gradient(centred[block, None, None, :], nodes)
        weighted = g * (w[..., None] * _GL_W)
        sums = weighted.transpose(1, 2, 0, 3) @ g.transpose(1, 2, 3, 0)
        sums *= _SIDES[side[block, :panels]]
        out = total[block]
        for panel in range(panels):
            out += sums[:, panel]
    return total


def _closed_form(theta: np.ndarray, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """_outer_integral of each row of theta in closed form, as (4, 4, rows) planes.

    u holds the window's edges as (2, rows), in half-widths from the line,
    and r = s_at / s_ph. In u = 2 (nu - nu_l) / delta_nu, with a^2 = 1 + r,
    p = 1 / (1 + u^2) and q = 1 / (a^2 + u^2), f = s_ph (a^2 + u^2) p and
    _log_gradient is c * ((1 + u^2) q, u p q, q, u^2 p q), c = (1 / s_ph,
    4 r / delta_nu, 1 / s_ph, 2 r / delta_nu). Each entry of the outer
    product is u^m p^i q^j, m <= 4 and i, j <= 2, whose partial fractions
    (p q = (p - q) / r) integrate to u, atan(u), atan(u / a), ln((a^2 + u^2)
    p) = log1p(r p) and rational terms. The two differences that vanish with
    r are taken without cancelling: atan(u) - atan(u / a) = atan((a - 1) u /
    (a + u^2)), a - 1 = r / (1 + a). An antiderivative is a function of u^2
    when its integrand is odd in u and odd in u when it is even, exactly in
    floating point, so a centred line gives the nu_l cross terms exactly
    zero and a reflected window exactly S M S.
    """
    s_ph, d = theta[:, 0], theta[:, 3]
    aa = 1.0 + r
    a = np.sqrt(aa)
    uu = u * u
    p, q = 1.0 / (1.0 + uu), 1.0 / (aa + uu)
    at, at_a = np.arctan(u), np.arctan(u / a)
    at_diff = np.arctan(u * (r / (1.0 + a)) / (a + uu))  # atan(u) - atan(u / a)
    log = np.log1p(r * p)
    # antiderivatives of q, q^2, p^2, u^2 q^2 and u^2 p^2, in this order
    q1 = at_a / a
    q2 = (u * q + q1) / (2.0 * aa)
    p2 = 0.5 * (u * p + at)
    uq2 = q1 - aa * q2
    up2 = 0.5 * (at - u * p)
    d_pq = at_diff + at_a * (r / (a + aa))  # atan(u) - atan(u / a) / a
    e_pq = at_a * (r / (1.0 + a)) - at_diff  # a atan(u / a) - atan(u)
    rr = r * r
    f = np.empty((4, 4) + u.shape)
    f[0, 0] = u - 2.0 * r * q1 + rr * q2
    f[0, 1] = -0.5 * q
    f[0, 2] = q1 - r * q2
    f[0, 3] = uq2
    f[1, 1] = (up2 + uq2 - 2.0 * e_pq / r) / rr
    f[1, 2] = (r * q - log) / (2.0 * rr)
    f[1, 3] = ((r + 1.0) * r * q + r * p - (r + 2.0) * log) / (2.0 * rr * r)
    f[2, 2] = q2
    f[2, 3] = (e_pq - r * uq2) / rr
    f[3, 3] = (aa * aa * q2 + p2 - 2.0 * aa * d_pq / r) / rr
    upper = np.triu_indices(4, 1)
    f[upper[::-1]] = f[upper]
    c = np.stack([1.0 / s_ph, 4.0 * r / d, 1.0 / s_ph, 2.0 * r / d])
    return (0.5 * d) * c[:, None] * c[None, :] * (f[..., 1, :] - f[..., 0, :])


def _closed_rows(theta: np.ndarray, lo: float, hi: float):
    """(closed, u, r): which rows of theta take _closed_form, with its arguments for every row.

    A row is closed when it lies in the closed form's band (module
    docstring) for the window [lo, hi]; u holds the edges in half-widths
    from the line, (2, rows). A row that overflows u or r, or holds a NaN,
    is not closed.
    """
    with np.errstate(all="ignore"):
        u = (np.array([[lo], [hi]]) - theta[:, 1]) / (0.5 * theta[:, 3])
        r = theta[:, 2] / theta[:, 0]
        closed = (
            (r >= _CLOSED_BAND[0]) & (r <= _CLOSED_BAND[1])
            & (u[0] <= 0.0) & (u[1] >= 0.0) & (u[1] - u[0] < np.inf)
            & (np.maximum(-u[0], u[1]) >= 1.0)
        )
    return closed, u, r


def _integral_info(theta, window, nu_t: float, n_eff: float) -> np.ndarray:
    """The symmetric integral-form information of each row of theta, as (4, 4, rows) planes.

    _closed_form is taken on every row, and _outer_integral is written over
    the rows that _closed_rows does not certify, where there are any. Both
    work row by row (the closed form elementwise), so a row gets the same
    bits alone or in any stack.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0 <= lo < hi):
        raise ValueError(f"window must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    if nu_t <= 0:
        raise ValueError(f"nu_t must be > 0, got {nu_t}")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    theta = np.asarray(theta, dtype=float)
    closed, u, r = _closed_rows(theta, lo, hi)
    with np.errstate(all="ignore"):  # rows off the band may overflow; they are overwritten
        info = _closed_form(theta, u, r)
    off = ~closed
    if off.any():
        info[..., off] = _outer_integral(theta[off], lo, hi).transpose(1, 2, 0)
    info *= (n_eff + 2.0) / nu_t
    return _symmetrize(info, (0, 1), out=info)  # _closed_form's c_i c_j and c_j c_i round apart


def fisher_integral(
    v: SpectralParams, window: tuple[float, float], nu_t: float, n_eff: float
) -> FisherResult:
    """Fisher information in the continuous-frequency approximation.

    nu_t is the spacing of the fitted grid; the information is
    (n_eff + 2) / nu_t times the window integral of the log-gradient outer
    product. Agrees with fisher_discrete on the same window once the
    linewidth spans many grid steps. The one-row case of
    integral_covariance_stack, with the bits of the stack on either path.
    """
    info = _integral_info(v.as_array()[None], window, nu_t, n_eff)[..., 0]
    return _result(info, n_eff, nu_t, window, "integral")


def integral_covariance_stack(
    theta, window: tuple[float, float], nu_t: float, n_eff: float
) -> np.ndarray:
    """fisher_integral's covariance bound for a stack of parameter vectors.

    theta has shape (m, 4), one (s_ph, nu_l, s_at, delta_nu) row per cell;
    the parameters must be valid. Returns the (m, 4, 4) bounds, NaN for a
    cell whose information is singular. Each bound equals
    fisher_integral(...).gamma_th bit for bit.
    """
    return invert_psd_stack(_integral_info(theta, window, nu_t, n_eff).transpose(2, 0, 1))[0]


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
    m_inv, rank = invert_psd_stack(_symmetrize(_gram(v, bins))[None])
    if rank[0] < 4:
        raise NumericalError(
            f"design matrix is rank-deficient (rank {rank[0]} of 4); "
            "covariance undefined in the null directions"
        )
    return m_inv[0] / n_eff


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
