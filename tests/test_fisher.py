"""Fisher information routes, covariance bounds, Wishart error bars."""

import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import random_correlation

from snspec import fisher
from snspec.config import load_config
from snspec.errors import NumericalError
from snspec.fisher import (
    error_propagation_covariance,
    fisher_discrete,
    fisher_integral,
    integral_covariance_stack,
    invert_psd_stack,
    normalized_deviation,
    wishart_std,
)
from snspec.model import SpectralParams, params_from_conditions_array
from snspec.scan import scan_grid
from snspec.synthesis import AcquisitionConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

V = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=4.0, delta_nu=1000.0)
CFG = AcquisitionConfig(
    delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=50
)
WINDOW = (33e3, 52e3)


def window_bins(cfg=CFG):
    g = cfg.coarse_grid()
    return g[(g >= cfg.fit_lo) & (g <= cfg.fit_hi)]


def norm_diff(a, b):
    d = np.sqrt(np.outer(np.diag(b), np.diag(b)))
    return np.max(np.abs(a - b) / d)


def log_gradient(v, nu):
    """grad ln f at one frequency in plain float arithmetic (test oracle)."""
    off = nu - v.nu_l
    q = 4.0 * off * off + v.delta_nu * v.delta_nu
    lor = v.delta_nu * v.delta_nu / q
    f = v.s_ph + v.s_at * lor
    c = 8.0 * v.s_at * v.delta_nu * off / (q * q * f)
    return (1.0 / f, c * v.delta_nu, lor / f, c * off)


def quad_information(v, window, nu_t, n_eff):
    """fisher_integral's info by scipy quad, one matrix entry at a time.

    Breakpoints at nu_l +- 4^k delta_nu: the integrand changes on every scale
    from the linewidth to the window width. With breakpoints only out to
    +-25 linewidths, quad itself is off by 1e-4 (normalized) for a 0.3 Hz
    line in a 99 kHz window.
    """
    lo, hi = window
    points = [v.nu_l + s * 4.0**k * v.delta_nu for k in range(13) for s in (-1, 1)]
    points = sorted(x for x in points if lo < x < hi) or None
    integral = np.zeros((4, 4))
    with warnings.catch_warnings():
        # entries that cancel to about zero cannot meet epsrel; the
        # comparison below is normalized by the diagonal, not by the entry
        warnings.simplefilter("ignore", IntegrationWarning)
        for j, k in itertools.combinations_with_replacement(range(4), 2):
            value, _ = quad(
                lambda nu: (g := log_gradient(v, nu))[j] * g[k],
                lo,
                hi,
                points=points,
                epsabs=0.0,
                epsrel=1e-13,
                limit=500,
            )
            integral[j, k] = integral[k, j] = value
    return (n_eff + 2.0) / nu_t * integral


class TestDiscreteRoute:
    def test_background_only_information(self):
        # with s_at = 0 only the background responds: I_11 = (n_eff+2) K / s_ph^2
        flat = SpectralParams(s_ph=2.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        bins = window_bins()
        r = fisher_discrete(flat, bins, 50)
        assert r.info[0, 0] == pytest.approx(52 * bins.size / 4.0, rel=1e-12)
        # center and width carry no information at all; the matrix is singular
        assert r.rank == 2
        assert np.isnan(r.gamma_th).all()

    def test_averaging_count_enters_linearly(self):
        bins = window_bins()
        a = fisher_discrete(V, bins, 50)
        b = fisher_discrete(V, bins, 98)
        np.testing.assert_allclose(b.info, (98 + 2) / (50 + 2) * a.info, rtol=1e-14)

    def test_amplitude_scaling(self):
        # s_ph, s_at -> c * both leaves log-gradients of nu_l, delta_nu alone
        # and divides the amplitude gradients by c
        c = 7.5
        scaled = SpectralParams(
            s_ph=c * V.s_ph, nu_l=V.nu_l, s_at=c * V.s_at, delta_nu=V.delta_nu
        )
        bins = window_bins()
        a = fisher_discrete(V, bins, 50).info
        b = fisher_discrete(scaled, bins, 50).info
        p = np.array([1.0, 0.0, 1.0, 0.0])
        factor = c ** (p[:, None] + p[None, :])
        # off-diagonal sums cancel, so compare on the diagonal scale
        assert norm_diff(b * factor, a) < 1e-12

    def test_covariance_inverts_information(self):
        r = fisher_discrete(V, window_bins(), 50)
        assert r.rank == 4
        assert np.max(np.abs(r.gamma_th @ r.info - np.eye(4))) < 1e-8
        w = np.linalg.eigvalsh(r.gamma_th)
        assert np.all(w > 0)

    def test_rejects_empty_bins_and_bad_counts(self):
        with pytest.raises(ValueError):
            fisher_discrete(V, np.array([]), 50)
        with pytest.raises(ValueError):
            fisher_discrete(V, window_bins(), 0.5)


class TestIntegralRoute:
    def test_agrees_with_discrete_sum(self):
        # spacing of 100 Hz against delta_nu = 1 kHz: the Riemann sum is
        # already far inside the 0.5% band (measured 1e-6)
        fd = fisher_discrete(V, window_bins(), 50)
        fi = fisher_integral(V, WINDOW, CFG.coarse_spacing, 50)
        assert norm_diff(fd.info, fi.info) < 0.005

    def test_scales_inversely_with_grid_spacing(self):
        a = fisher_integral(V, WINDOW, 100.0, 50)
        b = fisher_integral(V, WINDOW, 20.0, 50)
        np.testing.assert_allclose(b.info, 5.0 * a.info, rtol=1e-12)

    def test_result_metadata(self):
        r = fisher_integral(V, WINDOW, 100.0, 50)
        assert r.method == "integral"
        assert r.window == WINDOW
        assert r.nu_t == 100.0
        assert r.n_eff == 50.0

    # line centred in the window, 3 linewidths above it, far above it, on
    # its lower edge, in a window from zero, far below it, and 1 kHz inside
    # its lower edge (for the widest lines the part of the window that holds
    # both sides of the line is then shorter than one panel); nu_l is the
    # line centre plus widths * delta_nu
    @pytest.mark.parametrize(
        "window, centre, widths",
        [
            (WINDOW, 42.5e3, 0),
            (WINDOW, 52e3, 3),
            (WINDOW, 60e3, 0),
            (WINDOW, 33e3, 0),
            ((0.0, 99e3), 42.6e3, 0),
            (WINDOW, 20e3, 0),
            (WINDOW, 34e3, 0),
        ],
        ids=[
            "centred",
            "3-widths-above",
            "at-60-kHz",
            "lower-edge",
            "from-zero",
            "at-20-kHz",
            "just-inside-lower-edge",
        ],
    )
    def test_matches_adaptive_quadrature_oracle(self, window, centre, widths):
        worst = (0.0, None)
        for r, delta_nu in itertools.product(
            [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e3, 1e5], [0.3, 3.0, 300.0, 2e4]
        ):
            v = SpectralParams(1.0, centre + widths * delta_nu, r, delta_nu)
            want = quad_information(v, window, 100.0, 50)
            err = norm_diff(fisher_integral(v, window, 100.0, 50).info, want)
            worst = max(worst, (err, v), key=lambda x: x[0])
        assert worst[0] <= 1e-9, worst

    def test_stack_equals_single_calls_bit_for_bit(self):
        # one block of lines below, inside and above the window, at widths
        # that need panel depths K from 1 to 18, and at s_at / s_ph outside
        # the closed form's band, so that every row takes the quadrature
        centres = [20e3, 32.9e3, 33e3, 34e3, 42.5e3, 42.6e3, 51.5e3, 60e3]
        theta = np.array(
            [
                (1.0, centre, s_at, delta_nu)
                for centre in centres
                for s_at, delta_nu in itertools.product([1e-2, 1e3], [0.3, 30.0, 1e3, 2e4])
            ]
        )
        assert len(theta) == fisher._BLOCK_CELLS
        assert not fisher._closed_rows(theta, *WINDOW)[0].any()
        want = np.array([
            fisher_integral(SpectralParams.from_array(row), WINDOW, 100.0, 50).gamma_th
            for row in theta
        ])
        assert np.isfinite(want).all(axis=(1, 2)).sum() > 48
        np.testing.assert_array_equal(integral_covariance_stack(theta, WINDOW, 100.0, 50), want)

    def test_blocks_of_different_depths_equal_single_calls_bit_for_bit(self, monkeypatch):
        # the panels are built once per call at the stack's largest depth;
        # blocks of medium, narrow, wide and mixed lines, each in random
        # order, evaluate only their own first panels; every s_at / s_ph
        # lies outside the closed form's band, so every row takes the rule
        rng = np.random.default_rng(7)
        centres = [20e3, 33e3, 34e3, 42.6e3, 51.5e3, 60e3]

        def block(widths, size):
            return np.array([
                (1.0, rng.choice(centres), rng.choice([1e-2, 5e-2, 1e3]), rng.choice(widths))
                for _ in range(size)
            ])

        theta = np.vstack([block([1e3, 2e4], 64), block([1e-3, 0.3], 64), block([3e4, 1e5], 64), block([0.3, 30.0], 40)])
        assert not fisher._closed_rows(theta, *WINDOW)[0].any()
        panels = []
        unrecorded = fisher._log_gradient

        def recording(v, nu):
            panels.append(nu.shape[1])
            return unrecorded(v, nu)

        monkeypatch.setattr(fisher, "_log_gradient", recording)
        got = integral_covariance_stack(theta, WINDOW, 100.0, 50)
        assert len(panels) == len(set(panels)) == 4, panels
        want = np.array([
            fisher_integral(SpectralParams.from_array(row), WINDOW, 100.0, 50).gamma_th
            for row in theta
        ])
        assert np.isfinite(want).all(axis=(1, 2)).sum() > 150
        np.testing.assert_array_equal(got, want)

    def test_interleaved_closed_and_quadrature_rows_equal_single_calls_bit_for_bit(self):
        # rows in the closed form's band alternate with rows outside it (by
        # s_at / s_ph, by a line outside the window, by a window shorter
        # than a half-width) and with singular rows; each keeps its bits
        closed_rows = [(1.0, 42.6e3, 4.0, 1e3), (2.0, 33e3, 0.3, 300.0), (0.5, 52e3, 40.0, 3e4), (1.0, 40e3, 0.1, 0.3)]
        other_rows = [(1.0, 42.6e3, 0.05, 1e3), (1.0, 60e3, 4.0, 1e3), (1.0, 42.5e3, 4.0, 4e4), (2.0, 42.6e3, 0.0, 500.0)]
        theta = np.array([row for pair in zip(closed_rows, other_rows) for row in pair] * 10)
        closed = fisher._closed_rows(theta, *WINDOW)[0]
        np.testing.assert_array_equal(closed, np.tile([True, False], 40))
        want = np.array([
            fisher_integral(SpectralParams.from_array(row), WINDOW, 100.0, 50).gamma_th for row in theta
        ])
        assert np.isnan(want).all(axis=(1, 2)).sum() == 10
        np.testing.assert_array_equal(integral_covariance_stack(theta, WINDOW, 100.0, 50), want)

    def test_gauss_legendre_literals_are_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(16)
        np.testing.assert_array_equal(fisher._GL_X, x, strict=True)
        np.testing.assert_array_equal(fisher._GL_W, w, strict=True)

    @pytest.mark.parametrize("s_at, delta_nu", [(4.0, 1000.0), (1e-2, 0.3), (1e3, 2e4)])
    def test_centred_line_has_no_centre_cross_terms(self, s_at, delta_nu):
        # f is even about a centred line, so the nu_l row of the information
        # integrates an odd function over a symmetric window
        info = fisher_integral(SpectralParams(1.0, 42.5e3, s_at, delta_nu), WINDOW, 100.0, 50).info
        assert np.all(np.delete(info[1], 1) == 0.0)
        assert np.all(np.delete(info[:, 1], 1) == 0.0)
        assert info[1, 1] > 0.0

    # reflected, the 60 kHz line lies below its window
    @pytest.mark.parametrize("nu_l", [34e3, 42.6e3, 60e3])
    @pytest.mark.parametrize("delta_nu", [0.3, 1000.0, 2e4])
    def test_reflected_window_mirrors_the_information(self, nu_l, delta_nu):
        # reflecting the window about nu_l flips the sign of nu - nu_l only,
        # so the information becomes S info S with S = diag(1, -1, 1, 1)
        v = SpectralParams(1.0, nu_l, 4.0, delta_nu)
        mirrored = (2.0 * nu_l - WINDOW[1], 2.0 * nu_l - WINDOW[0])
        sign = np.array([1.0, -1.0, 1.0, 1.0])
        a = fisher_integral(v, WINDOW, 100.0, 50).info
        b = fisher_integral(v, mirrored, 100.0, 50).info
        np.testing.assert_array_equal(b, sign[:, None] * a * sign[None, :])

    def test_background_only_information(self):
        flat = SpectralParams(s_ph=2.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        r = fisher_integral(flat, WINDOW, 100.0, 50)
        assert r.info[0, 0] == pytest.approx(52 / 100.0 * (WINDOW[1] - WINDOW[0]) / 4.0, rel=1e-12)
        # center and width carry no information at all; the matrix is singular
        assert np.all(r.info[[1, 3], :] == 0) and np.all(r.info[:, [1, 3]] == 0)
        assert r.rank == 2
        assert np.isnan(r.gamma_th).all()

    @pytest.mark.parametrize("s_at, rank", [(0.0, 2), (4.0, 4)])
    def test_one_row_is_the_stack_bound_nan_included(self, s_at, rank):
        # fisher_integral is the one-row slice of integral_covariance_stack:
        # the same bits, and NaN as the one "no bound" on both paths
        v = SpectralParams(s_ph=2.0, nu_l=42600.0, s_at=s_at, delta_nu=500.0)
        r = fisher_integral(v, WINDOW, 100.0, 50)
        stack = integral_covariance_stack(v.as_array()[None], WINDOW, 100.0, 50)[0]
        assert r.rank == rank
        assert np.isnan(r.gamma_th).all() == (rank < 4)
        assert np.isfinite(r.gamma_th).all() == (rank == 4)
        np.testing.assert_array_equal(r.gamma_th, stack)

    def test_rejects_bad_window_and_spacing(self):
        with pytest.raises(ValueError):
            fisher_integral(V, (5e4, 3e4), 100.0, 50)
        with pytest.raises(ValueError):
            fisher_integral(V, WINDOW, 0.0, 50)
        with pytest.raises(ValueError):
            fisher_integral(V, WINDOW, 100.0, 0)


class TestClosedForm:
    """The closed form against the quadrature it replaces, where it is used."""

    @pytest.mark.parametrize("r", [fisher._CLOSED_BAND[0], 0.2, 1.0, 10.0, fisher._CLOSED_BAND[1]])
    def test_matches_the_rule_across_the_band(self, r):
        # the line at either window edge, inside and at the centre, and the
        # farther edge 1 and 2 to 1e4 half-widths away; normalized by the
        # diagonal, 100 times under the adaptive oracle's 1e-9
        lo, hi = WINDOW
        rows = []
        reaches = np.concatenate([[1.0], np.geomspace(2.0, 1e4, 14)])
        for where, reach in itertools.product([0.0, 0.1, 0.5, 0.9, 1.0], reaches):
            nu_l = lo + where * (hi - lo)
            rows.append((2.0, nu_l, 2.0 * r, 2.0 * max(nu_l - lo, hi - nu_l) / reach))
        theta = np.array(rows)
        closed, u, r = fisher._closed_rows(theta, *WINDOW)
        assert closed.all()
        got, want = fisher._closed_form(theta, u, r).transpose(2, 0, 1), fisher._outer_integral(theta, *WINDOW)
        d = np.sqrt(np.diagonal(want, axis1=1, axis2=2))
        assert np.max(np.abs(got - want) / (d[:, :, None] * d[:, None, :])) <= 1e-11

    @pytest.mark.parametrize("xi2", [1.0, 0.55])
    def test_the_shipped_scan_grid_takes_the_closed_form(self, xi2):
        cfg = load_config(CONFIG_DIR / "scan_reference.json")
        theta = params_from_conditions_array(cfg.scan.n_values[:, None], cfg.scan.p_values[None, :], xi2, cfg.instrument)
        acq = cfg.acquisition
        assert fisher._closed_rows(theta.reshape(-1, 4), acq.fit_lo, acq.fit_hi)[0].all()

    def test_the_validate_reference_takes_the_closed_form(self):
        cfg = load_config(CONFIG_DIR / "validate_reference.json")
        acq = cfg.acquisition
        assert fisher._closed_rows(cfg.spectral_params().as_array()[None], acq.fit_lo, acq.fit_hi)[0].all()

    def test_rows_outside_the_band_keep_the_rule_bits(self):
        # below and above the band, a line outside the window, a window
        # shorter than a half-width, a non-finite row: the quadrature's bits
        theta = np.array([
            (1.0, 42.6e3, 0.05, 1e3), (1.0, 42.6e3, 200.0, 1e3), (1.0, 20e3, 4.0, 1e3),
            (1.0, 42.5e3, 4.0, 4e4), (1.0, 42.6e3, 4.0, 1e-320), (np.nan, 42.6e3, 4.0, 1e3),
        ])
        assert not fisher._closed_rows(theta, *WINDOW)[0].any()
        with np.errstate(all="ignore"):
            want = fisher._symmetrize(52 / 100.0 * fisher._outer_integral(theta, *WINDOW))
            np.testing.assert_array_equal(fisher._integral_info(theta, WINDOW, 100.0, 50).transpose(2, 0, 1), want)


def test_bin_width_invariance_of_underlying_information():
    # the same record coarse-grained differently carries the same information:
    # info * nu_t / (n_eff + 2) is the invariant
    cfg25 = AcquisitionConfig(
        delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_bin=25
    )
    a = fisher_discrete(V, window_bins(CFG), CFG.n_eff)
    b = fisher_discrete(V, window_bins(cfg25), cfg25.n_eff)
    inv_a = a.info * a.nu_t / (a.n_eff + 2)
    inv_b = b.info * b.nu_t / (b.n_eff + 2)
    assert norm_diff(inv_a, inv_b) < 0.01


class TestTwoPathIdentity:
    def test_matches_crb_after_count_correction(self):
        bins = window_bins()
        crb = fisher_discrete(V, bins, 50).gamma_th
        ep = error_propagation_covariance(V, bins, 50)
        assert norm_diff(ep * 50.0 / 52.0, crb) < 1e-10

    def test_holds_across_parameter_space(self):
        rng = np.random.default_rng(2026)
        bins = window_bins()
        for _ in range(10):
            v = SpectralParams(
                s_ph=float(rng.uniform(0.1, 10.0)),
                nu_l=float(rng.uniform(38e3, 47e3)),
                s_at=float(rng.uniform(0.5, 50.0)),
                delta_nu=float(rng.uniform(300.0, 4000.0)),
            )
            n_eff = int(rng.integers(2, 400))
            crb = fisher_discrete(v, bins, n_eff).gamma_th
            ep = error_propagation_covariance(v, bins, n_eff)
            assert norm_diff(ep * n_eff / (n_eff + 2.0), crb) < 1e-10

    def test_error_propagation_rejects_bad_bins_and_counts(self):
        with pytest.raises(ValueError):
            error_propagation_covariance(V, window_bins()[:3], 50)
        with pytest.raises(ValueError):
            error_propagation_covariance(V, window_bins(), 0)

    def test_error_propagation_rejects_singular_design(self):
        flat = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        with pytest.raises(NumericalError):
            error_propagation_covariance(flat, window_bins(), 50)


class TestInvertPsdMatrix:
    # one matrix is the one-row stack a[None]
    def test_identity(self):
        inv, rank = invert_psd_stack(np.eye(3)[None])
        assert rank[0] == 3
        np.testing.assert_allclose(inv[0], np.eye(3), atol=1e-14)

    def test_badly_scaled_but_regular(self):
        # units spanning 12 decades must not masquerade as rank deficiency
        d = np.array([1e-6, 1.0, 1e6])
        a = np.outer(d, d) * np.array(
            [[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 4.0]]
        )
        inv, rank = invert_psd_stack(a[None])
        assert rank[0] == 3
        # backward-error residual: elementwise against the attainable scale
        resid = np.abs(inv[0] @ a - np.eye(3))
        assert np.all(resid <= 1e-12 * (np.abs(inv[0]) @ np.abs(a)) + 1e-12)

    def test_rank_deficient_reports_rank(self):
        x = np.array([1.0, 2.0, 3.0])
        inv, rank = invert_psd_stack(np.outer(x, x)[None])
        assert np.isnan(inv).all()
        assert rank[0] == 1

    def test_zero_diagonal_short_circuit(self):
        a = np.diag([1.0, 0.0, 2.0])
        inv, rank = invert_psd_stack(a[None])
        assert np.isnan(inv).all()
        assert rank[0] == 2


class TestInvertPsdStack:
    def stack(self):
        rng = np.random.default_rng(11)
        regular = [x @ x.T for x in rng.normal(size=(5, 4, 6))]
        d = 10.0 ** np.array([-6.0, 0.0, 3.0, 6.0])
        scaled = [np.outer(d, d) * regular[0], np.outer(d[::-1], d[::-1]) * regular[1]]
        deficient = [x @ x.T for x in (rng.normal(size=(4, r)) for r in (1, 2, 3))]
        zero_diag = regular[2].copy()
        zero_diag[1, :] = zero_diag[:, 1] = 0.0
        non_finite = regular[3].copy()
        non_finite[0, 0] = np.nan
        mats = regular + scaled + deficient + [zero_diag, np.zeros((4, 4)), non_finite]
        ranks = [4] * 7 + [1, 2, 3, 3, 0, 0]
        return np.array(mats), ranks

    def test_each_entry_matches_the_one_matrix_call(self):
        mats, ranks = self.stack()
        inverses, got = invert_psd_stack(mats)
        assert got.tolist() == ranks
        for a, inv, rank in zip(mats, inverses, got):
            want, want_rank = invert_psd_stack(a[None])
            assert rank == want_rank[0]
            np.testing.assert_array_equal(inv, want[0])  # NaN where rank < 4

    def test_entries_do_not_depend_on_their_neighbours(self):
        mats, _ = self.stack()
        inverses, ranks = invert_psd_stack(mats)
        order = np.random.default_rng(3).permutation(len(mats))
        shuffled, shuffled_ranks = invert_psd_stack(mats[order])
        np.testing.assert_array_equal(shuffled, inverses[order])
        np.testing.assert_array_equal(shuffled_ranks, ranks[order])

    def test_all_full_rank_stack_keeps_the_mixed_stack_bits(self):
        # a stack with no zero diagonal, no non-finite entry and no deficient
        # matrix takes the short branch; its inverses keep their bits
        mats, ranks = self.stack()
        regular = np.array(ranks) == 4
        inverses, _ = invert_psd_stack(mats)
        alone, alone_ranks = invert_psd_stack(mats[regular])
        assert alone_ranks.tolist() == [4] * regular.sum()
        np.testing.assert_array_equal(alone, inverses[regular], strict=True)

    @staticmethod
    def correlation(a):
        """The correlation form invert_psd_stack factors, for positive diagonals."""
        d = np.sqrt(np.diagonal(a, axis1=1, axis2=2))
        c = a / (d[:, :, None] * d[:, None, :])
        return 0.5 * (c + np.swapaxes(c, 1, 2))

    @staticmethod
    def certified(c):
        """_cholesky_inverse's certificate of each matrix of an (m, n, n) correlation stack."""
        n = c.shape[-1]
        b = np.empty((n, 2 * n, c.shape[0]))
        b[:, :n] = c.transpose(1, 2, 0)
        return fisher._cholesky_inverse(b)[1]

    @pytest.mark.parametrize(
        "eigenvalues, seed", [((-0.5, -0.5, 2.5, 2.5), 4), ((-0.5, -0.5, 2.5, 2.5), 18), ((-0.5, 1.5, 1.5, 2.5), 1)]
    )
    def test_indefinite_matrix_is_never_certified(self, eigenvalues, seed, eigh_verdict):
        # Q diag(eigenvalues) Q^T in correlation form keeps the signs of its
        # eigenvalues, and |det| is far above the threshold. With two negative
        # ones det > 0, so only the sign of the pivots rules it out: its first
        # negative pivot is the third at seed 4 and the second at seed 18. With
        # one, at seed 1, only the last pivot is negative, and so is det.
        q = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
        a = q @ np.diag(eigenvalues) @ q.T
        assert np.all(np.diag(a) > 0)
        c = self.correlation(a[None])
        w = np.linalg.eigvalsh(c[0])
        assert np.sum(w < 0) == np.sum(np.array(eigenvalues) < 0)
        assert abs(np.prod(w)) > 256 * fisher.RANK_TOL
        assert not self.certified(c)[0]
        inverse, rank = invert_psd_stack(c)
        assert rank[0] == eigh_verdict(c)[0] < 4
        assert np.all(np.isnan(inverse))

    @pytest.mark.parametrize("ratio", [1e-8, 1e-10, 1e-11, 2e-12, 5e-13, 1e-14])
    def test_rank_near_the_threshold_is_the_eigenvalue_verdict(self, ratio, eigh_verdict):
        # a correlation matrix with eigenvalues (ratio l, 0.9, 1, l), l = 2.1 / (1 + ratio)
        top = 2.1 / (1.0 + ratio)
        c = random_correlation.rvs([ratio * top, 0.9, 1.0, top], random_state=np.random.default_rng(5))
        w = np.linalg.eigvalsh(c)
        assert w[0] / w[-1] == pytest.approx(ratio, rel=0.01)
        inverse, rank = invert_psd_stack(c[None])
        assert rank[0] == eigh_verdict(c[None])[0]
        assert np.isnan(inverse).all() == (rank[0] < 4)

    def test_random_gram_stacks(self, eigh_verdict):
        # 4x4 Gram stacks, some nearly rank-deficient, in units spanning 12
        # decades: every rank is the eigenvalue verdict, every certified row
        # meets the backward-error bound of test_badly_scaled_but_regular,
        # and no row depends on its neighbours
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(deadline=None, derandomize=True, database=None, max_examples=60)
        @hypothesis.given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 24), k=st.integers(1, 7))
        def check(seed, m, k):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(m, 4, k))
            x[:, 3] = x[:, 2] + 10.0 ** rng.uniform(-9, 0, size=(m, 1)) * x[:, 3]
            d = 10.0 ** rng.uniform(-6, 6, size=(m, 4))
            a = (x @ np.swapaxes(x, 1, 2)) * d[:, :, None] * d[:, None, :]
            inverse, rank = invert_psd_stack(a)
            np.testing.assert_array_equal(rank, eigh_verdict(a))
            for i in np.flatnonzero(self.certified(self.correlation(a))):
                np.testing.assert_array_equal(inverse[i], inverse[i].T)
                resid = np.abs(inverse[i] @ a[i] - np.eye(4))
                assert np.all(resid <= 1e-12 * (np.abs(inverse[i]) @ np.abs(a[i])) + 1e-12)
            for i in range(m):
                alone, alone_rank = invert_psd_stack(a[i : i + 1])
                np.testing.assert_array_equal(alone[0], inverse[i])
                assert alone_rank[0] == rank[i]
            order = rng.permutation(m)
            shuffled, shuffled_rank = invert_psd_stack(a[order])
            np.testing.assert_array_equal(shuffled, inverse[order])
            np.testing.assert_array_equal(shuffled_rank, rank[order])

        check()

    @pytest.mark.parametrize("xi2", [1.0, 0.55])
    def test_shipped_scan_stack_is_certified_and_matches_eigh(self, xi2, monkeypatch):
        # every cell of the shipped 50x50 scan is certified, and its bound is
        # within 1e-13 of the eigen-factorization's, relative to sqrt(g_ii g_jj)
        cfg = load_config(CONFIG_DIR / "scan_reference.json")
        seen = []

        def recording(a):
            seen.append(a)
            return invert_psd_stack(a)

        monkeypatch.setattr(fisher, "invert_psd_stack", recording)
        scan_grid(cfg.scan.n_values, cfg.scan.p_values, cfg.instrument, cfg.acquisition, xi2)
        (info,) = seen
        assert info.shape == (2500, 4, 4)
        c = self.correlation(info)
        assert self.certified(c).all()
        gamma, rank = invert_psd_stack(info)
        assert (rank == 4).all()
        w, q = np.linalg.eigh(c)
        d = np.sqrt(np.diagonal(info, axis1=1, axis2=2))
        want = (q / w[:, None, :]) @ np.swapaxes(q, 1, 2) / (d[:, :, None] * d[:, None, :])
        g = np.sqrt(np.diagonal(want, axis1=1, axis2=2))
        assert np.max(np.abs(gamma - want) / (g[:, :, None] * g[:, None, :])) <= 1e-13


def invert_psd_stack_reference(a):
    """fisher.invert_psd_stack as it was before the inverse was rescaled in
    place and _cholesky_inverse took its identity from a constant: verbatim
    but for the module names, with _cholesky_inverse copied in below."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape[0], a.shape[-1]
    d = np.sqrt(np.maximum(a.diagonal(0, 1, 2), 0.0))
    zero = d <= 0
    scale = np.where(zero, 1.0, d)
    scale = scale[:, :, None] * scale[:, None, :]
    corr = fisher._symmetrize(a / scale)
    inverse, certified = cholesky_inverse_reference(corr)
    rank = np.full(m, n)
    if not certified.all():
        rest = ~certified
        inverse[rest], rank[rest] = fisher._eigh_inverse(corr[rest], zero[rest])
    return inverse / scale, rank


def cholesky_inverse_reference(c):
    n = c.shape[-1]
    b = np.empty((n, 2 * n, c.shape[0]))
    b[:, :n] = c.transpose(1, 2, 0)
    b[:, n:] = np.eye(n)[:, :, None]
    with np.errstate(all="ignore"):
        for j in range(n):
            row = b[j, j + 1 :]
            row /= np.sqrt(b[j, j])
            b[j + 1 :, j + 1 :] -= row[: n - 1 - j, None] * row
        det = b[0, 0]
        for j in range(1, n):
            det = det * b[j, j]
        certified = det > float(n) ** n * fisher.RANK_TOL
        inv_l = np.ascontiguousarray(b[:, n:].transpose(2, 0, 1))
        return inv_l.swapaxes(1, 2) @ inv_l, certified


class TestInvertPsdStackBits:
    """invert_psd_stack keeps the reference's bits on every class of matrix."""

    @staticmethod
    def classes():
        """{class: (m, 4, 4) stack}, each matrix of its class."""
        mats, ranks = TestInvertPsdStack().stack()
        ranks = np.array(ranks)
        near = [
            random_correlation.rvs([r * 2.1 / (1 + r), 0.9, 1.0, 2.1 / (1 + r)], random_state=np.random.default_rng(5))
            for r in (1e-10, 2e-12, 1e-12, 5e-13, 1e-14)
        ]
        indefinite = []
        for eigenvalues, seed in (((-0.5, -0.5, 2.5, 2.5), 4), ((-0.5, -0.5, 2.5, 2.5), 18), ((-0.5, 1.5, 1.5, 2.5), 1)):
            q = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
            indefinite.append(q @ np.diag(eigenvalues) @ q.T)
        return {
            "certified": mats[ranks == 4],
            "zero diagonal": mats[[10, 11]],
            "non-finite": mats[[12]],
            "rank-deficient": mats[[7, 8, 9]],
            "near RANK_TOL": np.array(near),
            "indefinite": np.array(indefinite),
        }

    def assert_same_bits(self, a):
        got, want = invert_psd_stack(a), invert_psd_stack_reference(a)
        for x, y in zip(got, want, strict=True):
            assert x.shape == y.shape and x.dtype == y.dtype
            np.testing.assert_array_equal(x.view(np.uint8), y.view(np.uint8))

    def test_one_matrix_of_every_class(self):
        for name, mats in self.classes().items():
            for a in mats:
                self.assert_same_bits(a[None])

    def test_mixed_stacks(self):
        classes = self.classes()
        assert not TestInvertPsdStack.certified(TestInvertPsdStack.correlation(classes["indefinite"])).any()
        mats = np.concatenate(list(classes.values()))
        self.assert_same_bits(mats)
        self.assert_same_bits(mats[np.random.default_rng(7).permutation(len(mats))])
        self.assert_same_bits(classes["certified"])
        self.assert_same_bits(np.eye(3)[None] + np.zeros((2, 1, 1)))


def integral_info_reference(theta, window, nu_t, n_eff):
    """fisher._integral_info as it was before the stack stayed in (4, 4, m)
    planes: verbatim but for the module names and for _closed_form's
    planes, which it took as (rows, 4, 4)."""
    lo, hi = float(window[0]), float(window[1])
    if not (0 <= lo < hi):
        raise ValueError(f"window must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    if nu_t <= 0:
        raise ValueError(f"nu_t must be > 0, got {nu_t}")
    if n_eff < 1:
        raise ValueError(f"n_eff must be >= 1, got {n_eff}")
    theta = np.asarray(theta, dtype=float)
    closed, u, r = fisher._closed_rows(theta, lo, hi)
    info = np.empty((theta.shape[0], 4, 4))
    if closed.any():
        info[closed] = fisher._closed_form(theta[closed], u[:, closed], r[closed]).transpose(2, 0, 1)
    if not closed.all():
        info[~closed] = fisher._outer_integral(theta[~closed], lo, hi)
    return fisher._symmetrize((n_eff + 2.0) / nu_t * info)


def integral_covariance_stack_reference(theta, window, nu_t, n_eff):
    """fisher.integral_covariance_stack as it was before the stack stayed in planes."""
    return invert_psd_stack_reference(integral_info_reference(theta, window, nu_t, n_eff))[0]


class TestIntegralStackBits:
    """The information and the bounds of a stack keep the references' bits."""

    @staticmethod
    def scan_stack(xi2=1.0, kappa2=1.0):
        """The shipped scan's (2500, 4) stack, with the instrument's kappa2 scaled."""
        cfg = load_config(CONFIG_DIR / "scan_reference.json")
        inst = dataclasses.replace(cfg.instrument, kappa2=cfg.instrument.kappa2 * kappa2)
        theta = params_from_conditions_array(cfg.scan.n_values[:, None], cfg.scan.p_values[None, :], xi2, inst)
        acq = cfg.acquisition
        return theta.reshape(-1, 4), (acq.fit_lo, acq.fit_hi), acq.coarse_spacing, acq.n_eff

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    def check(self, theta, window, nu_t, n_eff):
        # in grid order and shuffled: the information as planes, and the bounds
        for rows in (theta, theta[np.random.default_rng(17).permutation(len(theta))]):
            with np.errstate(all="ignore"):
                info = fisher._integral_info(rows, window, nu_t, n_eff)
                want = integral_info_reference(rows, window, nu_t, n_eff)
            self.assert_same_bits(np.ascontiguousarray(info.transpose(2, 0, 1)), want)
            self.assert_same_bits(
                integral_covariance_stack(rows, window, nu_t, n_eff),
                integral_covariance_stack_reference(rows, window, nu_t, n_eff),
            )

    @pytest.mark.parametrize(
        "xi2, kappa2, off_band",
        [(1.0, 1.0, 0), (0.55, 1.0, 0), (1.0, 0.1, 39), (1.0, 1e-3, 2500)],
        ids=["xi2_1", "xi2_0.55", "kappa2_0.1", "kappa2_1e-3"],
    )
    def test_scan_stacks(self, xi2, kappa2, off_band):
        # the shipped grids take the closed form alone, a tenth of kappa2
        # mixes both paths, and a thousandth takes the quadrature alone
        theta, window, nu_t, n_eff = self.scan_stack(xi2, kappa2)
        assert np.sum(~fisher._closed_rows(theta, *window)[0]) == off_band
        self.check(theta, window, nu_t, n_eff)

    @pytest.mark.parametrize(
        "kappa2, off_band", [(1.0, 0), (0.1, 39), (1e-3, 2500), (None, 1)],
        ids=["shipped", "kappa2_0.1", "kappa2_1e-3", "weak_line"],
    )
    def test_only_off_band_rows_reach_the_quadrature(self, kappa2, off_band, monkeypatch):
        # every row takes the closed form; the quadrature sees the rows off
        # the band and no other, in stack order
        if kappa2 is None:
            theta, window, nu_t, n_eff = np.array([(1.0, 42.6e3, 0.05, 1e3)]), WINDOW, 100.0, 50
        else:
            theta, window, nu_t, n_eff = self.scan_stack(1.0, kappa2)
        seen, outer = [], fisher._outer_integral

        def recording(rows, lo, hi):
            seen.append(rows.copy())
            return outer(rows, lo, hi)

        monkeypatch.setattr(fisher, "_outer_integral", recording)
        with np.errstate(all="ignore"):
            fisher._integral_info(theta, window, nu_t, n_eff)
        got = np.concatenate(seen) if seen else np.empty((0, 4))
        assert len(got) == off_band
        np.testing.assert_array_equal(got, theta[~fisher._closed_rows(theta, *window)[0]])

    def test_singular_rows_among_the_scan(self):
        # s_at 0 (rank 2) and a line far outside the window (the
        # eigen-factorization's verdict) among every 50th cell of the mixed stack
        theta, window, nu_t, n_eff = self.scan_stack(1.0, 0.1)
        singular = np.array([(1.0, 42.6e3, 0.0, 1e3), (2.0, 1e6, 4.0, 1e3), (1.0, 20e3, 0.0, 500.0)])
        rows = np.concatenate([theta[::50], singular])
        gamma = integral_covariance_stack(rows, window, nu_t, n_eff)
        assert np.isnan(gamma[-3:]).all()
        self.check(rows, window, nu_t, n_eff)


class TestWishartStd:
    def test_diagonal_rule(self):
        g = np.diag([4.0, 9.0])
        w = wishart_std(g, 50)
        assert w[0, 0] == pytest.approx(4.0 * math.sqrt(2.0 / 50), rel=1e-14)
        assert w[1, 1] == pytest.approx(9.0 * math.sqrt(2.0 / 50), rel=1e-14)
        # independent pair: var = gamma_ii gamma_jj / N
        assert w[0, 1] == pytest.approx(6.0 / math.sqrt(50), rel=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(wishart_std(np.zeros((3, 3)), 10), 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            wishart_std(np.ones((2, 3)), 10)
        with pytest.raises(ValueError):
            wishart_std(np.eye(2), 1)

    def test_predicts_sample_covariance_scatter(self):
        # 100 repetitions of a 100-sample covariance: the normalized
        # deviation should behave like a z-score
        from snspec.estimation import sample_covariance

        gamma = np.array(
            [
                [2.0, 0.3, 0.0, 0.1],
                [0.3, 5.0, -1.0, 0.4],
                [0.0, -1.0, 3.0, 0.2],
                [0.1, 0.4, 0.2, 8.0],
            ]
        )
        rng = np.random.default_rng(1234)
        n_ok = 0
        for _ in range(100):
            draws = rng.multivariate_normal(np.zeros(4), gamma, size=100)
            _, gamma_exp = sample_covariance(draws)
            if np.max(normalized_deviation(gamma_exp, gamma, 100)) <= 4.0:
                n_ok += 1
        assert n_ok >= 95


class TestNormalizedDeviation:
    def test_equal_matrices_give_zero(self):
        g = np.diag([1.0, 2.0])
        np.testing.assert_array_equal(normalized_deviation(g, g, 10), 0.0)

    def test_single_element_hand_value(self):
        gt = np.array([[4.0]])
        ge = np.array([[4.0 + 3 * 4.0 * math.sqrt(2.0 / 50)]])
        dev = normalized_deviation(ge, gt, 50)
        assert dev[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_deviation(np.eye(2), np.eye(3), 10)


class TestGoldenFixture:
    """Reference covariance triple frozen under tests/data."""

    @staticmethod
    def ulp(q):
        # one unit of the last place of a 2-significant-figure quote
        return 10.0 ** (math.floor(math.log10(abs(q))) - 1)

    def test_sigma_matches_wishart_law(self, gamma_th, sigma_th):
        w = wishart_std(gamma_th, 100)
        for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 3), (1, 2), (2, 3)]:
            assert abs(w[i, j] - sigma_th[i, j]) <= self.ulp(sigma_th[i, j]), (i, j)

    def test_excluded_elements_are_off_by_factor_100(self, gamma_th, sigma_th):
        # the two excluded entries of the quoted table are misprints by
        # exactly two decades, one in each direction
        w = wishart_std(gamma_th, 100)
        assert sigma_th[0, 2] == pytest.approx(w[0, 2] / 100, rel=0.05)
        assert sigma_th[1, 3] == pytest.approx(w[1, 3] * 100, rel=0.05)

    def test_deviation_band_with_quoted_sigma(self, gamma_exp, gamma_th, sigma_th):
        dev = np.abs(gamma_th - gamma_exp) / sigma_th
        assert 1.0 <= dev.max() <= 2.6

    def test_deviation_band_with_computed_sigma(self, gamma_exp, gamma_th):
        dev = normalized_deviation(gamma_exp, gamma_th, 100)
        keep = np.ones((4, 4), dtype=bool)
        for i, j in [(0, 2), (1, 3)]:
            keep[i, j] = keep[j, i] = False
        assert 1.0 <= dev[keep].max() <= 2.6
