"""Objective function, starting values, fitting, sample covariance, cumulants."""

import dataclasses
import warnings

import numpy as np
import pytest

from snspec import estimation
from snspec.errors import ConfigError
from snspec.fisher import invert_psd_stack, wishart_std
from snspec.model import SpectralParams, eval_psd
from snspec.estimation import (
    chi_squared,
    initial_guess,
    k2,
    k4,
    mle_fit,
    mle_fit_stack,
    sample_covariance,
    var_k2,
)
from snspec.montecarlo import run_validation, trial_spectrum
from snspec.profiles import REFERENCE_ACQUISITION
from snspec.synthesis import AcquisitionConfig, Spectrum

V = SpectralParams(s_ph=1.2, nu_l=42600.0, s_at=4.8, delta_nu=1500.0)
CFG = AcquisitionConfig(
    delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=50
)
WINDOW = (CFG.fit_lo, CFG.fit_hi)


def noiseless_spectrum(v=V, cfg=CFG, n_eff=None):
    nu = cfg.coarse_grid()
    return Spectrum(nu=nu, s_bar=eval_psd(v, nu), n_eff=n_eff or cfg.n_eff)


class TestChiSquared:
    def test_zero_at_exact_model(self):
        assert chi_squared(V, noiseless_spectrum(), WINDOW) == 0.0

    def test_single_bin_hand_value(self):
        flat = SpectralParams(s_ph=1.0, nu_l=10.0, s_at=0.0, delta_nu=1.0)
        sp = Spectrum(nu=np.array([1.0]), s_bar=np.array([2.0]), n_eff=1)
        assert chi_squared(flat, sp, (0.5, 1.5)) == pytest.approx(1.0, rel=1e-15)

    def test_expectation_is_bins_over_n_eff(self):
        # var(S_bar/f) = 1/n_eff per bin, so E[chi2] = K/n_eff at the truth
        k_bins = np.count_nonzero(
            (CFG.coarse_grid() >= WINDOW[0]) & (CFG.coarse_grid() <= WINDOW[1])
        )
        vals = [
            chi_squared(V, trial_spectrum(V, CFG, (2, i), "gamma"), WINDOW)
            for i in range(100)
        ]
        # per-draw SD is sqrt(2 K)/n_eff = 0.39, so the 100-seed mean carries
        # an SE of 0.039; 0.05 relative is a 5 sigma band
        assert np.mean(vals) == pytest.approx(k_bins / CFG.n_eff, rel=0.05)

    def test_window_restricts_bins(self):
        sp = noiseless_spectrum()
        wrong = SpectralParams(s_ph=2.4, nu_l=42600.0, s_at=4.8, delta_nu=1500.0)
        full = chi_squared(wrong, sp, WINDOW)
        assert chi_squared(wrong, sp, (40e3, 45e3)) < full

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            chi_squared(V, noiseless_spectrum(), (5e4, 3e4))


class TestInitialGuess:
    def test_noiseless_recovery_within_coarse_tolerances(self):
        g = initial_guess(noiseless_spectrum(), WINDOW)
        assert g.s_ph == pytest.approx(V.s_ph, rel=0.1)
        assert g.nu_l == pytest.approx(V.nu_l, abs=2 * CFG.coarse_spacing)
        assert g.s_at == pytest.approx(V.s_at, rel=0.1)
        assert g.delta_nu == pytest.approx(V.delta_nu, rel=0.25)

    def test_flat_noisy_spectrum_yields_valid_parameters(self):
        flat = SpectralParams(s_ph=2.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        cfg = AcquisitionConfig(
            delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=8, n_bin=50
        )
        g = initial_guess(trial_spectrum(flat, cfg, 4, "gamma"), WINDOW)
        # SpectralParams construction already enforces positivity
        assert g.s_ph == pytest.approx(2.0, rel=0.05)
        assert g.s_at < 0.5

    def test_too_few_bins_rejected(self):
        sp = noiseless_spectrum()
        with pytest.raises(ConfigError):
            initial_guess(sp, (42600.0, 42600.0 + 3 * CFG.coarse_spacing))

    def test_mean_level_is_formed_only_for_wingless_rows(self):
        # near the top of the float range the mean over a spectrum's bins
        # overflows; its wings give s_ph, so that mean is never formed
        sp = trial_spectrum(V, CFG, (5, 0), "gamma")
        huge = Spectrum(sp.nu, sp.s_bar * 1e306, sp.n_eff)
        np.testing.assert_allclose(
            initial_guess(huge, WINDOW).as_array(),
            initial_guess(sp, WINDOW).as_array() * [1e306, 1.0, 1e306, 1.0],
            rtol=1e-15,
        )
        mle_fit(huge, WINDOW)  # ends without a RuntimeWarning, converged or not
        # a row whose wings are zero takes the mean level, and its neighbour
        # keeps the bits it has alone
        idx = estimation.fit_bins(sp.nu, WINDOW)
        nu, q = sp.nu[idx], idx.size // 4
        wingless = eval_psd(V, nu)
        wingless[:q] = wingless[-q:] = 0.0
        rows = np.array([huge.s_bar[idx], wingless])
        guess = estimation._initial_guess_stack(nu, rows, WINDOW)
        assert guess[1, 0] == np.mean(wingless)
        np.testing.assert_array_equal(guess[0], estimation._initial_guess_stack(nu, rows[:1], WINDOW)[0], strict=True)


class TestMleFit:
    def test_noiseless_recovery_to_machine_precision(self):
        r = mle_fit(noiseless_spectrum(), WINDOW)
        assert r.converged
        np.testing.assert_allclose(r.v_hat.as_array(), V.as_array(), rtol=1e-6)
        assert r.chi2 < 1e-12
        assert r.window == WINDOW

    def test_recovers_from_distant_start(self):
        start = SpectralParams(
            s_ph=1.3 * V.s_ph,
            nu_l=V.nu_l + 200.0,
            s_at=0.7 * V.s_at,
            delta_nu=1.4 * V.delta_nu,
        )
        r = mle_fit(noiseless_spectrum(), WINDOW, guess=start)
        np.testing.assert_allclose(r.v_hat.as_array(), V.as_array(), rtol=1e-6)

    def test_reported_chi2_matches_objective(self):
        sp = trial_spectrum(V, CFG, 17, "gamma")
        r = mle_fit(sp, WINDOW)
        assert r.chi2 == pytest.approx(chi_squared(r.v_hat, sp, WINDOW), rel=1e-10)

    def test_flat_spectrum_background_recovery(self):
        flat = SpectralParams(s_ph=2.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        cfg = AcquisitionConfig(
            delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=200, n_bin=50
        )
        r = mle_fit(trial_spectrum(flat, cfg, 6, "gamma"), WINDOW)
        assert r.v_hat.s_ph == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("n_bin", [50, 5])
    def test_whittle_fit_is_unbiased(self, n_bin):
        # n_eff = 50 and 5; the relative least squares it replaced put s_ph and
        # s_at a factor (1 + 1/n_eff) high, 2% and 20% here
        cfg = dataclasses.replace(CFG, n_bin=n_bin)
        spectra = [trial_spectrum(V, cfg, (314, i), "gamma") for i in range(400)]
        v_hat, _, converged = mle_fit_stack(spectra[0].nu, np.array([sp.s_bar for sp in spectra]), WINDOW)
        assert converged.all()
        mean, gamma = sample_covariance(v_hat)
        se = np.sqrt(np.diag(gamma) / len(v_hat))
        assert np.all(np.abs(mean - V.as_array()) < 3 * se)

    def test_weak_line_trial_that_overflowed_ends_in_a_finite_fit(self):
        # weak-line gamma-route trial 56 of seed 0 drove the relative least
        # squares out of the float range; it must still end in a finite result
        v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.05, delta_nu=1000.0)
        sp = trial_spectrum(v, REFERENCE_ACQUISITION, (0, 56), "gamma")
        window = (REFERENCE_ACQUISITION.fit_lo, REFERENCE_ACQUISITION.fit_hi)
        r = mle_fit(sp, window)
        assert np.all(np.isfinite(r.v_hat.as_array()))
        assert np.isfinite(r.chi2)

    @pytest.mark.parametrize(
        "s_at",
        # subnormal: the line's columns of J^T J underflow to zero, so the
        # first step matrix is singular; huge: d ln f / d nu_l overflows, so
        # the first normal matrix is not finite
        [1e-320, 1e308],
        ids=["underflow", "overflow"],
    )
    def test_fit_that_starts_out_of_range_reports_its_start(self, s_at):
        sp = trial_spectrum(V, CFG, 17, "gamma")
        start = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=s_at, delta_nu=1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = mle_fit(sp, WINDOW, guess=start)
        assert not r.converged
        assert r.v_hat == start
        assert r.n_iter == 0
        with np.errstate(over="ignore"):
            assert r.chi2 == chi_squared(start, sp, WINDOW)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ConfigError):
            mle_fit(noiseless_spectrum(), (42600.0, 42600.0 + 3 * CFG.coarse_spacing))


class TestMleFitStack:
    """A stacked fit gives every row the bits of fitting it alone."""

    @staticmethod
    def mixed_stack():
        # reference rows converge in a few steps, weak-line rows (trial 56
        # among them) take up to a hundred, so rows leave the solve at
        # different iterations; the last three rows leave it every other way
        strong = [trial_spectrum(V, CFG, (5, k), "gamma") for k in range(6)]
        weak_v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.05, delta_nu=1000.0)
        weak = [trial_spectrum(weak_v, CFG, (0, k), "gamma") for k in (3, 56, 90)]
        spectra = strong[:3] + weak + strong[3:]
        # a start whose model overflows fails before step 1: one bin at 1e300
        # makes the start's s_at overflow it, while s_ph, from the wings, is
        # in range and leaves the row at its own scale
        out_of_range = strong[0].s_bar.copy()
        out_of_range[np.flatnonzero(strong[0].nu >= WINDOW[0])[40]] = 1e300
        # this weak-line trial is still falling after _MAX_STEPS steps
        step_limit = trial_spectrum(weak_v, CFG, (0, 94), "gamma").s_bar
        # and this weaker one's damped normal matrix loses rank at step 41
        weaker_v = dataclasses.replace(weak_v, s_at=0.02)
        deficient = trial_spectrum(weaker_v, CFG, (0, 243), "gamma").s_bar
        rows = [sp.s_bar for sp in spectra] + [out_of_range, step_limit, deficient]
        return spectra[0].nu, np.array(rows)

    @staticmethod
    def as_arrays(fits):
        """The (v_hat, n_iter, converged) arrays of a list of FitResults."""
        return (
            np.array([r.v_hat.as_array() for r in fits]),
            np.array([r.n_iter for r in fits]),
            np.array([r.converged for r in fits]),
        )

    def assert_same(self, a, b):
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y, strict=True)

    def test_rows_equal_single_fits_bit_for_bit(self):
        nu, s_bar = self.mixed_stack()
        fits = mle_fit_stack(nu, s_bar, WINDOW)
        singles = [mle_fit(Spectrum(nu=nu, s_bar=row, n_eff=CFG.n_eff), WINDOW) for row in s_bar]
        assert np.unique(fits[1]).size > 2
        v_hat, n_iter, converged = fits
        start = [initial_guess(Spectrum(nu, row, CFG.n_eff), WINDOW).as_array() for row in s_bar[-3:]]
        assert n_iter[-3:].tolist() == [0, estimation._MAX_STEPS, 41]
        assert not converged[-3:].any()
        # a failed row returns its start, a row at the step limit its best point
        np.testing.assert_array_equal(v_hat[[-3, -1]], [start[0], start[2]])
        assert not np.allclose(v_hat[-2], start[1], rtol=0.1)
        self.assert_same(fits, self.as_arrays(singles))

    def test_rank_verdicts_through_the_solve_are_the_eigenvalue_verdicts(self, monkeypatch, eigh_verdict):
        # every damped normal matrix the solve inverts, on the mixed stack and
        # on a weak-line validate run, gets the rank the eigenvalue test gives
        calls = []

        def recording(a):
            inverse, rank = invert_psd_stack(a)
            calls.append((a.copy(), rank))
            return inverse, rank

        monkeypatch.setattr(estimation, "invert_psd_stack", recording)
        nu, s_bar = self.mixed_stack()
        n_iter = mle_fit_stack(nu, s_bar, WINDOW)[1]
        assert n_iter[-3:].tolist() == [0, estimation._MAX_STEPS, 41]
        weak_v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.05, delta_nu=1000.0)
        run_validation(weak_v, CFG, n_trials=20, master_seed=0, synthesis="gamma")
        mats = np.concatenate([a for a, _ in calls])
        ranks = np.concatenate([r for _, r in calls])
        assert (ranks < 4).any()
        np.testing.assert_array_equal(ranks, eigh_verdict(mats))

    def test_power_of_two_scale_keeps_the_bits(self):
        # a row whose start level is out of range is solved at the scale that
        # brings that level into [0.5, 1), so a spectrum at that scale and
        # the same spectrum times 2^+-1000 give the same bits
        sp = trial_spectrum(V, CFG, (5, 0), "gamma")
        base = np.ldexp(sp.s_bar, -np.frexp(initial_guess(sp, WINDOW).s_ph)[1])
        v_hat, n_iter, converged = mle_fit_stack(sp.nu, base[None], WINDOW)
        assert converged[0]
        level = np.array([1, 0, 1, 0])
        for k in (1000, -1000):
            fit = mle_fit_stack(sp.nu, np.ldexp(base, k)[None], WINDOW)
            self.assert_same(fit, (np.ldexp(v_hat, k * level), n_iter, converged))

    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_far_scales_converge_as_at_scale_one(self, scale):
        sp = trial_spectrum(V, CFG, (5, 0), "gamma")
        v_hat, n_iter, converged = mle_fit_stack(sp.nu, sp.s_bar[None], WINDOW)
        fit = mle_fit_stack(sp.nu, sp.s_bar[None] * scale, WINDOW)
        assert fit[2][0] and fit[1][0] == n_iter[0]
        np.testing.assert_allclose(fit[0] / [scale, 1.0, scale, 1.0], v_hat, rtol=1e-12)

    def test_permuted_stack_gives_permuted_results(self, monkeypatch):
        nu, s_bar = self.mixed_stack()
        fits = mle_fit_stack(nu, s_bar, WINDOW)
        perm = np.random.default_rng(0).permutation(len(s_bar))
        # and solve the permuted stack one row per block
        monkeypatch.setattr(estimation, "_BLOCK_BINS", 1)
        self.assert_same(mle_fit_stack(nu, s_bar[perm], WINDOW), [x[perm] for x in fits])

    def test_guesses_are_per_row(self):
        nu, s_bar = self.mixed_stack()
        start = SpectralParams(s_ph=1.3 * V.s_ph, nu_l=V.nu_l + 200.0, s_at=0.7 * V.s_at, delta_nu=1.4 * V.delta_nu)
        guesses = [start if i % 2 else initial_guess(Spectrum(nu, row, CFG.n_eff), WINDOW) for i, row in enumerate(s_bar)]
        fits = mle_fit_stack(nu, s_bar, WINDOW, guess=np.array([g.as_array() for g in guesses]))
        singles = [mle_fit(Spectrum(nu, row, CFG.n_eff), WINDOW, g) for row, g in zip(s_bar, guesses)]
        self.assert_same(fits, self.as_arrays(singles))


class TestSampleCovariance:
    def test_identical_vectors_give_zero(self):
        mean, gamma = sample_covariance([V.as_array()] * 3)
        np.testing.assert_array_equal(gamma, 0.0)
        np.testing.assert_allclose(mean, V.as_array())

    def test_two_sample_hand_value(self):
        mean, gamma = sample_covariance([[0.0, 0, 0, 0], [2.0, 0, 0, 0]])
        assert gamma[0, 0] == pytest.approx(1.0)  # divide by N, not N-1
        assert mean[0] == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(30, 4))
        _, a = sample_covariance(rows)
        _, b = sample_covariance(rows[::-1])
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_multivariate_normal_recovery_within_wishart_errors(self):
        gamma = np.array(
            [
                [4.0, 1.0, 0.5, 0.0],
                [1.0, 9.0, -2.0, 1.0],
                [0.5, -2.0, 16.0, 3.0],
                [0.0, 1.0, 3.0, 25.0],
            ]
        )
        rng = np.random.default_rng(15)
        draws = rng.multivariate_normal(np.zeros(4), gamma, size=400)
        _, gamma_exp = sample_covariance(draws)
        dev = np.abs(gamma_exp - gamma) / wishart_std(gamma, 400)
        assert np.max(dev) < 4.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sample_covariance([V.as_array()])


class TestCumulants:
    def test_exact_small_sample_values(self):
        assert k2([1.0, 2.0, 3.0]) == pytest.approx(1.0, rel=1e-14)
        assert k2([1.0, 2.0, 3.0, 4.0]) == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert k4([1.0, 2.0, 3.0, 4.0]) == pytest.approx(-10.0 / 3.0, rel=1e-13)
        assert var_k2([1.0, 2.0, 3.0, 4.0]) == pytest.approx(11.0 / 18.0, rel=1e-13)

    def test_overflow_is_non_finite_not_an_exception(self):
        # k2 is about 5e299 here, so its square leaves the float range
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(var_k2([1e150, -1e150, 3.0, 4.0, 5.0]))

    def test_minimum_sample_sizes(self):
        with pytest.raises(ValueError):
            k2([1.0])
        with pytest.raises(ValueError):
            k4([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            var_k2([1.0, 2.0, 3.0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(2.0, size=500)
        for c in (1e3, -4.5e6):
            assert k2(x + c) == pytest.approx(k2(x), rel=1e-9)
            assert k4(x + c) == pytest.approx(k4(x), rel=1e-6)

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(1.0, size=300)
        c = 3.7
        assert k2(c * x) == pytest.approx(c**2 * k2(x), rel=1e-12)
        assert k4(c * x) == pytest.approx(c**4 * k4(x), rel=1e-12)

    def test_consistency_on_exponential_cumulants(self):
        # Exp(theta): kappa_r = (r-1)! theta^r, so k2 -> 4 and k4 -> 96 at theta = 2
        rng = np.random.default_rng(5)
        x = rng.exponential(2.0, size=200_000)
        assert k2(x) == pytest.approx(4.0, rel=0.03)
        assert k4(x) == pytest.approx(96.0, rel=0.20)

    def test_var_k2_predicts_spread_of_k2(self):
        # split one long record into groups; the empirical variance of
        # group-level k2 should match the average var_k2 estimate
        rng = np.random.default_rng(6)
        groups = rng.exponential(1.0, size=(200, 1000))
        k2s = np.array([k2(g) for g in groups])
        predicted = np.mean([var_k2(g) for g in groups])
        assert np.var(k2s, ddof=1) == pytest.approx(predicted, rel=0.4)
