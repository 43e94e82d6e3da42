"""Objective function, starting values, fitting, sample covariance, cumulants."""

import dataclasses
import warnings

import numpy as np
import pytest

from snspec import estimation, montecarlo
from snspec.errors import ConfigError
from snspec.fisher import invert_psd_stack, wishart_std
from snspec.model import SpectralParams, eval_psd
from snspec.estimation import k2, k4, mle_fit, mle_fit_stack, sample_covariance, var_k2
from snspec.montecarlo import run_validation, trial_spectrum
from snspec.profiles import REFERENCE_ACQUISITION
from snspec.synthesis import AcquisitionConfig, Spectrum, fit_bins

V = SpectralParams(s_ph=1.2, nu_l=42600.0, s_at=4.8, delta_nu=1500.0)
CFG = AcquisitionConfig(
    delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=50
)
WINDOW = (CFG.fit_lo, CFG.fit_hi)


def noiseless_spectrum(v=V, cfg=CFG, n_eff=None):
    nu = cfg.coarse_grid()
    return Spectrum(nu=nu, s_bar=eval_psd(v, nu), n_eff=n_eff or cfg.n_eff)


def grid_order_gamma(v, cfg, seed):
    """A spectrum drawn by numpy's own gamma sampler on cfg's grid, bins in
    grid order: the fixtures below keep their draws whatever order the
    gamma route's stream takes."""
    nu = cfg.coarse_grid()
    return Spectrum(nu, np.random.default_rng(seed).gamma(cfg.n_eff, eval_psd(v, nu) / cfg.n_eff), cfg.n_eff)


def window_bins(nu, window=WINDOW):
    return (nu >= window[0]) & (nu <= window[1])


def moment_start(sp, window=WINDOW):
    """The point mle_fit starts sp from: the moment guess of its window's bins."""
    bins = fit_bins(sp.nu, window)
    return SpectralParams.from_array(estimation._initial_guess_stack(sp.nu[bins], sp.s_bar[None, bins], window)[0])


def window_chi2(v, sp, window=WINDOW):
    """sum over the window's bins of (1 - S_bar/f(v))^2, formed here."""
    inside = window_bins(sp.nu, window)
    r = 1.0 - sp.s_bar[inside] / eval_psd(v, sp.nu[inside])
    return float(np.sum(r * r))


@pytest.fixture
def start_from(monkeypatch):
    """start_from(v) makes every later fit start from v instead of its moment guess."""

    def use(v):
        monkeypatch.setattr(estimation, "_initial_guess_stack", lambda nu, s, window: np.tile(v.as_array(), (len(s), 1)))

    return use


class TestChiSquared:
    """mle_fit's chi2: sum of (1 - S_bar/f(v_hat))^2 over the window's bins."""

    def test_zero_at_exact_model(self, start_from):
        # a fit that starts on the noiseless model takes no step off it
        start_from(V)
        assert mle_fit(noiseless_spectrum(), WINDOW).chi2 == 0.0

    def test_expectation_is_bins_over_n_eff(self):
        # var(S_bar/f) = 1/n_eff per bin, and the fit absorbs its 4
        # parameters, so E[chi2] = (K - 4)/n_eff to leading order
        k_bins = np.count_nonzero(window_bins(CFG.coarse_grid()))
        vals = [mle_fit(trial_spectrum(V, CFG, (2, i), "gamma"), WINDOW).chi2 for i in range(100)]
        # per-draw SD is sqrt(2 K)/n_eff = 0.39, so the 100-seed mean carries
        # an SE of 0.039; 0.05 relative is a 5 sigma band
        assert np.mean(vals) == pytest.approx((k_bins - 4) / CFG.n_eff, rel=0.05)

    def test_window_restricts_bins(self):
        sp = trial_spectrum(V, CFG, 17, "gamma")
        narrow = (40e3, 45e3)
        r = mle_fit(sp, narrow)
        assert r.chi2 == window_chi2(r.v_hat, sp, narrow)
        assert r.chi2 < window_chi2(r.v_hat, sp, WINDOW)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            mle_fit(noiseless_spectrum(), (5e4, 3e4))


class TestInitialGuess:
    def test_noiseless_recovery_within_coarse_tolerances(self):
        g = moment_start(noiseless_spectrum())
        assert g.s_ph == pytest.approx(V.s_ph, rel=0.1)
        assert g.nu_l == pytest.approx(V.nu_l, abs=2 * CFG.coarse_spacing)
        assert g.s_at == pytest.approx(V.s_at, rel=0.1)
        assert g.delta_nu == pytest.approx(V.delta_nu, rel=0.25)

    def test_flat_noisy_spectrum_yields_valid_parameters(self):
        flat = SpectralParams(s_ph=2.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        cfg = AcquisitionConfig(
            delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=8, n_bin=50
        )
        g = moment_start(trial_spectrum(flat, cfg, 4, "gamma"))
        # SpectralParams construction already enforces positivity
        assert g.s_ph == pytest.approx(2.0, rel=0.05)
        assert g.s_at < 0.5

    def test_mean_level_is_formed_only_for_wingless_rows(self):
        # near the top of the float range the mean over a spectrum's bins
        # overflows; its wings give s_ph, so that mean is never formed
        sp = trial_spectrum(V, CFG, (5, 0), "gamma")
        huge = Spectrum(sp.nu, sp.s_bar * 1e306, sp.n_eff)
        np.testing.assert_allclose(
            moment_start(huge).as_array(),
            moment_start(sp).as_array() * [1e306, 1.0, 1e306, 1.0],
            rtol=1e-15,
        )
        mle_fit(huge, WINDOW)  # ends without a RuntimeWarning, converged or not
        # a row whose wings are zero takes the mean level, and its neighbour
        # keeps the bits it has alone
        bins = fit_bins(sp.nu, WINDOW)
        nu, q = sp.nu[bins], (bins.stop - bins.start) // 4
        wingless = eval_psd(V, nu)
        wingless[:q] = wingless[-q:] = 0.0
        rows = np.array([huge.s_bar[bins], wingless])
        guess = estimation._initial_guess_stack(nu, rows, WINDOW)
        assert guess[1, 0] == np.mean(wingless)
        np.testing.assert_array_equal(guess[0], estimation._initial_guess_stack(nu, rows[:1], WINDOW)[0], strict=True)


def initial_guess_reference(nu, s, window):
    """estimation._initial_guess_stack as it was when it took the wing level
    from np.median: verbatim but for the module names and the last two
    lines of the width, the rule that now floors it at the count of bins at
    or above half maximum."""
    m, k_bins = s.shape
    q = max(k_bins // 4, 1)
    s_ph = np.median(np.concatenate([s[:, :q], s[:, -q:]], axis=1), axis=1)
    flat = ~(s_ph > 0.0)
    s_ph[flat] = np.maximum(np.mean(np.abs(s[flat]), axis=1), estimation._S_AT_FLOOR_FRACTION)
    k = np.argmax(s, axis=1)
    s_at = s[np.arange(m), k] - s_ph
    s_at = np.where(s_at > 0.0, s_at, estimation._S_AT_FLOOR_FRACTION * s_ph)
    below = s < (s_ph + 0.5 * s_at)[:, None]
    j = np.arange(k_bins)
    left = np.max(np.where(below & (j < k[:, None]), j, -1), axis=1) + 1
    right = np.min(np.where(below & (j > k[:, None]), j, k_bins), axis=1) - 1
    width = nu[right] - nu[left]
    width = np.where(width > 0.0, width, 0.25 * (window[1] - window[0]))
    spacing = (nu[-1] - nu[0]) / max(k_bins - 1, 1)
    width = np.maximum(width, spacing * (k_bins - np.count_nonzero(below, axis=1)))
    return np.column_stack([s_ph, nu[k], s_at, width])


class TestMomentStart:
    @pytest.mark.parametrize("k_bins", [1, 2, 3, 7, 8, 190])
    def test_wing_median_keeps_the_np_median_bits(self, k_bins):
        # random stacks with tied wing values, NaN rows (s_ph NaN, then the
        # mean level, NaN too), infinities and signed zeros: every entry of
        # every start has the bits of the np.median start
        rng = np.random.default_rng(k_bins)
        nu = np.linspace(WINDOW[0], WINDOW[1], k_bins)
        s = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0], size=(300, k_bins))
        s[::5] = rng.exponential(size=s[::5].shape)
        s[1::7, 0] = s[3::17, -1] = s[6::19, rng.integers(k_bins)] = np.nan
        s[2::11, 0] = s[8::23, rng.integers(k_bins)] = np.inf
        s[4::13, -1] = -np.inf
        s[9::29] = np.inf
        with np.errstate(all="ignore"):
            got = estimation._initial_guess_stack(nu, s.copy(), WINDOW)
            want = initial_guess_reference(nu, s.copy(), WINDOW)
        assert np.isnan(want[:, 0]).any() and np.isinf(want[:, 0]).any()
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), strict=True)


class TestMleFit:
    def test_noiseless_recovery_to_machine_precision(self):
        r = mle_fit(noiseless_spectrum(), WINDOW)
        assert r.converged
        np.testing.assert_allclose(r.v_hat.as_array(), V.as_array(), rtol=1e-6)
        assert r.chi2 < 1e-12

    def test_recovers_from_distant_start(self, start_from):
        start = SpectralParams(
            s_ph=1.3 * V.s_ph,
            nu_l=V.nu_l + 200.0,
            s_at=0.7 * V.s_at,
            delta_nu=1.4 * V.delta_nu,
        )
        start_from(start)
        r = mle_fit(noiseless_spectrum(), WINDOW)
        np.testing.assert_allclose(r.v_hat.as_array(), V.as_array(), rtol=1e-6)

    def test_reported_chi2_matches_objective(self):
        sp = trial_spectrum(V, CFG, 17, "gamma")
        r = mle_fit(sp, WINDOW)
        assert r.chi2 == window_chi2(r.v_hat, sp)

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
    def test_fit_that_starts_out_of_range_reports_its_start(self, s_at, start_from):
        sp = trial_spectrum(V, CFG, 17, "gamma")
        start = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=s_at, delta_nu=1000.0)
        start_from(start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = mle_fit(sp, WINDOW)
        assert not r.converged
        assert r.v_hat == start
        assert r.n_iter == 0
        with np.errstate(over="ignore"):
            assert r.chi2 == window_chi2(start, sp)

    def test_all_zero_window_fails_at_its_start(self):
        # W = sum ln f has no minimum on an all-zero window: its level falls
        # and its line narrows without end, so no step is taken
        nu = CFG.coarse_grid()
        zero = Spectrum(nu, np.zeros_like(nu), CFG.n_eff)
        r = mle_fit(zero, WINDOW)
        assert not r.converged
        assert r.n_iter == 0
        assert r.v_hat == moment_start(zero)
        # every bin contributes (1 - 0/f)^2 = 1
        assert r.chi2 == np.count_nonzero(window_bins(nu))

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
        strong = [grid_order_gamma(V, CFG, (5, k)) for k in range(6)]
        weak_v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.05, delta_nu=1000.0)
        weak = [grid_order_gamma(weak_v, CFG, (0, k)) for k in (3, 56, 90)]
        spectra = strong[:3] + weak + strong[3:]
        # a start whose model overflows fails before step 1: one bin at 1e300
        # makes the start's s_at overflow it, while s_ph, from the wings, is
        # in range and leaves the row at its own scale
        out_of_range = strong[0].s_bar.copy()
        out_of_range[np.flatnonzero(strong[0].nu >= WINDOW[0])[40]] = 1e300
        # this weak-line trial is still falling after _MAX_STEPS steps
        step_limit = grid_order_gamma(weak_v, CFG, (0, 94)).s_bar
        # and this weaker one's damped normal matrix loses rank at step 40
        weaker_v = dataclasses.replace(weak_v, s_at=0.02)
        deficient = grid_order_gamma(weaker_v, CFG, (0, 243)).s_bar
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
        start = [moment_start(Spectrum(nu, row, CFG.n_eff)).as_array() for row in s_bar[-3:]]
        assert n_iter[-3:].tolist() == [0, estimation._MAX_STEPS, 40]
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
        assert n_iter[-3:].tolist() == [0, estimation._MAX_STEPS, 40]
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
        base = np.ldexp(sp.s_bar, -np.frexp(moment_start(sp).s_ph)[1])
        v_hat, n_iter, converged = mle_fit_stack(sp.nu, base[None], WINDOW)
        assert converged[0]
        level = np.array([1, 0, 1, 0])
        for k in (1000, -1000):
            fit = mle_fit_stack(sp.nu, np.ldexp(base, k)[None], WINDOW)
            self.assert_same(fit, (np.ldexp(v_hat, k * level), n_iter, converged))

    def test_flat_spectrum_at_the_top_of_the_float_range_fits_as_at_one(self):
        # the median of two wing bins at 2^1023 overflows unless the start is
        # formed at the spectrum's power-of-two level. The flat row at 1 is
        # solved at level 1 and the one at 2^1023 at level 0.5, so their bit
        # equality holds by rounding, not by construction; the pin below
        # compares solves at one level
        nu = CFG.coarse_grid()
        v_hat, n_iter, converged = mle_fit_stack(nu, np.ones((1, nu.size)), WINDOW)
        assert converged[0]
        fit = mle_fit_stack(nu, np.full((1, nu.size), 2.0**1023), WINDOW)
        self.assert_same(fit, (np.ldexp(v_hat, 1023 * np.array([1, 0, 1, 0])), n_iter, converged))

    @pytest.mark.parametrize("k", [-1000, -1010, -1064])
    def test_flat_spectrum_at_the_bottom_of_the_float_range_fits_as_at_one(self, k):
        # a row is solved at its power-of-two level from its start on: at
        # 2^-1010 the start's s_at floor would be subnormal in physical units,
        # and at 2^-1064 (itself subnormal) it would underflow to 0. As at
        # the top, the solves at levels 1 and 0.5 agree by rounding
        nu = CFG.coarse_grid()
        v_hat, n_iter, converged = mle_fit_stack(nu, np.ones((1, nu.size)), WINDOW)
        fit = mle_fit_stack(nu, np.full((1, nu.size), np.ldexp(1.0, k)), WINDOW)
        assert fit[2][0]
        self.assert_same(fit, (np.ldexp(v_hat, (k, 0, k, 0)), n_iter, converged))

    @pytest.mark.parametrize("k", [1023, -1000, -1010, -1064])
    def test_flat_spectrum_at_2_to_the_k_fits_as_at_one_half(self, k):
        # 0.5 and 2^k flat are both solved at level 0.5, so their solves are
        # the same arithmetic and the bits agree by construction
        nu = CFG.coarse_grid()
        v_hat, n_iter, converged = mle_fit_stack(nu, np.full((1, nu.size), 0.5), WINDOW)
        fit = mle_fit_stack(nu, np.full((1, nu.size), np.ldexp(1.0, k)), WINDOW)
        assert converged[0]
        self.assert_same(fit, (np.ldexp(v_hat, (k + 1, 0, k + 1, 0)), n_iter, converged))

    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_far_scales_converge_as_at_scale_one(self, scale):
        sp = trial_spectrum(V, CFG, (5, 0), "gamma")
        v_hat, n_iter, converged = mle_fit_stack(sp.nu, sp.s_bar[None], WINDOW)
        fit = mle_fit_stack(sp.nu, sp.s_bar[None] * scale, WINDOW)
        assert fit[2][0] and fit[1][0] == n_iter[0]
        np.testing.assert_allclose(fit[0] / [scale, 1.0, scale, 1.0], v_hat, rtol=1e-12)

    def test_empty_stack_gives_empty_arrays(self):
        nu = CFG.coarse_grid()
        want = mle_fit_stack(nu, np.ones((1, nu.size)), WINDOW)
        got = mle_fit_stack(nu, np.empty((0, nu.size)), WINDOW)
        assert [(x.shape, x.dtype) for x in got] == [((0, 4), want[0].dtype), ((0,), want[1].dtype), ((0,), want[2].dtype)]

    def test_permuted_stack_gives_permuted_results(self):
        nu, s_bar = self.mixed_stack()
        fits = mle_fit_stack(nu, s_bar, WINDOW)
        perm = np.random.default_rng(0).permutation(len(s_bar))
        self.assert_same(mle_fit_stack(nu, s_bar[perm], WINDOW), [x[perm] for x in fits])


def log_gradient_reference(v, nu):
    """The model's (..., 4) log-gradient in v = (s_ph, nu_l, s_at, delta_nu), as
    plain expressions: with off = nu - nu_l, q = 4 off off + d^2, lor = d^2 / q,
    f = s_ph + s_at lor and line = 8 s_at off, it is (1 / f, line lor / (q f),
    lor / f, line off lor / (d q f)). line overflows near 2^1000."""
    s_ph, nu_l, s_at, d = (v[..., c] for c in range(4))
    off = nu - nu_l
    q = 4.0 * off * off + d * d
    lor = d * d / q
    f = s_ph + s_at * lor
    line = 8.0 * s_at * off
    return np.stack([1.0 / f, line * lor / (q * f), lor / f, line * off * lor / (d * q * f)], axis=-1)


def score_reference(theta, nu, s):
    """_score as it was written before it formed J in theta, independent of
    model.log_jacobian: the (rows, bins, 4) log-gradient in v times a
    (rows, 1, 4) factor."""
    p = estimation._params(theta)
    g = log_gradient_reference(p[:, None, :], nu)
    ratio = s * g[..., 0]
    objective = np.sum(ratio - np.log(g[..., 0]), axis=1)
    p[:, 1] = 1.0
    jac_t = np.swapaxes(np.multiply(g, p[:, None, :], out=g), 1, 2)
    normal = jac_t @ np.swapaxes(jac_t, 1, 2)
    score = (jac_t @ (ratio - 1.0)[..., None])[..., 0]
    ok = np.isfinite(objective + score.sum(axis=1) + normal.sum(axis=(1, 2)))
    return objective, normal, score, ok & (np.diagonal(normal, axis1=1, axis2=2) > 0.0).all(axis=1)


def rows_of_every_kind():
    """(theta, nu, s): the window's bins of one gamma trial, and a theta row of
    every class, each row's spectrum scaled to its s_ph level where that is 2^+-1000."""
    sp = trial_spectrum(V, CFG, (5, 0), "gamma")
    bins = fit_bins(sp.nu, WINDOW)
    nu, s = sp.nu[bins], sp.s_bar[bins]
    log = np.log
    theta = np.array([
        [log(1.2), 42600.0, log(4.8), log(1500.0)],
        [log(1.0), 40000.0, log(0.05), log(1000.0)],
        [log(1.0), 42600.0, log(4.0), log(1e-200)],  # q^2 would underflow
        [log(1.0), 42600.0, -800.0, log(1000.0)],  # s_at underflows to 0
        [800.0, 42600.0, log(4.0), log(1000.0)],  # s_ph overflows
        [1000 * log(2.0), 42600.0, 1000 * log(2.0), log(1000.0)],
        [-1000 * log(2.0), 42600.0, -1000 * log(2.0), log(1000.0)],
        [np.nan, 42600.0, log(4.0), log(1000.0)],
        [log(1.0), np.inf, log(4.0), log(1000.0)],
    ])
    scale = np.ones(len(theta))
    scale[5], scale[6] = 2.0**1000, 2.0**-1000
    return theta, nu, s * scale[:, None]


class TestScoreBits:
    """_score's Jacobian in theta, and its products against the reference's."""

    @pytest.mark.parametrize("s_at", [4.0, 0.05])
    def test_jacobian_matches_central_differences_of_ln_f(self, s_at):
        # at one bin and S = 0 the score is -J, with no sum: J read off _score
        nu = CFG.coarse_grid()[fit_bins(CFG.coarse_grid(), WINDOW)]
        theta = np.array([[0.0, 42600.0, np.log(s_at), np.log(1000.0)]])
        jac = -np.concatenate([estimation._score(theta, nu[k : k + 1], np.zeros((1, 1)))[2] for k in range(nu.size)])
        h = np.array([1e-5, 1e-5 * 1000.0, 1e-5, 1e-5])
        want = np.empty_like(jac)
        for c in range(4):
            up, down = theta[0].copy(), theta[0].copy()
            up[c] += h[c]
            down[c] -= h[c]
            ln_f = [np.log(eval_psd(estimation._params(x), nu)) for x in (up, down)]
            want[:, c] = (ln_f[0] - ln_f[1]) / (2.0 * h[c])
        assert np.all(np.abs(jac - want) <= 1e-8 * np.abs(want).max(axis=0)), np.abs(jac - want).max(axis=0)

    def test_rows_of_every_kind(self):
        # W, J J^T and the score within 1e-15 of the reference, normalized by
        # |W|, by the diagonal, and by the diagonal times |S/f - 1| (the
        # Cauchy-Schwarz bound on the score's sum); the same usable rows, but
        # the one at 2^1000, whose 8 s_at off the reference overflowed
        theta, nu, s = rows_of_every_kind()
        with np.errstate(all="ignore"):
            (w, n, g, ok), (w_ref, n_ref, g_ref, ok_ref) = estimation._score(theta.copy(), nu, s), score_reference(theta.copy(), nu, s)
            r_norm = np.linalg.norm(s / eval_psd(estimation._params(theta)[:, None, :], nu) - 1.0, axis=1)
        for a, b in zip((w, n, g, ok), (w_ref, n_ref, g_ref, ok_ref), strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(ok, ok_ref | (np.arange(len(theta)) == 5))
        assert ok[5] and not ok_ref[5]
        both = ok & ok_ref
        w, n, g, w_ref, n_ref, g_ref, r_norm = (x[both] for x in (w, n, g, w_ref, n_ref, g_ref, r_norm))
        diag = np.sqrt(n_ref.diagonal(0, 1, 2))
        assert np.all(np.abs(w - w_ref) <= 1e-15 * np.abs(w_ref))
        assert np.all(np.abs(n - n_ref) <= 1e-15 * diag[:, :, None] * diag[:, None, :])
        assert np.all(np.abs(g - g_ref) <= 1e-15 * diag * r_norm[:, None])

    def test_the_row_at_2_to_the_1000_is_the_row_at_one(self):
        # _fit_window brings such levels into [0.5, 1) before any fit, but
        # _score stays right there: J and S/f do not depend on the level, and
        # W moves by bins times 1000 ln 2 (exp(1000 ln 2) is 2^1000 to 1e-13)
        theta, nu, s = rows_of_every_kind()
        at_one = np.array([[0.0, 42600.0, 0.0, np.log(1000.0)]])
        w, n, g, ok = estimation._score(theta[5:6], nu, s[5:6])
        w_one, n_one, g_one, ok_one = estimation._score(at_one, nu, s[5:6] * 2.0**-1000)
        assert ok[0] and ok_one[0]
        np.testing.assert_allclose(w - nu.size * 1000 * np.log(2.0), w_one, rtol=1e-12)
        diag = np.sqrt(n_one[0].diagonal())
        assert np.all(np.abs(n - n_one)[0] <= 1e-11 * np.outer(diag, diag))
        assert np.all(np.abs(g - g_one)[0] <= 1e-11 * diag * np.linalg.norm(s[5] * 2.0**-1000))

    def test_params_keep_the_bits_of_exp_on_every_entry(self):
        log = np.log
        theta = np.array([
            [log(1.2), 42600.0, log(4.8), log(1500.0)],
            [800.0, -1e308, -800.0, 710.0],  # exp overflows and underflows
            [np.nan, np.nan, np.inf, -np.inf],
        ])
        with np.errstate(all="ignore"):
            want = np.where(estimation._LOG, np.exp(theta), theta)
            got = estimation._params(theta)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_score_at_the_reference_start_raises_no_overflow(self):
        # exp is taken of the log entries alone: nu_l (about 4e4) is no log,
        # and exp of it overflowed to inf on every call
        sp = trial_spectrum(V, CFG, (5, 0), "gamma")
        bins = fit_bins(sp.nu, WINDOW)
        nu, s = sp.nu[bins], sp.s_bar[bins][None]
        start = estimation._initial_guess_stack(nu, s, WINDOW)
        theta = np.where(estimation._LOG, np.log(start), start)
        with np.errstate(over="raise"):
            _, _, _, ok = estimation._score(theta, nu, s)
        assert ok.all()


def solve_reference(theta, nu, s, bounds, accepted):
    """estimation._solve as it was before a step whose rows all accept adopted
    the trial state, verbatim but for the module names, one line that
    appends accept.all() of each step to the list accepted, and the stop
    rule of today's solve: a rank loss or a certified step that predicts a
    fall of at most tol leaves before the trial, the latter taking its step
    where s_ph, s_at and delta_nu^2 stay finite and above 0. It calls
    estimation._score, so the loop is pinned on the kernel it runs."""
    objective, normal, score, ok = estimation._score(theta, nu, s)
    ok &= (s > 0.0).any(axis=1)  # an all-zero window: W = sum ln f has no minimum
    steps, converged, failed = np.zeros(len(s), dtype=int), np.zeros(len(s), dtype=bool), ~ok
    rows = np.flatnonzero(ok)
    th, objective, normal, score, s = theta[rows], objective[rows], normal[rows], score[rows], s[rows]
    lam, grow = np.full(rows.size, estimation._LAMBDA_START), np.full(rows.size, 2.0)
    eye, tol, step = np.eye(4), estimation._STOP_DECREASE * nu.size, 0
    while rows.size:
        damping = lam[:, None] * np.diagonal(normal, axis1=1, axis2=2)
        inverse, rank = invert_psd_stack(normal + damping[:, None, :] * eye)
        delta = (inverse @ score[:, :, None])[..., 0]
        # the decrease of W that the scoring model predicts for this step
        predicted = 0.5 * np.sum(delta * (damping * delta + score), axis=1)
        trial = th + delta
        trial[:, 1] = np.clip(trial[:, 1], *bounds)
        now_failed = rank < 4
        now_converged = (rank == 4) & ~(predicted > tol)
        p = estimation._params(trial)
        p[:, 3] = p[:, 3] ** 2
        taken = now_converged & np.all(np.isfinite(p), axis=1) & np.all(p[:, estimation._LOG] > 0.0, axis=1)
        th[taken] = trial[taken]
        leave = now_failed | now_converged
        if leave.any():
            out, keep = rows[leave], ~leave
            theta[out], steps[out] = th[leave], step + taken[leave]
            converged[out], failed[out] = now_converged[leave], now_failed[leave]
            rows, th, objective, normal, score, s, lam, grow, trial, predicted = (
                x[keep] for x in (rows, th, objective, normal, score, s, lam, grow, trial, predicted))
            if not rows.size:
                break
        t_objective, t_normal, t_score, t_ok = estimation._score(trial, nu, s)
        fall = objective - t_objective
        gain = fall / predicted
        accept = t_ok & (gain > 0.0)
        accepted.append(accept.all())
        stop = accept & (fall <= tol)
        # Madsen, Nielsen & Tingleff's damping update
        lam *= np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), grow)
        grow = np.where(accept, 2.0, 2.0 * grow)
        th[accept], objective[accept] = trial[accept], t_objective[accept]
        normal[accept], score[accept] = t_normal[accept], t_score[accept]
        step += 1
        leave = stop | (step >= estimation._MAX_STEPS)
        if leave.any():
            out, keep = rows[leave], ~leave
            theta[out], steps[out], converged[out] = th[leave], step, stop[leave]
            rows, th, objective, normal, score, s, lam, grow = (
                x[keep] for x in (rows, th, objective, normal, score, s, lam, grow))
    return steps, converged, failed


class TestSolveBits:
    """mle_fit_stack keeps the bits of the reference solve on every kind of row."""

    def check(self, monkeypatch, nu, s_bar, accepted):
        got = mle_fit_stack(nu, s_bar, WINDOW)
        with monkeypatch.context() as m:
            m.setattr(estimation, "_solve", lambda *a: solve_reference(*a, accepted))
            want = mle_fit_stack(nu, s_bar, WINDOW)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))

    def test_mixed_and_weak_line_stacks(self, monkeypatch):
        # the mixed stack's rows leave out of range, at the step limit and
        # at a rank loss; the weak-line gamma stacks take the long tail
        accepted = []
        self.check(monkeypatch, *TestMleFitStack.mixed_stack(), accepted)
        for s_at in (0.05, 0.2):
            v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=s_at, delta_nu=1000.0)
            s_bar = montecarlo.trial_spectra(v, CFG, montecarlo.trial_seeds(0, 100), "gamma")
            self.check(monkeypatch, CFG.coarse_grid(), s_bar, accepted)
        assert any(accepted) and not all(accepted)

    def test_one_row_at_a_time_on_every_rung(self, monkeypatch):
        # 25 spectra of each line strength of the benchmark's fit ladder
        accepted = []
        for s_at in (0.05, 0.2, 1.0, 4.0):
            v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=s_at, delta_nu=1000.0)
            s_bar = montecarlo.trial_spectra(v, CFG, montecarlo.trial_seeds(1, 25), "gamma")
            for row in s_bar:
                self.check(monkeypatch, CFG.coarse_grid(), row[None], accepted)
        assert any(accepted) and not all(accepted)


class TestStopRule:
    """A certified step that predicts a fall of W of at most tol converges its
    row, taken without a trial where it stays in the model's range."""

    def test_one_more_step_at_every_converged_row_predicts_at_most_tol(self):
        # the reference gamma stack; the undamped scoring step bounds the fall
        # that every damped step predicts, as it minimizes the model of W
        v = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=4.0, delta_nu=1000.0)
        nu, s_bar = CFG.coarse_grid(), montecarlo.trial_spectra(v, CFG, montecarlo.trial_seeds(0, 100), "gamma")
        v_hat, _, converged = mle_fit_stack(nu, s_bar, WINDOW)
        bins = fit_bins(nu, WINDOW)
        theta = np.where(estimation._LOG, np.log(v_hat), v_hat)
        _, normal, score, ok = estimation._score(theta, nu[bins], s_bar[:, bins])
        inverse, rank = invert_psd_stack(normal)
        predicted = 0.5 * np.einsum("ri,rij,rj->r", score, inverse, score)
        assert converged.all() and ok.all() and (rank == 4).all()
        assert np.max(predicted) <= estimation._STOP_DECREASE * nu[bins].size

    @pytest.mark.parametrize(
        "v, seed",
        [
            # a fit that ends on a sub-bin spike (delta_nu 1e-18 Hz), whose last
            # step takes s_at and delta_nu past the float range
            (SpectralParams(8.945682811221126, 49132.69889963333, 0.12462897125553407, 4955.699033510336), 117184379),
            # a weak line parked at the padded window's edge, whose last step
            # takes delta_nu to 1e241 Hz: finite, but not its square, which
            # the model forms (chi2 would be NaN there)
            (SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.01, delta_nu=1000.0), (3, 39)),
        ],
        ids=["overflow", "square-overflow"],
    )
    def test_a_last_step_out_of_the_model_range_is_not_taken(self, monkeypatch, v, seed):
        # the row converges at the last point it scored instead
        sp = grid_order_gamma(v, REFERENCE_ACQUISITION, seed)
        scored, inverted = [], []
        score, invert = estimation._score, estimation.invert_psd_stack
        monkeypatch.setattr(estimation, "_score", lambda *a: scored.append((a[0].copy(), score(*a))) or scored[-1][1])
        monkeypatch.setattr(estimation, "invert_psd_stack", lambda a: inverted.append(invert(a)) or inverted[-1])
        r = mle_fit(sp, (REFERENCE_ACQUISITION.fit_lo, REFERENCE_ACQUISITION.fit_hi))
        assert r.converged and np.all(np.isfinite(r.v_hat.as_array())) and np.isfinite(r.chi2)
        # its start and one trial per step were scored, and nothing more taken
        assert r.n_iter == len(scored) - 1
        with np.errstate(all="ignore"):
            theta, (_, _, g, _) = [x for x in scored if np.array_equal(estimation._params(x[0])[0], r.v_hat.as_array())][-1]
            last = estimation._params(theta + (inverted[-1][0] @ g[..., None])[..., 0])[0]
            assert np.isinf(last[3] * last[3])


def cumulants_reference(x):
    """(k2, k4, var_k2) as written before they shared one centring: var_k2
    took k2 and k4 from two centrings of their own."""
    def sums(*orders):
        y = np.asarray(x, dtype=float).ravel()
        d = y - y.mean()
        return y.size, [np.sum(d**r) for r in orders]

    m, (p2,) = sums(2)
    k2_ = float(p2 / (m - 1))
    m, (p2, p4) = sums(2, 4)
    k4_ = float((m * (m + 1) * p4 - 3 * (m - 1) * p2**2) / ((m - 1) * (m - 2) * (m - 3)))
    return k2_, k4_, float((2.0 * m * np.float_power(k2_, 2) + (m - 1) * k4_) / (m * (m + 1.0)))


class TestCumulantBits:
    @staticmethod
    def samples():
        rng = np.random.default_rng(9)
        cols = rng.exponential(2.0, size=(100, 4))
        yield from cols.T  # strided column views, as run_validation passes them
        yield cols[:, 0] + 1e6  # offset data
        yield cols[:, 1] * 1e-300
        yield np.array([1.0, 2.0, 3.0, 4.0])  # m = 4
        yield np.array([1e150, -1e150, 3.0, 4.0, 5.0])  # k2 squared overflows
        yield np.array([1e200, -1e200, 3.0, 4.0, 5.0])  # p2 overflows
        yield np.array([1.7e308, 1.7e308, 1.7e308, -1.7e308])  # the mean overflows
        yield np.full(6, 7.25)

    def test_one_centring_keeps_the_bits(self):
        def bits(values):
            return np.array(values, dtype=float).view(np.uint64)

        with np.errstate(all="ignore"):
            for x in self.samples():
                want = cumulants_reference(x)
                np.testing.assert_array_equal(bits(estimation.k_statistics(x)), bits(want))
                np.testing.assert_array_equal(bits([k2(x), k4(x), var_k2(x)]), bits(want))

    @pytest.mark.parametrize(
        "x, message",
        [([1.0], "k2 needs at least 2 samples, got 1"), ([1.0, 2.0, 3.0], "k4 needs at least 4 samples, got 3")],
    )
    def test_too_small_a_sample_names_the_first_cumulant_it_lacks(self, x, message):
        with pytest.raises(ValueError, match=message):
            estimation.k_statistics(x)
        with pytest.raises(ValueError, match=message):
            var_k2(x)

    def test_validate_reports_the_reference_cumulants_of_its_fits(self, monkeypatch):
        fitted = []

        def recording(nu, s_bar, window):
            fitted.append(mle_fit_stack(nu, s_bar, window))
            return fitted[-1]

        monkeypatch.setattr(montecarlo, "mle_fit_stack", recording)
        rep = run_validation(V, CFG, n_trials=12, master_seed=3, synthesis="gamma")
        ((v_hat, _, converged),) = fitted
        want = [cumulants_reference(x) for x in v_hat[converged].T]
        np.testing.assert_array_equal(rep.k2_diag, [k for k, _, _ in want], strict=True)
        np.testing.assert_array_equal(rep.k2_stderr, np.sqrt([max(v, 0.0) for _, _, v in want]), strict=True)


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
