"""Validation runner: seeding contract, both synthesis routes, report shape."""

import sys

import numpy as np
import pytest

from snspec import montecarlo
from snspec.errors import ConfigError, NumericalError
from snspec.model import SpectralParams, eval_psd
from snspec.montecarlo import run_validation, trial_spectra, trial_spectrum
from snspec.synthesis import (
    AcquisitionConfig,
    Spectrum,
    average_spectra,
    coarse_grain,
    periodogram,
    synthesize_timeseries,
)

V = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=4.0, delta_nu=1000.0)
CFG = AcquisitionConfig(
    delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=50
)
# three records per trial, and 49999 raw bins leave a remainder of 5 after n_bin 7
ODD = AcquisitionConfig(
    delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=3, n_bin=7
)
# t_total is not M*delta to the last bit; the grid comes from M*delta alone
INEXACT = AcquisitionConfig(
    delta=3e-6, t_total=0.0030000001, fit_lo=1e3, fit_hi=1e5, n_ave=2, n_bin=3
)
# the reference geometry with t_total 0.9 ppm long, near the accepted limit of 1 ppm
EDGE = AcquisitionConfig(
    delta=5e-6, t_total=0.5 * (1 + 9e-7), fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=50
)
GEOMETRIES = pytest.mark.parametrize("cfg", [CFG, ODD, INEXACT], ids=["reference", "odd", "inexact"])


class TestTrialSpectrum:
    def test_gamma_route_geometry(self):
        sp = trial_spectrum(V, CFG, seed=(0, 0), synthesis="gamma")
        assert isinstance(sp, Spectrum)
        np.testing.assert_array_equal(sp.nu, CFG.coarse_grid())
        assert sp.n_eff == CFG.n_eff

    def test_timeseries_route_geometry(self):
        cfg = AcquisitionConfig(
            delta=5e-5, t_total=0.02, fit_lo=1e3, fit_hi=9e3, n_ave=3, n_bin=4
        )
        sp = trial_spectrum(V, cfg, seed=(0, 0), synthesis="timeseries")
        np.testing.assert_array_equal(sp.nu, cfg.coarse_grid())
        assert sp.n_eff == 12

    def test_routes_are_seed_deterministic(self):
        for route in ("gamma", "timeseries"):
            a = trial_spectrum(V, CFG, seed=(7, 3), synthesis=route)
            b = trial_spectrum(V, CFG, seed=(7, 3), synthesis=route)
            np.testing.assert_array_equal(a.s_bar, b.s_bar)

    def test_unknown_route_rejected(self):
        with pytest.raises(ConfigError):
            trial_spectrum(V, CFG, seed=0, synthesis="exact")


def public_pipeline(v, cfg, seed, route):
    """One trial spectrum composed from the public one-spectrum functions."""
    if route == "gamma":
        nu = cfg.coarse_grid()
        s_bar = np.random.default_rng(seed).gamma(cfg.n_eff, eval_psd(v, nu) / cfg.n_eff)
        return Spectrum(nu, s_bar, cfg.n_eff)
    rng = np.random.default_rng(seed)
    records = [periodogram(synthesize_timeseries(v, cfg, rng)) for _ in range(cfg.n_ave)]
    return coarse_grain(average_spectra(records), cfg.n_bin)


class TestTrialSpectra:
    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    @GEOMETRIES
    def test_stack_equals_trial_spectrum_row_by_row(self, route, cfg):
        # and both keep the bits of the public one-spectrum functions, grid included
        seeds = [(7, k) for k in range(3)]
        stack = trial_spectra(V, cfg, seeds, route)
        assert stack.shape == (3, cfg.coarse_grid().size)
        for row, seed in zip(stack, seeds):
            sp = trial_spectrum(V, cfg, seed, route)
            expected = public_pipeline(V, cfg, seed, route)
            np.testing.assert_array_equal(row, sp.s_bar, strict=True)
            np.testing.assert_array_equal(row, expected.s_bar, strict=True)
            np.testing.assert_array_equal(sp.nu, expected.nu, strict=True)
            assert sp.n_eff == expected.n_eff

    @pytest.mark.parametrize("cfg", [INEXACT, EDGE], ids=["inexact", "edge"])
    def test_one_grid_per_acquisition(self, cfg):
        grid = cfg.coarse_grid()
        # the bound's spacing is the grid's
        assert cfg.coarse_spacing == pytest.approx(np.mean(np.diff(grid)), rel=1e-12)
        for route in ("timeseries", "gamma"):
            np.testing.assert_array_equal(trial_spectrum(V, cfg, (0, 0), route).nu, grid, strict=True)
        records = [periodogram(synthesize_timeseries(V, cfg, (0, k))) for k in range(cfg.n_ave)]
        np.testing.assert_array_equal(coarse_grain(average_spectra(records), cfg.n_bin).nu, grid, strict=True)
        # a record's raw bin i is drawn as f(nu_i)*(a^2 + b^2)/2, with a, b
        # the first normal draws of its seed, at the nu_i periodogram labels it
        ps = periodogram(synthesize_timeseries(V, cfg, 3))
        a, b = np.random.default_rng(3).standard_normal((2, ps.nu.size))
        np.testing.assert_allclose(ps.s_bar, eval_psd(V, ps.nu) * (a**2 + b**2) / 2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_threads_fill_every_row_exactly(self, route):
        # more threads than cores, switching often: a row written by the wrong
        # thread, a shared buffer or a lost slice would show as a changed bit;
        # 13 rows split 4/4/5 on 3 threads, and 8 threads on 5 rows take one row each
        for n_trials, threads in ((64, 8), (13, 3), (5, 8)):
            seeds = [(13, k) for k in range(n_trials)]
            serial = trial_spectra(V, INEXACT, seeds, route)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = trial_spectra(V, INEXACT, seeds, route, threads=threads)
            finally:
                sys.setswitchinterval(interval)
            np.testing.assert_array_equal(threaded, serial, strict=True)

    def test_fewer_than_one_thread_rejected(self):
        with pytest.raises(ConfigError, match="threads must be at least 1, got 0"):
            trial_spectra(V, CFG, [(0, 0), (0, 1)], "gamma", threads=0)

    def test_unknown_route_rejected(self):
        with pytest.raises(ConfigError, match="unknown synthesis route"):
            trial_spectra(V, CFG, [(0, 0)], "exact")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_finished_stack_is_checked(self, monkeypatch, bad):
        def spoiled(v, cfg, seeds):
            out = np.ones((len(seeds), 4))
            out[-1, 2] = bad
            return out

        monkeypatch.setattr(montecarlo, "sample_periodogram_exact_stack", spoiled)
        with pytest.raises(NumericalError, match="non-finite or negative"):
            trial_spectra(V, CFG, [(0, 0), (0, 1)], "gamma")


class TestRunValidation:
    def test_report_is_well_formed(self):
        rep = run_validation(V, CFG, n_trials=60, master_seed=11, synthesis="gamma")
        assert rep.gamma_exp.shape == rep.gamma_th.shape == (4, 4)
        assert rep.n_trials == 60
        assert rep.n_failures == 0
        assert rep.synthesis == "gamma"
        assert rep.n_eff == 50
        assert rep.window == (33e3, 52e3)
        assert rep.max_deviation == np.max(rep.deviation)
        np.testing.assert_allclose(rep.gamma_th, rep.gamma_th.T)
        assert np.all(np.isfinite(rep.deviation))
        # 60 trials against the bound: deviations are z-like, stay single digit
        assert rep.max_deviation < 8.0
        assert np.all(rep.k2_diag > 0)
        assert np.all(rep.k2_stderr > 0)

    def test_trial_seeding_is_replayable(self):
        a = run_validation(V, CFG, n_trials=20, master_seed=5, synthesis="gamma")
        b = run_validation(V, CFG, n_trials=20, master_seed=5, synthesis="gamma")
        np.testing.assert_array_equal(a.gamma_exp, b.gamma_exp)

    def test_thread_count_does_not_change_bits(self):
        for route in ("gamma", "timeseries"):
            a = run_validation(V, CFG, n_trials=24, master_seed=3, synthesis=route)
            b = run_validation(V, CFG, n_trials=24, master_seed=3, threads=4, synthesis=route)
            np.testing.assert_array_equal(a.gamma_exp, b.gamma_exp)
            np.testing.assert_array_equal(a.gamma_th, b.gamma_th)
            np.testing.assert_array_equal(a.mean_fit, b.mean_fit)

    def test_master_seed_changes_experimental_but_not_theory(self):
        a = run_validation(V, CFG, n_trials=20, master_seed=1, synthesis="gamma")
        b = run_validation(V, CFG, n_trials=20, master_seed=2, synthesis="gamma")
        assert not np.array_equal(a.gamma_exp, b.gamma_exp)
        np.testing.assert_array_equal(a.gamma_th, b.gamma_th)

    def test_timeseries_route_runs_end_to_end(self):
        cfg = AcquisitionConfig(
            delta=5e-5, t_total=0.05, fit_lo=2e3, fit_hi=9e3, n_ave=2, n_bin=2
        )
        v = SpectralParams(s_ph=1.0, nu_l=5000.0, s_at=6.0, delta_nu=800.0)
        rep = run_validation(v, cfg, n_trials=30, master_seed=9, synthesis="timeseries")
        assert rep.n_failures <= 3
        assert np.all(np.isfinite(rep.gamma_exp))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            run_validation(V, CFG, n_trials=1, master_seed=0)
        with pytest.raises(ConfigError):
            run_validation(V, CFG, n_trials=10, master_seed=0, synthesis="nope")
        with pytest.raises(ConfigError):
            run_validation(V, CFG, n_trials=10, master_seed=0, threads=0)

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_too_narrow_window_fails_before_synthesis(self, monkeypatch, route):
        # 42000-42500 Hz holds the 100 Hz bins centred at 42051 .. 42451
        def no_synthesis(*args, **kwargs):
            raise AssertionError("a trial was synthesized")

        monkeypatch.setattr(montecarlo, "sample_periodogram_exact_stack", no_synthesis)
        monkeypatch.setattr(montecarlo, "timeseries_periodogram_stack", no_synthesis)
        cfg = AcquisitionConfig(delta=5e-6, t_total=0.5, fit_lo=42e3, fit_hi=42.5e3, n_bin=50)
        with pytest.raises(ConfigError, match="fit window holds 5 bins, need at least 8"):
            run_validation(V, cfg, n_trials=100, master_seed=0, synthesis=route)

    def test_fewer_than_two_converged_fits_is_a_config_error(self, monkeypatch):
        def no_fit_converges(nu, s_bar, window):
            return np.zeros((len(s_bar), 4)), np.zeros(len(s_bar), dtype=int), np.zeros(len(s_bar), dtype=bool)

        monkeypatch.setattr(montecarlo, "mle_fit_stack", no_fit_converges)
        with pytest.raises(ConfigError, match="only 0 of 4 fits converged"):
            run_validation(V, CFG, n_trials=4, master_seed=0, synthesis="gamma")
