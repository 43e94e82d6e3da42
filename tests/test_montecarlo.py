"""Validation runner: seeding contract, both synthesis routes, report shape."""

import numpy as np
import pytest

from snspec.errors import ConfigError
from snspec.model import SpectralParams
from snspec.montecarlo import run_validation, trial_spectrum
from snspec.synthesis import AcquisitionConfig, Spectrum

V = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=4.0, delta_nu=1000.0)
CFG = AcquisitionConfig(
    delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=50
)


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
        a = run_validation(V, CFG, n_trials=24, master_seed=3, synthesis="gamma")
        b = run_validation(V, CFG, n_trials=24, master_seed=3, threads=4, synthesis="gamma")
        np.testing.assert_array_equal(a.gamma_exp, b.gamma_exp)
        np.testing.assert_array_equal(a.gamma_th, b.gamma_th)

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
