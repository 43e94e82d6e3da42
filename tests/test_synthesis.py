"""Synthesis routes, periodogram conventions, averaging and coarse-graining.

Statistical tests use fixed seeds and tolerances with generous sigma margins,
so they are deterministic in practice.
"""

import numpy as np
import pytest

from snspec.errors import ConfigError
from snspec.model import SpectralParams, eval_psd
from snspec.montecarlo import trial_spectrum
from snspec.synthesis import (
    AcquisitionConfig,
    Spectrum,
    TimeSeries,
    average_spectra,
    coarse_grain,
    periodogram,
    synthesize_timeseries,
)

V = SpectralParams(s_ph=1.0, nu_l=5000.0, s_at=4.0, delta_nu=1000.0)
FLAT = SpectralParams(s_ph=2.0, nu_l=5000.0, s_at=0.0, delta_nu=1000.0)


def make_cfg(delta=5e-6, t_total=0.5, fit_lo=33e3, fit_hi=52e3, n_ave=1, n_bin=1):
    return AcquisitionConfig(
        delta=delta, t_total=t_total, fit_lo=fit_lo, fit_hi=fit_hi,
        n_ave=n_ave, n_bin=n_bin,
    )


class TestAcquisitionConfig:
    def test_derived_quantities(self):
        cfg = make_cfg(n_ave=2, n_bin=50)
        assert cfg.record_length == 100000
        assert cfg.nu_t == pytest.approx(2.0, rel=1e-15)
        assert cfg.nyquist == pytest.approx(1e5, rel=1e-12)
        assert cfg.n_eff == 100
        assert cfg.coarse_spacing == pytest.approx(100.0, rel=1e-15)

    def test_raw_grid_excludes_dc_and_nyquist(self):
        cfg = make_cfg(delta=1e-3, t_total=0.01, fit_lo=100.0, fit_hi=400.0)
        np.testing.assert_allclose(cfg.raw_grid(), [100.0, 200.0, 300.0, 400.0])

    def test_coarse_grid_is_block_mean_of_raw(self):
        cfg = make_cfg(n_bin=50)
        grid = cfg.coarse_grid()
        assert grid.size == 49999 // 50
        assert grid[0] == pytest.approx(51.0, rel=1e-15)  # mean of 2, 4, ..., 100
        assert np.all(np.diff(grid) == pytest.approx(100.0, rel=1e-12))

    def test_tiny_record_length_jitter_tolerated(self):
        cfg = make_cfg(delta=1e-3, t_total=0.1 * (1 + 1e-8), fit_lo=10, fit_hi=400)
        assert cfg.record_length == 100

    @pytest.mark.parametrize(
        "kw",
        [
            dict(delta=0.0),
            dict(delta=-1e-6),
            dict(t_total=0.0),
            dict(delta=1e-310),  # t_total/delta overflows to inf
            dict(delta=1e-3, t_total=5e-3, fit_lo=10, fit_hi=400),   # M = 5, odd
            dict(delta=1e-3, t_total=2e-3, fit_lo=0.1, fit_hi=0.4),  # M = 2
            dict(delta=1e-3, t_total=10.5e-3, fit_lo=10, fit_hi=400),
            dict(n_ave=0),
            dict(n_ave=2.0),
            dict(n_bin=0),
            dict(n_bin=-3),
            dict(fit_lo=-1.0),
            dict(fit_lo=52e3, fit_hi=33e3),
            dict(fit_lo=33e3, fit_hi=33e3),
            dict(fit_hi=2e5),  # above Nyquist
            dict(n_bin=50000),  # wider than the record's M/2 - 1 = 49999 raw bins
        ],
    )
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            make_cfg(**kw)


class TestContainers:
    def test_spectrum_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError):
            Spectrum(nu=np.array([1.0, 2.0, 4.0]), s_bar=np.ones(3))

    def test_spectrum_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            Spectrum(nu=np.array([2.0, 1.0]), s_bar=np.ones(2))

    def test_spectrum_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Spectrum(nu=np.arange(3.0), s_bar=np.ones(4))

    def test_averaged_spectrum_requires_integer_n_eff(self):
        with pytest.raises(ValueError):
            Spectrum(nu=np.array([1.0, 2.0]), s_bar=np.ones(2), n_eff=1.5)
        with pytest.raises(ValueError):
            Spectrum(nu=np.array([1.0, 2.0]), s_bar=np.ones(2), n_eff=0)
        with pytest.raises(ValueError):
            Spectrum(nu=np.array([1.0, 2.0]), s_bar=np.ones(2), n_eff=True)

    @pytest.mark.parametrize(
        "nu, s_bar",
        [
            ([1.0, np.nan, 3.0], [1.0, 1.0, 1.0]),
            ([1.0, 2.0, np.inf], [1.0, 1.0, 1.0]),
            ([np.inf], [1.0]),
            ([1.0, 2.0, 3.0], [1.0, np.nan, 1.0]),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 1.0]),
            ([1.0, 2.0, 3.0], [1.0, -1e-300, 1.0]),
        ],
    )
    def test_spectrum_rejects_nonfinite_or_negative_values(self, nu, s_bar):
        with pytest.raises(ValueError):
            Spectrum(nu=nu, s_bar=s_bar)

    def test_timeseries_rejects_bad_records(self):
        with pytest.raises(ValueError):
            TimeSeries(delta=1e-3, y=np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            TimeSeries(delta=1e-3, y=np.array([1.0]))
        with pytest.raises(ValueError):
            TimeSeries(delta=0.0, y=np.zeros(4))


class TestExactSampler:
    def test_grid_and_n_eff(self):
        cfg = make_cfg(n_ave=4, n_bin=50)
        sp = trial_spectrum(V, cfg, 1, "gamma")
        np.testing.assert_array_equal(sp.nu, cfg.coarse_grid())
        assert sp.n_eff == 200

    def test_deterministic_in_seed(self):
        cfg = make_cfg(n_bin=50)
        a = trial_spectrum(V, cfg, 7, "gamma")
        b = trial_spectrum(V, cfg, 7, "gamma")
        c = trial_spectrum(V, cfg, 8, "gamma")
        np.testing.assert_array_equal(a.s_bar, b.s_bar)
        assert not np.array_equal(a.s_bar, c.s_bar)

    def test_gamma_moments_on_flat_spectrum(self):
        # flat spectrum makes every bin iid Gamma(n_eff, f/n_eff); pool the
        # 19999 bins for mean and variance
        cfg = make_cfg(delta=5e-6, t_total=0.2, fit_lo=10.0, fit_hi=9e4, n_ave=50)
        sp = trial_spectrum(FLAT, cfg, 123, "gamma")
        r = sp.s_bar / FLAT.s_ph
        assert np.mean(r) == pytest.approx(1.0, abs=4 / np.sqrt(50 * r.size))
        assert np.var(r, ddof=1) == pytest.approx(1.0 / 50, rel=0.05)

    def test_large_n_eff_concentrates_on_model(self):
        cfg = make_cfg(
            delta=5e-4, t_total=0.02, fit_lo=50.0, fit_hi=950.0, n_ave=10000
        )
        sp = trial_spectrum(FLAT, cfg, 5, "gamma")
        assert np.max(np.abs(sp.s_bar / FLAT.s_ph - 1.0)) < 0.05


class TestTimeSeriesSynthesis:
    CFG = make_cfg(delta=5e-5, t_total=0.02, fit_lo=1e3, fit_hi=9e3)

    def test_record_geometry(self):
        ts = synthesize_timeseries(V, self.CFG, seed=0)
        assert ts.y.size == self.CFG.record_length
        assert ts.delta == self.CFG.delta

    def test_record_sums_to_zero(self):
        # DC coefficient is pinned to zero
        ts = synthesize_timeseries(V, self.CFG, seed=3)
        assert abs(np.sum(ts.y)) < 1e-9 * np.std(ts.y) * ts.y.size

    def test_power_matches_periodogram_sum(self):
        # sum_i S_i * nu_t = mean(y^2), the one-sided normalization contract
        ts = synthesize_timeseries(V, self.CFG, seed=11)
        ps = periodogram(ts)
        assert np.sum(ps.s_bar) * self.CFG.nu_t == pytest.approx(
            np.mean(ts.y**2), rel=1e-12
        )

    def test_mean_periodogram_converges_to_model(self):
        acc = np.zeros(self.CFG.record_length // 2 - 1)
        n_seeds = 2000
        for k in range(n_seeds):
            acc += periodogram(synthesize_timeseries(V, self.CFG, seed=(42, k))).s_bar
        z = acc / n_seeds / eval_psd(V, self.CFG.raw_grid()) - 1.0
        assert np.sqrt(np.mean(z**2)) < 0.03  # expected 1/sqrt(2000) = 0.022
        assert np.max(np.abs(z)) < 6.0 / np.sqrt(n_seeds)

    def test_periodogram_invariant_under_circular_shift(self):
        ts = synthesize_timeseries(V, self.CFG, seed=9)
        rolled = TimeSeries(delta=ts.delta, y=np.roll(ts.y, 137))
        np.testing.assert_allclose(
            periodogram(rolled).s_bar, periodogram(ts).s_bar, rtol=1e-9
        )

    def test_deterministic_in_seed(self):
        a = synthesize_timeseries(V, self.CFG, seed=21)
        b = synthesize_timeseries(V, self.CFG, seed=21)
        np.testing.assert_array_equal(a.y, b.y)


class TestPeriodogram:
    def test_single_tone_lands_in_one_bin(self):
        # A*cos(2 pi k t / T) with integer k: S_k = A^2 T / 2, everything else ~0
        m, delta, a_tone, k = 1000, 1e-3, 3.0, 100
        t = delta * np.arange(m)
        ts = TimeSeries(delta=delta, y=a_tone * np.cos(2 * np.pi * k * t))
        ps = periodogram(ts)
        assert ps.nu[k - 1] == pytest.approx(float(k), rel=1e-12)
        assert ps.s_bar[k - 1] == pytest.approx(a_tone**2 * (m * delta) / 2, rel=1e-9)
        others = np.delete(ps.s_bar, k - 1)
        assert np.max(others) < 1e-12

    def test_white_noise_level(self):
        rng = np.random.default_rng(77)
        sigma = 0.5
        ts = TimeSeries(delta=2e-4, y=sigma * rng.standard_normal(20000))
        ps = periodogram(ts)
        # flat PSD 2*delta*sigma^2; mean over ~1e4 bins has ~1% noise
        assert np.mean(ps.s_bar) == pytest.approx(2 * 2e-4 * sigma**2, rel=0.05)

    def test_zero_record_gives_zero_spectrum(self):
        ps = periodogram(TimeSeries(delta=1e-3, y=np.zeros(8)))
        np.testing.assert_array_equal(ps.s_bar, 0.0)

    def test_rejects_odd_or_short_records(self):
        with pytest.raises(ValueError):
            periodogram(TimeSeries(delta=1e-3, y=np.zeros(7)))
        with pytest.raises(ValueError):
            periodogram(TimeSeries(delta=1e-3, y=np.zeros(2)))


class TestCoarseGrain:
    def test_block_mean_values(self):
        sp = Spectrum(nu=np.array([1.0, 2.0, 3.0, 4.0]), s_bar=np.array([1.0, 3.0, 2.0, 4.0]))
        out = coarse_grain(sp, 2)
        np.testing.assert_allclose(out.nu, [1.5, 3.5])
        np.testing.assert_allclose(out.s_bar, [2.0, 3.0])
        assert out.n_eff == 2

    def test_identity_at_width_one(self):
        sp = Spectrum(nu=np.arange(1.0, 6.0), s_bar=np.arange(5.0))
        out = coarse_grain(sp, 1)
        np.testing.assert_array_equal(out.s_bar, sp.s_bar)
        assert out.n_eff == 1

    def test_remainder_dropped(self):
        sp = Spectrum(nu=np.arange(1.0, 8.0), s_bar=np.ones(7))
        assert coarse_grain(sp, 3).nu.size == 2

    def test_n_eff_multiplies_on_averaged_input(self):
        sp = Spectrum(nu=np.arange(1.0, 5.0), s_bar=np.ones(4), n_eff=5)
        assert coarse_grain(sp, 2).n_eff == 10

    def test_rejects_bad_width(self):
        sp = Spectrum(nu=np.arange(1.0, 5.0), s_bar=np.ones(4))
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError):
                coarse_grain(sp, bad)
        with pytest.raises(ValueError):
            coarse_grain(sp, 5)


class TestAverageSpectra:
    def test_pointwise_mean_and_count(self):
        nu = np.arange(1.0, 4.0)
        a = Spectrum(nu=nu, s_bar=np.array([1.0, 2.0, 3.0]))
        b = Spectrum(nu=nu, s_bar=np.array([3.0, 2.0, 1.0]))
        out = average_spectra([a, b])
        np.testing.assert_allclose(out.s_bar, [2.0, 2.0, 2.0])
        assert out.n_eff == 2

    def test_counts_multiply(self):
        nu = np.arange(1.0, 4.0)
        parts = [
            Spectrum(nu=nu, s_bar=np.full(3, float(k)), n_eff=20)
            for k in range(5)
        ]
        assert average_spectra(parts).n_eff == 100

    def test_rejects_mismatched_grids(self):
        a = Spectrum(nu=np.arange(1.0, 4.0), s_bar=np.ones(3))
        b = Spectrum(nu=np.arange(2.0, 5.0), s_bar=np.ones(3))
        with pytest.raises(ValueError):
            average_spectra([a, b])

    def test_rejects_mixed_counts(self):
        nu = np.arange(1.0, 4.0)
        a = Spectrum(nu=nu, s_bar=np.ones(3), n_eff=2)
        b = Spectrum(nu=nu, s_bar=np.ones(3), n_eff=3)
        with pytest.raises(ValueError):
            average_spectra([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            average_spectra([])

    def test_commutes_with_coarse_graining(self):
        cfg = make_cfg(delta=5e-5, t_total=0.02, fit_lo=1e3, fit_hi=9e3)
        raws = [
            periodogram(synthesize_timeseries(V, cfg, seed=(5, k))) for k in range(4)
        ]
        ab = coarse_grain(average_spectra(raws), 16)
        ba = average_spectra([coarse_grain(r, 16) for r in raws])
        np.testing.assert_allclose(ab.s_bar, ba.s_bar, rtol=1e-12)
        assert ab.n_eff == ba.n_eff == 64


def test_adjacent_bins_uncorrelated():
    # independence of neighboring raw bins across 4000 independent records
    cfg = make_cfg(delta=0.05, t_total=0.4, fit_lo=1.0, fit_hi=9.0)  # M = 8
    rows = np.array(
        [periodogram(synthesize_timeseries(FLAT, cfg, seed=(99, k))).s_bar for k in range(4000)]
    )
    c = np.corrcoef(rows, rowvar=False)
    off_diag = c[~np.eye(c.shape[0], dtype=bool)]
    assert np.max(np.abs(off_diag)) < 0.06  # SE = 1/sqrt(4000) = 0.016
