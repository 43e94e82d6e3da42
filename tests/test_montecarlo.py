"""Validation runner: seeding contract, both synthesis routes, report shape."""

import dataclasses
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from snspec import montecarlo, synthesis
from snspec.config import load_config
from snspec.errors import ConfigError, NumericalError
from snspec.estimation import k2, k_statistics, mle_fit_stack
from snspec.model import ExperimentConditions, SpectralParams, eval_psd, params_from_conditions
from snspec.montecarlo import run_validation, trial_seeds, trial_spectra, trial_spectrum
from snspec.scan import find_optimum, scan_grid
from snspec.synthesis import (
    AcquisitionConfig,
    Spectrum,
    average_spectra,
    coarse_grain,
    fit_bins,
    periodogram,
    synthesize_timeseries,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
# the raw grid itself, 399 bins of 250 Hz, two records per trial
RAW = AcquisitionConfig(
    delta=5e-6, t_total=0.004, fit_lo=30e3, fit_hi=60e3, n_ave=2, n_bin=1
)
GEOMETRIES = pytest.mark.parametrize(
    "cfg", [CFG, ODD, INEXACT, RAW], ids=["reference", "odd", "inexact", "raw"]
)
# two records of 20000 samples per trial: long enough to run on threads
PAIR = AcquisitionConfig(
    delta=5e-6, t_total=0.1, fit_lo=33e3, fit_hi=52e3, n_ave=2, n_bin=5
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


def public_pipeline(v, cfg, seed, route):
    """One trial spectrum composed from the public one-spectrum functions."""
    if route == "gamma":
        # numpy's gamma sampler on the bins in stream order, from the first at
        # or above fit_lo round to the one below it, then put back in grid order
        nu = cfg.coarse_grid()
        order = np.roll(np.arange(nu.size), -np.searchsorted(nu, cfg.fit_lo))
        s_bar = np.empty_like(nu)
        s_bar[order] = np.random.default_rng(seed).gamma(cfg.n_eff, eval_psd(v, nu[order]) / cfg.n_eff)
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
    def test_slices_keep_every_row_exactly(self, route):
        # a row whose bits depended on the stack's size or on its neighbours
        # (a shared buffer, a batched transform) would show as a changed bit
        # when the seeds are stacked in slices: 64 rows in 8, 13 split 4/4/5
        for n_trials, parts in ((64, 8), (13, 3)):
            seeds = [(13, k) for k in range(n_trials)]
            whole = trial_spectra(V, INEXACT, seeds, route)
            cuts = [n_trials * i // parts for i in range(parts + 1)]
            sliced = [trial_spectra(V, INEXACT, seeds[a:b], route) for a, b in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(np.concatenate(sliced), whole, strict=True)

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    @GEOMETRIES
    def test_bin_range_is_those_columns_of_the_whole_stack(self, route, cfg):
        seeds = [(7, k) for k in range(3)]
        whole = trial_spectra(V, cfg, seeds, route)
        k = whole.shape[1]
        for a, b in ((0, k), (0, 1), (0, k // 3), (k // 3, 2 * k // 3 + 1), (5, k), (k - 1, k)):
            got = trial_spectra(V, cfg, seeds, route, slice(a, b))
            np.testing.assert_array_equal(got, whole[:, a:b], strict=True)

    @GEOMETRIES
    def test_range_centres_are_those_of_the_whole_grid(self, cfg):
        grid = cfg.coarse_grid()
        k = grid.size
        assert k == cfg.n_coarse
        for a, b in ((0, k), (0, 1), (k // 3, 2 * k // 3 + 1), (k - 1, k)):
            np.testing.assert_array_equal(cfg.coarse_grid(slice(a, b)), grid[a:b], strict=True)

    @GEOMETRIES
    def test_fit_window_is_the_range_the_window_mask_selects(self, cfg):
        grid = cfg.coarse_grid()
        (inside,) = np.nonzero((grid >= cfg.fit_lo) & (grid <= cfg.fit_hi))
        assert cfg.fit_window() == slice(inside[0], inside[-1] + 1)
        assert inside.size == inside[-1] + 1 - inside[0]

    def test_fit_window_of_five_bins_is_refused(self):
        # 42000-42500 Hz holds the 100 Hz bins centred at 42051 .. 42451
        cfg = AcquisitionConfig(delta=5e-6, t_total=0.5, fit_lo=42e3, fit_hi=42.5e3, n_bin=50)
        with pytest.raises(ConfigError, match="^fit window holds 5 bins, need at least 8$"):
            cfg.fit_window()

    def test_descending_grid_is_refused(self):
        nu = CFG.coarse_grid()[::-1]
        window = (CFG.fit_lo, CFG.fit_hi)
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_bins(nu, window)
        with pytest.raises(ValueError, match="strictly increasing"):
            mle_fit_stack(nu, np.ones((2, nu.size)), window)

    @pytest.mark.parametrize("bins", [slice(3, 3), slice(0, 10, 2), slice(2000, None)])
    def test_empty_or_strided_bin_range_rejected(self, bins):
        with pytest.raises(ValueError, match="contiguous, nonempty range"):
            trial_spectra(V, CFG, [(0, 0)], "gamma", bins)

    def test_unknown_route_rejected(self):
        with pytest.raises(ConfigError, match="unknown synthesis route"):
            trial_spectra(V, CFG, [(0, 0)], "exact")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_finished_stack_is_checked(self, monkeypatch, bad):
        def spoiled(v, cfg, seeds, bins):
            out = np.ones((len(seeds), 4))
            out[-1, 2] = bad
            return out

        monkeypatch.setattr(montecarlo, "sample_periodogram_exact_stack", spoiled)
        with pytest.raises(NumericalError, match="non-finite or negative"):
            trial_spectra(V, CFG, [(0, 0), (0, 1)], "gamma")


def counted_draws(monkeypatch) -> list:
    """The count of Gamma variates each row of every later gamma stack draws, in order."""
    drawn = []
    make = synthesis._generators

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_gamma(self, shape, out):
            drawn.append(out.size)
            return self.rng.standard_gamma(shape, out=out)

    monkeypatch.setattr(synthesis, "_generators", lambda seeds: map(Counting, make(seeds)))
    return drawn


class TestGammaStreamOrder:
    """A gamma-route generator draws the coarse bins from the first at or
    above fit_lo, the origin, to the end of the grid, then the bins below it,
    and stops at the range's last bin."""

    SEEDS = [(7, k) for k in range(3)]

    def assert_draws(self, monkeypatch, cfg, bins, count):
        want = np.array([public_pipeline(V, cfg, seed, "gamma").s_bar[bins] for seed in self.SEEDS])
        drawn = counted_draws(monkeypatch)
        got = trial_spectra(V, cfg, self.SEEDS, "gamma", bins)
        assert drawn == [count] * len(self.SEEDS)
        np.testing.assert_array_equal(got, want, strict=True)

    @GEOMETRIES
    def test_a_windowed_row_draws_the_window_alone(self, monkeypatch, cfg):
        bins = cfg.fit_window()
        self.assert_draws(monkeypatch, cfg, bins, bins.stop - bins.start)

    @GEOMETRIES
    def test_a_range_draws_the_stream_up_to_its_last_bin(self, monkeypatch, cfg):
        n, origin = cfg.n_coarse, cfg.fit_window().start
        below = slice(0, max(origin - 1, 1))
        self.assert_draws(monkeypatch, cfg, below, n - origin + below.stop)  # below the window
        self.assert_draws(monkeypatch, cfg, slice(n - 2, n), n - origin)  # the end of the grid
        self.assert_draws(monkeypatch, cfg, slice(max(origin - 2, 0), origin + 2), n)  # across the origin
        self.assert_draws(monkeypatch, cfg, slice(None), n)  # the whole grid

    @pytest.mark.parametrize("fit_lo", [0.0, 99900.0], ids=["zero", "above-the-last-centre"])
    def test_an_origin_at_either_end_keeps_the_grid_order(self, monkeypatch, fit_lo):
        # above the last centre (99851 Hz) the origin is n_coarse, modulo itself 0
        cfg = AcquisitionConfig(delta=5e-6, t_total=0.5, fit_lo=fit_lo, fit_hi=99950.0, n_bin=50)
        nu = cfg.coarse_grid()
        for bins, count in ((slice(None), nu.size), (slice(3, 10), 10)):
            self.assert_draws(monkeypatch, cfg, bins, count)
        want = [np.random.default_rng(seed).gamma(cfg.n_eff, eval_psd(V, nu) / cfg.n_eff) for seed in self.SEEDS]
        np.testing.assert_array_equal(trial_spectra(V, cfg, self.SEEDS, "gamma"), want, strict=True)

    @GEOMETRIES
    def test_origin_is_the_first_centre_at_or_above_fit_lo(self, cfg):
        # fit_lo on a centre, a float either side of it, and between centres
        grid = cfg.coarse_grid()
        for b in (0, 1, grid.size // 3, grid.size - 1):
            for lo, want in (
                (grid[b], b),
                (np.nextafter(grid[b], 0.0), b),
                (np.nextafter(grid[b], np.inf), b + 1),
                (grid[b] - 0.5 * cfg.coarse_spacing, b),
            ):
                at = AcquisitionConfig(cfg.delta, cfg.t_total, max(lo, 0.0), cfg.nyquist, cfg.n_ave, cfg.n_bin)
                assert synthesis._stream_origin(at) == want % grid.size


def threads_made(monkeypatch) -> list:
    """Every threading.Thread made from now until the test ends, in order."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return made


class TestWorkers:
    """The timeseries stack fills its rows in one slice per worker."""

    @pytest.mark.parametrize("cfg", [CFG, PAIR], ids=["reference", "two-records"])
    def test_rows_keep_their_bits_on_any_worker_count(self, monkeypatch, cfg):
        # every worker reuses its record and coefficient buffers: a DC or
        # Nyquist term left in them, or a row in two slices or in none,
        # shows as a changed bit. The slicing is checked beyond the cap.
        assert cfg.record_length >= synthesis._THREAD_MIN_SAMPLES
        monkeypatch.setattr(synthesis, "_MAX_WORKERS", 7)
        seeds = trial_seeds(13, 13)
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 1)
        serial = trial_spectra(V, cfg, seeds, "timeseries")
        for row, seed in zip(serial, seeds):
            np.testing.assert_array_equal(row, trial_spectrum(V, cfg, seed).s_bar, strict=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the workers trade the interpreter as often as it allows
        try:
            for cpus in (1, 2, 3, 7):
                monkeypatch.setattr(synthesis, "_cpu_count", lambda cpus=cpus: cpus)
                made = threads_made(monkeypatch)
                np.testing.assert_array_equal(trial_spectra(V, cfg, seeds, "timeseries"), serial, strict=True)
                assert len(made) == cpus - 1
        finally:
            sys.setswitchinterval(interval)

    def test_worker_count_comes_from_cpus_rows_and_record_length(self, monkeypatch):
        m = synthesis._THREAD_MIN_SAMPLES
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 7)
        assert [synthesis._workers(13, m), synthesis._workers(13, m - 2)] == [synthesis._MAX_WORKERS, 1]
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 1)
        assert synthesis._workers(13, m) == 1
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 7)
        monkeypatch.setattr(synthesis, "_MAX_WORKERS", 8)
        assert [synthesis._workers(13, m), synthesis._workers(13, m - 2)] == [7, 1]
        assert [synthesis._workers(3, m), synthesis._workers(1, m), synthesis._workers(0, m)] == [3, 1, 1]

    def test_short_records_and_the_gamma_route_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 7)
        made = threads_made(monkeypatch)
        assert INEXACT.record_length < synthesis._THREAD_MIN_SAMPLES
        trial_spectra(V, INEXACT, trial_seeds(0, 13), "timeseries")
        trial_spectra(V, CFG, trial_seeds(0, 13), "gamma")
        assert made == []

    def test_error_in_the_last_slice_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 3)
        monkeypatch.setattr(synthesis, "_MAX_WORKERS", 3)
        made = threads_made(monkeypatch)
        record = synthesis._record

        def refused(amp, rng, y, coeff):
            if made and threading.current_thread() is made[-1]:
                raise MemoryError("Unable to allocate 781 KiB for an array with shape (100000,)")
            record(amp, rng, y, coeff)

        monkeypatch.setattr(synthesis, "_record", refused)
        running = threading.active_count()
        with pytest.raises(MemoryError, match="^Unable to allocate 781 KiB"):
            trial_spectra(V, CFG, trial_seeds(0, 13), "timeseries", CFG.fit_window())
        assert len(made) == 2
        assert threading.active_count() == running  # every worker was joined

    @pytest.mark.parametrize(
        "failing, error", [(0, KeyboardInterrupt), (0, MemoryError), (2, MemoryError)],
        ids=["caller-interrupted", "caller-fails", "worker-fails"],
    )
    def test_a_failing_slice_ends_the_others_at_their_next_row(self, failing, error):
        # each row of a healthy slice lasts until the halt is set, so a slice
        # that ran past one row, or a halt that never came, shows in rows
        rows, running = [], threading.active_count()

        def fill(part, halt):
            for row in range(part.start, part.stop):
                if halt.is_set():
                    return
                if part.start == 3 * failing:
                    raise error("refused")
                rows.append((row, halt.wait(10)))

        with pytest.raises(error, match="^refused$"):
            synthesis._fill_in_slices(fill, 9, 3)
        assert all(halted for _, halted in rows)
        healthy = [part for part in range(3) if part != failing]
        assert all(sum(row // 3 == part for row, _ in rows) <= 1 for part in healthy)
        assert threading.active_count() == running  # every worker was joined

    def test_the_stack_reads_the_halt_before_each_row(self, monkeypatch):
        # the halt, set during the first row, lets that row's records finish
        # and starts no other
        calls, record = [], synthesis._record

        def halted_in_the_first_row(fill, n_rows, n_workers):
            halt = threading.Event()
            calls.append(halt)
            fill(slice(0, n_rows), halt)

        def counted(amp, rng, y, coeff):
            record(amp, rng, y, coeff)
            calls[0].set()
            calls.append(None)

        monkeypatch.setattr(synthesis, "_fill_in_slices", halted_in_the_first_row)
        monkeypatch.setattr(synthesis, "_record", counted)
        synthesis.timeseries_periodogram_stack(V, PAIR, trial_seeds(0, 4), PAIR.fit_window())
        assert len(calls) == 1 + PAIR.n_ave

    def test_callers_errstate_holds_in_every_worker(self, monkeypatch):
        # numpy keeps errstate in a context variable, which a plain thread
        # does not inherit: there an overflow would pass silently
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: 2)
        caller, record = threading.get_ident(), synthesis._record

        def overflowing(amp, rng, y, coeff):
            record(amp, rng, y, coeff)
            if threading.get_ident() != caller:
                y *= 1e308

        monkeypatch.setattr(synthesis, "_record", overflowing)
        seeds, bins = trial_seeds(0, 4), CFG.fit_window()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            trial_spectra(V, CFG, seeds, "timeseries", bins)
        # under the CLI's errstate the worker warns nothing, and the stack's
        # own check turns its infinite rows into a NumericalError
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite"):
            trial_spectra(V, CFG, seeds, "timeseries", bins)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_worker_holds_two_records(self, monkeypatch, cpus):
        # numpy reports its buffers to tracemalloc. The bound is the
        # amplitudes plus, per worker, a record, the coefficient buffer and
        # twice the window's raw bins (the n_ave periodograms and their
        # mean), with 128 KiB of slack for the Python objects. At one worker
        # it is 2.28 MB; the serial stack that drew a new record and new
        # coefficients per record peaked at 2.89 MB.
        monkeypatch.setattr(synthesis, "_cpu_count", lambda: cpus)
        seeds, bins = trial_seeds(0, 8), CFG.fit_window()
        synthesis.timeseries_periodogram_stack(V, CFG, seeds, bins)  # the FFT plans are cached
        tracemalloc.start()
        try:
            synthesis.timeseries_periodogram_stack(V, CFG, seeds, bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = CFG.record_length
        record, coeff, amp = 8 * m, 16 * (m // 2 + 1), 8 * (m // 2 - 1)
        window = 8 * CFG.n_ave * (bins.stop - bins.start) * CFG.n_bin
        assert peak <= amp + cpus * (record + coeff + 2 * window) + 128 * 1024


class TestTrialSeeds:
    @pytest.mark.parametrize(
        "master, words", [(0, 1), (1, 1), (2**32 - 1, 1), (2**32, 2), (2**64 + 3, 3), (10**30, 4)]
    )
    def test_row_k_seeds_as_the_tuple_does(self, master, words):
        seeds = trial_seeds(master, 2**20)
        assert seeds.dtype == np.uint32 and seeds.shape == (2**20, words + 1)
        for k in (0, 1, 2**20 - 1):
            want = np.random.default_rng((master, k)).bit_generator.state
            assert np.random.default_rng(seeds[k]).bit_generator.state == want

    def test_words_lowest_first_then_k(self):
        np.testing.assert_array_equal(trial_seeds(2**32 + 7, 3), [[7, 1, 0], [7, 1, 1], [7, 1, 2]])
        np.testing.assert_array_equal(trial_seeds(0, 2), [[0, 0], [0, 1]])

    @pytest.mark.parametrize("master, error", [(-1, ValueError), (1.0, TypeError)])
    def test_a_seed_numpy_refuses_is_refused(self, master, error):
        with pytest.raises(error):
            np.random.default_rng((master, 0))
        with pytest.raises(error):
            trial_seeds(master, 2)


class TestRunValidation:
    def test_report_is_well_formed(self):
        rep = run_validation(V, CFG, n_trials=60, master_seed=11, synthesis="gamma")
        assert rep.gamma_exp.shape == rep.gamma_th.shape == (4, 4)
        assert rep.n_trials == 60
        assert rep.n_failures == 0
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

    @staticmethod
    def fitted_stack(monkeypatch, cfg, route, n_trials, master_seed):
        """The (nu, s_bar) that run_validation hands mle_fit_stack."""
        seen = []

        def recording(nu, s_bar, window):
            seen.append((nu, s_bar))
            return mle_fit_stack(nu, s_bar, window)

        monkeypatch.setattr(montecarlo, "mle_fit_stack", recording)
        run_validation(V, cfg, n_trials=n_trials, master_seed=master_seed, synthesis=route)
        ((nu, s_bar),) = seen
        return nu, s_bar

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_fit_reads_the_window_columns_alone(self, monkeypatch, route):
        # the reference window holds coarse bins 330 .. 519 of 999
        nu, s_bar = self.fitted_stack(monkeypatch, CFG, route, 4, 0)
        bins = CFG.fit_window()
        assert (bins, CFG.coarse_grid().size) == (slice(330, 520), 999)
        np.testing.assert_array_equal(nu, CFG.coarse_grid()[bins], strict=True)
        assert s_bar.shape == (4, bins.stop - bins.start)

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_row_k_replays_as_the_window_of_trial_spectrum_k(self, monkeypatch, route):
        self.assert_rows_replay(monkeypatch, route, 4)

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_row_k_replays_at_a_two_word_master_seed(self, monkeypatch, route):
        self.assert_rows_replay(monkeypatch, route, 2**32 + 7)

    def assert_rows_replay(self, monkeypatch, route, master):
        _, s_bar = self.fitted_stack(monkeypatch, ODD, route, 4, master)
        bins = ODD.fit_window()
        for k, row in enumerate(s_bar):
            np.testing.assert_array_equal(row, trial_spectrum(V, ODD, (master, k), route).s_bar[bins], strict=True)

    def test_three_converged_fits_leave_k2_stderr_nan(self, monkeypatch):
        # var(k2) needs 4 samples: 3 converged fits give k2 alone
        kept = []

        def three_converge(nu, s_bar, window):
            v_hat, n_iter, _ = mle_fit_stack(nu, s_bar, window)
            converged = np.zeros(len(s_bar), dtype=bool)
            converged[[1, 4, 8]] = True
            kept.append(v_hat[converged])
            return v_hat, n_iter, converged

        monkeypatch.setattr(montecarlo, "mle_fit_stack", three_converge)
        rep = run_validation(V, CFG, n_trials=10, master_seed=0, synthesis="gamma")
        assert (rep.n_trials, rep.n_failures) == (10, 7)
        assert np.isnan(rep.k2_stderr).all() and rep.k2_stderr.shape == (4,)
        np.testing.assert_array_equal(rep.k2_diag, [k2(x) for x in kept[0].T])
        assert np.isfinite(rep.deviation).all()

    def test_negative_var_k2_estimate_leaves_k2_stderr_nan(self, monkeypatch):
        # at 4 gamma-route trials and seed 0, the s_at column's var(k2)
        # estimate is negative: it has no root, and a stderr of 0 would be false
        kept = []

        def recording(nu, s_bar, window):
            v_hat, n_iter, converged = mle_fit_stack(nu, s_bar, window)
            kept.append(v_hat[converged])
            return v_hat, n_iter, converged

        monkeypatch.setattr(montecarlo, "mle_fit_stack", recording)
        rep = run_validation(V, CFG, n_trials=4, master_seed=0, synthesis="gamma")
        var = np.array([k_statistics(x)[2] for x in kept[0].T])
        assert rep.n_failures == 0
        assert var[2] < 0.0 and (var[[0, 1, 3]] > 0.0).all()
        assert np.isnan(rep.k2_stderr[2])
        np.testing.assert_array_equal(rep.k2_stderr[[0, 1, 3]], np.sqrt(var[[0, 1, 3]]))

    @staticmethod
    def window_rows(monkeypatch, rows):
        """Make run_validation's blocks rows trials long at the reference window."""
        bins = CFG.fit_window()
        monkeypatch.setattr(montecarlo, "_BLOCK_BINS", rows * (bins.stop - bins.start))

    @pytest.mark.parametrize("route", ["gamma", "timeseries"])
    def test_blocks_of_seven_rows_give_the_one_block_report(self, monkeypatch, route):
        # rows are seeded and fitted alone, so 30 trials in five blocks, the
        # last one short, give every field of the one-block run bit for bit
        whole = run_validation(V, CFG, n_trials=30, master_seed=3, synthesis=route)
        self.window_rows(monkeypatch, 7)
        sizes = []

        def recording(nu, s_bar, window):
            sizes.append(len(s_bar))
            return mle_fit_stack(nu, s_bar, window)

        monkeypatch.setattr(montecarlo, "mle_fit_stack", recording)
        split = run_validation(V, CFG, n_trials=30, master_seed=3, synthesis=route)
        assert sizes == [7, 7, 7, 7, 2]
        for field in dataclasses.fields(whole):
            a, b = np.asarray(getattr(whole, field.name)), np.asarray(getattr(split, field.name))
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name

    def test_peak_memory_is_one_block_and_the_per_trial_arrays(self, monkeypatch):
        # numpy reports its buffers to tracemalloc. 4096 gamma trials in
        # blocks of 64 rows peak at 1.16 MiB: about 10 (rows, bins) planes of
        # one block's solve, plus the seeds and fits of every trial. Before
        # the trials ran in blocks, this run peaked at 29.3 MiB.
        self.window_rows(monkeypatch, 64)
        run_validation(V, CFG, n_trials=4, master_seed=0, synthesis="gamma")
        tracemalloc.start()
        try:
            run_validation(V, CFG, n_trials=4096, master_seed=0, synthesis="gamma")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_fewer_than_two_converged_fits_is_a_config_error(self, monkeypatch):
        def no_fit_converges(nu, s_bar, window):
            return np.zeros((len(s_bar), 4)), np.zeros(len(s_bar), dtype=int), np.zeros(len(s_bar), dtype=bool)

        monkeypatch.setattr(montecarlo, "mle_fit_stack", no_fit_converges)
        with pytest.raises(ConfigError, match="only 0 of 4 fits converged"):
            run_validation(V, CFG, n_trials=4, master_seed=0, synthesis="gamma")


class TestScanOptima:
    """Criterion 5 at the four grid optima of the shipped scan, gamma route.

    Strong, wide lines (r 8.5 to 16.6, 23 to 29 bins wide): the moment start
    sent 0.2-0.9% of their fits into sub-bin local minima that still counted
    as converged (ROADMAP item 17), and one such fit voids the covariance.
    """

    @staticmethod
    def optima():
        cfg = load_config(CONFIG_DIR / "scan_reference.json")
        spec = cfg.require_scan()
        for xi2 in (1.0, 0.55):
            sg = scan_grid(spec.n_values, spec.p_values, cfg.instrument, cfg.acquisition, xi2)
            for index in (2, 4):
                o = find_optimum(sg, index)
                yield params_from_conditions(ExperimentConditions(o.n_opt, o.p_opt, xi2), cfg.instrument), cfg.acquisition

    @pytest.mark.parametrize("n_trials, master_seed", [(500, 1), (2000, 7)])
    def test_every_optimum_meets_criterion_5_with_no_stray_fit(self, monkeypatch, n_trials, master_seed):
        fits = []

        def recording(nu, s_bar, window):
            fits.append(mle_fit_stack(nu, s_bar, window))
            return fits[-1]

        monkeypatch.setattr(montecarlo, "mle_fit_stack", recording)
        for v, cfg in self.optima():
            rep = run_validation(v, cfg, n_trials=n_trials, master_seed=master_seed, synthesis="gamma")
            v_hat, _, converged = fits[-1]
            z = np.abs(v_hat[converged] - v.as_array()) / np.sqrt(np.diag(rep.gamma_th))
            assert rep.max_deviation <= 4.0, (v, rep.max_deviation)
            assert np.max(z) <= 8.0, (v, np.max(z))
