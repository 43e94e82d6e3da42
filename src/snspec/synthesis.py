"""Synthetic spectrum generation, averaging, and coarse-graining.

Two independent generation routes are provided on purpose. The exact sampler
draws averaged periodogram bins straight from their Gamma law; the time-domain
route synthesizes a stationary Gaussian record and runs it through the same
periodogram used for measured data. Agreement of the two is itself a test
target, so neither may be expressed through the other.

Both routes return a Spectrum: a uniform grid, the bin means s_bar and the
count n_eff of raw periodogram values behind each bin (1 for a raw
periodogram). Averaging records or coarse-graining bins multiplies n_eff.
Each route's stack function draws one averaged spectrum per seed into an
array row, computing what is constant per run once, with the same bits.
The stacks are plain serial row loops, and inside them a record is an
array; synthesize_timeseries alone builds a TimeSeries.

Conventions, fixed across the package:
  - one-sided PSD, S(nu) = 2*delta*|DFT|^2 / M in uV^2/Hz, so the PSD sums
    to the record variance: sum_i S_i * nu_t = var(y)
  - DC and Nyquist bins are excluded everywhere; the raw grid is
    nu_i = i/(M*delta), i = 1 .. M/2 - 1, M = round(t_total/delta); t_total
    only fixes M, so both routes and every periodogram share this one grid
  - rectangular window, no overlap
  - even record length only
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import eval_psd

__all__ = [
    "SYNTHESIS_ROUTES",
    "AcquisitionConfig",
    "Spectrum",
    "TimeSeries",
    "sample_periodogram_exact_stack",
    "synthesize_timeseries",
    "timeseries_periodogram_stack",
    "periodogram",
    "coarse_grain",
    "average_spectra",
]

SYNTHESIS_ROUTES = ("timeseries", "gamma")

# relative slack when checking t_total/delta against an integer
_RECORD_LENGTH_TOL = 1e-6


@dataclass(frozen=True)
class AcquisitionConfig:
    """Acquisition geometry: sampling, record length, averaging, fit window.

    delta     sampling interval, s
    t_total   record duration, s
    fit_lo    lower edge of the fit window, Hz
    fit_hi    upper edge of the fit window, Hz
    n_ave     count of independently acquired records to average
    n_bin     coarse-grain width, in raw bins
    """

    delta: float
    t_total: float
    fit_lo: float
    fit_hi: float
    n_ave: int = 1
    n_bin: int = 1

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")
        if not (self.t_total > 0.0 and math.isfinite(self.t_total)):
            raise ConfigError(f"t_total must be positive and finite, got {self.t_total}")
        ratio = self.t_total / self.delta
        m = round(ratio) if math.isfinite(ratio) else 0  # an overflowed ratio is no length
        if m < 4 or abs(ratio - m) > _RECORD_LENGTH_TOL * ratio:
            raise ConfigError(
                f"record length t_total/delta = {ratio!r} must be an integer >= 4"
            )
        if m % 2:
            raise ConfigError(f"record length M = {m} must be even")
        if not (isinstance(self.n_ave, int) and self.n_ave >= 1):
            raise ConfigError(f"n_ave must be an integer >= 1, got {self.n_ave!r}")
        if not (isinstance(self.n_bin, int) and 1 <= self.n_bin <= m // 2 - 1):
            raise ConfigError(
                f"n_bin must be an integer from 1 to M/2 - 1 = {m // 2 - 1}, got {self.n_bin!r}"
            )
        if not (0.0 <= self.fit_lo < self.fit_hi <= self.nyquist):
            raise ConfigError(
                f"fit window [{self.fit_lo}, {self.fit_hi}] Hz must satisfy "
                f"0 <= lo < hi <= Nyquist ({self.nyquist} Hz)"
            )

    @property
    def record_length(self) -> int:
        """Samples per record, M."""
        return round(self.t_total / self.delta)

    @property
    def nu_t(self) -> float:
        """Raw grid spacing 1/(M*delta), Hz."""
        return 1.0 / (self.record_length * self.delta)

    @property
    def nyquist(self) -> float:
        return 0.5 / self.delta

    @property
    def n_eff(self) -> int:
        """Statistical averaging count per coarse bin, n_bin*n_ave."""
        return self.n_bin * self.n_ave

    @property
    def coarse_spacing(self) -> float:
        """Spacing of the coarse-grained grid, n_bin*nu_t, Hz."""
        return self.n_bin * self.nu_t

    def raw_grid(self) -> np.ndarray:
        """Raw frequencies i/(M*delta), i = 1 .. M/2 - 1: the periodogram grid of a record."""
        return _record_grid(self.record_length, self.delta)

    def coarse_grid(self) -> np.ndarray:
        """Centers of the coarse bins: block means of the raw grid."""
        return _block_mean(self.raw_grid(), self.n_bin)


def _block_mean(x: np.ndarray, width: int) -> np.ndarray:
    # trailing remainder shorter than one block is dropped
    nb = x.size // width
    return x[: nb * width].reshape(nb, width).mean(axis=1)


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum on a uniform grid. Each bin is the mean of n_eff raw
    periodogram values, so its variance is s_bar^2/n_eff; a raw periodogram
    has n_eff = 1. nu in Hz, s_bar in uV^2/Hz, finite, s_bar >= 0."""

    nu: np.ndarray
    s_bar: np.ndarray
    n_eff: int = 1

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=float)
        s_bar = np.asarray(self.s_bar, dtype=float)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "s_bar", s_bar)
        if nu.ndim != 1 or nu.shape != s_bar.shape:
            raise ValueError("nu and s_bar must be 1-d arrays of equal length")
        if not (np.isfinite(nu).all() and np.isfinite(s_bar).all()):
            raise ValueError("nu and s_bar must be finite")
        if (s_bar < 0.0).any():
            raise ValueError("s_bar must be nonnegative")
        if nu.size >= 2:
            d = np.diff(nu)
            lo, hi, d0 = d.min(), d.max(), d[0]
            if lo <= 0.0:
                raise ValueError("frequency grid must be strictly increasing")
            # every step within rtol 1e-9 of the first
            if hi - d0 > 1e-9 * d0 or d0 - lo > 1e-9 * d0:
                raise ValueError("frequency grid must be uniformly spaced")
        n_eff = self.n_eff
        if isinstance(n_eff, bool) or not (isinstance(n_eff, (int, np.integer)) and n_eff >= 1):
            raise ValueError(f"n_eff must be an integer >= 1, got {n_eff!r}")
        object.__setattr__(self, "n_eff", int(n_eff))


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued record y(m*delta), y in uV."""

    delta: float
    y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if y.ndim != 1 or y.size < 2:
            raise ValueError("y must be a 1-d array with at least 2 samples")
        if not np.all(np.isfinite(y)):
            raise ValueError("time series contains non-finite samples")


def sample_periodogram_exact_stack(v, cfg: AcquisitionConfig, seeds) -> np.ndarray:
    """Draw one averaged spectrum per seed straight from its sampling law:
    a (len(seeds), K) array on cfg.coarse_grid().

    Each raw periodogram bin of a Gaussian record is exponential with mean
    f(nu_i, v); the mean of n_eff = n_bin*n_ave independent such values is
    Gamma(shape n_eff, mean f), f taken at the coarse-bin center. Bins are
    independent, so a spectrum is drawn in one shot, bypassing the time
    domain. f/n_eff is evaluated once; each row draws standard Gamma variates
    from default_rng(seed) in place, and one multiply by f/n_eff ends the
    stack, with the bits of default_rng(seed).gamma(n_eff, f/n_eff).
    """
    n_eff = cfg.n_eff
    scale = eval_psd(v, cfg.coarse_grid()) / n_eff
    out = np.empty((len(seeds), scale.size))
    for row, seed in zip(out, seeds):
        np.random.default_rng(seed).standard_gamma(float(n_eff), out=row)
    out *= scale
    return out


def _amplitudes(v, cfg: AcquisitionConfig) -> np.ndarray:
    """sqrt(M*f/(4*delta)) on the raw grid: with a, b iid standard normal,
    |amp*(a + ib)|^2 then averages to M*f/(2*delta)."""
    return np.sqrt(cfg.record_length * eval_psd(v, cfg.raw_grid()) / (4.0 * cfg.delta))


def _record(amp: np.ndarray, rng) -> np.ndarray:
    """Inverse real FFT of amp*(a + ib) at i = 1 .. M/2 - 1, zero DC and
    Nyquist: the M samples of one record. Both parts of the coefficients are
    written in place, with the bits of the complex product."""
    ab = rng.standard_normal((2, amp.size))
    coeff = np.zeros(amp.size + 2, dtype=complex)
    np.multiply(amp, ab[0], out=coeff.real[1:-1])
    np.multiply(amp, ab[1], out=coeff.imag[1:-1])
    return np.fft.irfft(coeff, n=2 * amp.size + 2)


def synthesize_timeseries(v, cfg: AcquisitionConfig, seed) -> TimeSeries:
    """Generate one stationary Gaussian record whose expected periodogram
    is f(nu_i, v) on the raw grid.

    The record is built in the frequency domain: independent complex
    Gaussian coefficients C_i with E|C_i|^2 = M*f_i/(2*delta) for
    i = 1 .. M/2 - 1, zero DC and Nyquist, inverse real FFT. Deterministic
    given the seed.
    """
    return TimeSeries(cfg.delta, _record(_amplitudes(v, cfg), np.random.default_rng(seed)))


def timeseries_periodogram_stack(v, cfg: AcquisitionConfig, seeds) -> np.ndarray:
    """The timeseries route for each seed: a (len(seeds), K) array.

    Row k holds, bit for bit, what n_ave records drawn in turn from
    default_rng(seeds[k]) give through periodogram, average_spectra and
    coarse_grain. The amplitudes are computed once, and one buffer holds the
    n_ave periodograms of the current row.
    """
    amp = _amplitudes(v, cfg)
    out = np.empty((len(seeds), amp.size // cfg.n_bin))
    raw = np.empty((cfg.n_ave, amp.size))
    for row, seed in zip(out, seeds):
        rng = np.random.default_rng(seed)
        for record in raw:
            record[:] = _periodogram_bins(_record(amp, rng), cfg.delta)
        row[:] = _block_mean(raw.mean(axis=0), cfg.n_bin)
    return out


def _record_grid(m: int, delta: float) -> np.ndarray:
    """Periodogram frequencies i/(m*delta), i = 1 .. m/2 - 1."""
    return np.arange(1, m // 2, dtype=float) / (m * delta)


def _periodogram_bins(y: np.ndarray, delta: float) -> np.ndarray:
    """2*delta*|rfft(y)|^2/M at i = 1 .. M/2 - 1."""
    m = y.size
    return (2.0 * delta / m) * np.abs(np.fft.rfft(y)[1 : m // 2]) ** 2


def periodogram(ts: TimeSeries) -> Spectrum:
    """One-sided periodogram 2*delta*|rfft(y)|^2/M on the raw grid.

    DC and Nyquist are excluded: the exponential-statistics argument needs a
    complex coefficient, and those two are real.
    """
    m = ts.y.size
    if m < 4:
        raise ValueError(f"need at least 4 samples, got {m}")
    if m % 2:
        raise ValueError(f"record length {m} must be even")
    return Spectrum(nu=_record_grid(m, ts.delta), s_bar=_periodogram_bins(ts.y, ts.delta))


def coarse_grain(sp: Spectrum, n_bin: int) -> Spectrum:
    """Average n_bin adjacent bins; a trailing remainder is dropped.

    The result carries n_eff = n_bin * sp.n_eff. Centers are the means of the
    constituent frequencies.
    """
    if not (isinstance(n_bin, (int, np.integer)) and n_bin >= 1):
        raise ValueError(f"n_bin must be an integer >= 1, got {n_bin!r}")
    n_bin = int(n_bin)
    if sp.nu.size // n_bin < 1:
        raise ValueError(f"need at least n_bin = {n_bin} bins, got {sp.nu.size}")
    return Spectrum(
        nu=_block_mean(sp.nu, n_bin),
        s_bar=_block_mean(sp.s_bar, n_bin),
        n_eff=n_bin * sp.n_eff,
    )


def average_spectra(spectra) -> Spectrum:
    """Pointwise mean of spectra on identical grids with identical n_eff.

    The result carries n_eff = len(spectra) * common n_eff.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum")
    nu0, n0 = spectra[0].nu, spectra[0].n_eff
    for sp in spectra:
        if not np.array_equal(sp.nu, nu0):
            raise ValueError("spectra are on different frequency grids")
        if sp.n_eff != n0:
            raise ValueError(f"mixed n_eff in average: {sp.n_eff} != {n0}")
    s_bar = np.mean([sp.s_bar for sp in spectra], axis=0)
    return Spectrum(nu=nu0, s_bar=s_bar, n_eff=n0 * len(spectra))
