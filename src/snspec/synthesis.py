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
Both stacks seed through _generators: row k draws from the generator
default_rng(seeds[k]) would give, PCG64 in the same state, but a 2-d uint32
array of seeds is SeedSequence-hashed in one pass of uint32 array arithmetic,
and each row's generator is built from its hashed words as the row is drawn.
numpy.random is loaded on the first draw, not on import.
A stack holds a contiguous range of the coarse bins, the whole grid by
default; its columns have the bits of those columns of the whole stack.
The gamma stack's generators draw the coarse bins in stream order: from the
fit window's first bin, the first at or above fit_lo, to the end of the
grid, then the bins below it, where fit_lo above the last centre makes the
origin n_coarse, modulo itself 0, the grid's own order. A row stops at its
range's last bin in that order, so a stack on the fit window draws its own
bins alone, and a range across the origin draws the whole grid.
AcquisitionConfig is the one home of coarse-bin ranges: coarse_grid(bins)
builds the centres of any such range, and fit_window() names the fit
window's bins as one slice, by fit_bins, the rule every fit applies.
The gamma stack is a serial row loop. The timeseries stack fills its rows
in contiguous slices, one per CPU the process may use up to _MAX_WORKERS,
once a record holds _THREAD_MIN_SAMPLES samples (1 worker below that),
since its normal draws and FFTs run without the GIL; each worker reuses one
record and one coefficient buffer, so any worker count gives the same bits.
Inside the stacks a record is an array; synthesize_timeseries alone builds
a TimeSeries.

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

import contextvars
import functools
import math
import operator
import os
import threading
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
    "fit_bins",
]

SYNTHESIS_ROUTES = ("timeseries", "gamma")

# relative slack when checking t_total/delta against an integer
_RECORD_LENGTH_TOL = 1e-6
# the fewest coarse bins a fit window may hold
_MIN_WINDOW_BINS = 8
# the shortest record whose timeseries stack runs on more than one thread:
# in two runs, 2 workers took 0.85x and 1.36x the rows/s of 1 at M = 8192,
# and 1.29x and 1.59x at 16384 (BENCH_27.json, crossover)
_THREAD_MIN_SAMPLES = 16384
# the most workers a timeseries stack runs on: the most measured (on 2 CPUs,
# BENCH_27.json); each adds about 2.6 MB of peak RSS at the reference record
_MAX_WORKERS = 2
# numpy's SeedSequence: its pool of 32-bit words, its two hash constants,
# each with its multiplier, and the multipliers of its mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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

    @property
    def n_coarse(self) -> int:
        """Count of coarse bins: the M/2 - 1 raw bins in whole blocks of n_bin."""
        return (self.record_length // 2 - 1) // self.n_bin

    def raw_grid(self) -> np.ndarray:
        """Raw frequencies i/(M*delta), i = 1 .. M/2 - 1: the periodogram grid of a record."""
        return _record_grid(self.record_length, self.delta)

    def coarse_grid(self, bins: slice = slice(None)) -> np.ndarray:
        """Centres of the coarse bins in bins, a contiguous range, all of them
        by default: block means of the range's own raw bins alone, so a range
        has the bits of those entries of the whole grid."""
        start, stop = _bin_range(bins, self.n_coarse)
        n_bin = self.n_bin
        return _block_mean(_record_grid(self.record_length, self.delta, start * n_bin, stop * n_bin), n_bin)

    def fit_window(self) -> slice:
        """The coarse bins inside [fit_lo, fit_hi], as one slice of coarse_grid();
        fewer than _MIN_WINDOW_BINS is a ConfigError."""
        return fit_bins(self.coarse_grid(), (self.fit_lo, self.fit_hi))


def fit_bins(nu: np.ndarray, window) -> slice:
    """The bins of the ascending grid nu inside window, as one slice; fewer
    than _MIN_WINDOW_BINS is a ConfigError, and a grid that does not ascend
    a ValueError."""
    lo, hi = window
    if not (0.0 <= lo < hi):
        raise ConfigError(f"bad fit window [{lo}, {hi}]")
    if not (np.diff(nu) > 0.0).all():
        raise ValueError("the fit needs a strictly increasing frequency grid")
    start, stop = int(np.searchsorted(nu, lo, "left")), int(np.searchsorted(nu, hi, "right"))
    if stop - start < _MIN_WINDOW_BINS:
        raise ConfigError(f"fit window holds {stop - start} bins, need at least {_MIN_WINDOW_BINS}")
    return slice(start, stop)


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


def _bin_range(bins: slice, k: int) -> tuple[int, int]:
    """(start, stop) of bins, a contiguous nonempty slice of k coarse bins."""
    start, stop, step = bins.indices(k)
    if step != 1 or start >= stop:
        raise ValueError(f"need a contiguous, nonempty range of the {k} coarse bins, got {bins}")
    return start, stop


def _seed_words(seed) -> list[int]:
    """The 32-bit entropy words numpy's SeedSequence forms from seed: a
    nonnegative integer's words, lowest first (one word for 0), or those of
    each entry of a list, tuple, range or array in turn."""
    if isinstance(seed, (int, np.integer)):
        n = operator.index(seed)
        if n < 0:
            raise ValueError(f"a seed must be a nonnegative integer, got {n}")
        return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]
    if isinstance(seed, (list, tuple, range, np.ndarray)):
        return [word for entry in seed for word in _seed_words(entry)]
    raise TypeError(f"a seed is a nonnegative integer or a sequence of them, got {type(seed).__name__}")


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The running hash constant from init through its n updates c <- c*mult,
    each a Python int masked to 32 bits: an (n + 1, 1) uint32 array."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c, dtype=np.uint32)[:, None]


def _hashmix(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of x in turn, c holding the running
    constant before the first and after each: (x ^ c_i) * c_(i+1), then
    xor-shifted right by 16, all mod 2^32."""
    x = x ^ c[:-1]
    x *= c[1:]
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix: x*_MIX_MULT_L - y*_MIX_MULT_R, then xor-shifted right by 16, mod 2^32."""
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> 16
    return r


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) of each row of the
    (n, w) uint32 array entropy: an (n, 4) uint64 array.

    It runs SeedSequence's own steps on all rows at once, in uint32 array
    arithmetic, which wraps mod 2^32 as its C does. The hash constant runs
    through the same values on every row, so it is computed once. mix_entropy
    hashes the first _POOL words (0 past a row's end) into the pool, mixes
    each pool word into the others, then each further word into all of them;
    generate_state hashes the pool, taken twice in turn, into 8 words, paired
    lowest first into 4 uint64."""
    words = np.zeros((max(entropy.shape[1], _POOL), len(entropy)), dtype=np.uint32)
    words[: entropy.shape[1]] = entropy.T
    c = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (len(words) - _POOL))
    pool = _hashmix(words[:_POOL], c[: _POOL + 1])
    i = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[i : i + _POOL]))
        i += _POOL - 1
    for src in range(_POOL, len(words)):
        pool = _mix(pool, _hashmix(words[src], c[i : i + _POOL + 1]))
        i += _POOL
    state = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _pcg64_generator():
    """The function that makes, from a row of _seed_states, the Generator of
    PCG64 on those words: a seed sequence whose generate_state returns the row
    feeds PCG64's own seeding. Built on first use, so that importing the
    package does not load numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for (4, np.uint64), once

    return lambda words: Generator(PCG64(Words(words)))


def _generators(seeds):
    """Yield, seed by seed, the Generator default_rng(seed) gives: PCG64 in
    the same state. A seed is a nonnegative integer, a sequence of them such
    as a tuple, or a row of uint32 entropy words; seeds is a sequence of
    seeds or a 2-d uint32 array of rows. When the first is asked for, every
    seed is checked and hashed, the rows of such an array in one pass
    (_seed_states), any other seed by numpy's own SeedSequence. Each
    Generator is built as it is asked for, so one at a time is held."""
    make = _pcg64_generator()
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint32 and seeds.ndim == 2:
        states = _seed_states(seeds)
    else:
        states = [np.random.SeedSequence(_seed_words(seed)).generate_state(4, np.uint64) for seed in seeds]
    for words in states:
        yield make(words)


def _stream_origin(cfg: AcquisitionConfig) -> int:
    """The coarse bin a gamma-route generator draws first: the first one
    whose centre is at or above fit_lo, the start of fit_window(), taken
    modulo n_coarse, so 0 where fit_lo lies above the last centre. A guess
    from the centres' closed form, (b*n_bin + (n_bin + 1)/2)/(M*delta), is
    moved to the exact bin by the centres of its neighbours alone, each with
    the bits of its entry of coarse_grid()."""
    n, n_bin, lo = cfg.n_coarse, cfg.n_bin, cfg.fit_lo
    b = math.ceil((lo * cfg.record_length * cfg.delta - (n_bin + 1) / 2) / n_bin)
    b = min(max(b, 0), n)
    while b > 0 and cfg.coarse_grid(slice(b - 1, b))[0] >= lo:
        b -= 1
    while b < n and cfg.coarse_grid(slice(b, b + 1))[0] < lo:
        b += 1
    return b % n


def sample_periodogram_exact_stack(v, cfg: AcquisitionConfig, seeds, bins: slice = slice(None)) -> np.ndarray:
    """Draw one averaged spectrum per seed straight from its sampling law:
    a (len(seeds), len(grid[bins])) array on grid = cfg.coarse_grid().

    Each raw periodogram bin of a Gaussian record is exponential with mean
    f(nu_i, v); the mean of n_eff = n_bin*n_ave independent such values is
    Gamma(shape n_eff, mean f), f taken at the coarse-bin center. Bins are
    independent, so a spectrum is drawn in one shot, bypassing the time
    domain. Each seed's generator (see _generators: the seeds are hashed
    before the first draw) draws standard Gamma variates in the stream
    order: the coarse bins from the origin o, the first one at or above
    fit_lo (_stream_origin), to the end of the grid, then bins 0 .. o - 1;
    where fit_lo lies above the last centre, o = n_coarse modulo itself = 0,
    the grid's own order. A row draws the stream up to the range's last
    bin, so a range inside [o, n_coarse), the fit window among them, draws
    exactly its own bins; a range that holds bins o - 1 and o draws the
    whole stream and is put back in grid order. f/n_eff is evaluated once,
    at the range's own centres, and one multiply by it ends the stack: row
    k has the bits of default_rng(seeds[k]).gamma(n_eff, g), g being f/n_eff
    in stream order, at the range's bins. A seed is a nonnegative int, a
    tuple of them, or a row of uint32 entropy words.
    """
    n_eff, n = cfg.n_eff, cfg.n_coarse
    start, stop = _bin_range(bins, n)
    scale = eval_psd(v, cfg.coarse_grid(bins)) / n_eff
    first, count = (start - _stream_origin(cfg)) % n, stop - start
    out = np.empty((len(seeds), min(first + count, n)))
    for row, rng in zip(out, _generators(seeds)):
        rng.standard_gamma(float(n_eff), out=row)
    if first + count > n:  # the range runs past the stream's end: grid order again
        out = np.concatenate((out[:, first:], out[:, : first + count - n]), axis=1)
    else:
        out = out[:, first:]
    out *= scale
    return out


def _amplitudes(v, cfg: AcquisitionConfig) -> np.ndarray:
    """sqrt(M*f/(4*delta)) on the raw grid: with a, b iid standard normal,
    |amp*(a + ib)|^2 then averages to M*f/(2*delta)."""
    return np.sqrt(cfg.record_length * eval_psd(v, cfg.raw_grid()) / (4.0 * cfg.delta))


def _record(amp: np.ndarray, rng, y: np.ndarray, coeff: np.ndarray) -> None:
    """Write into y, of M = 2K + 2 samples for the K amplitudes, the inverse
    real FFT of amp*(a + ib) at i = 1 .. K, zero DC and Nyquist: one record.
    a and b are drawn in turn, K standard normals each, into y's own memory;
    coeff, K + 2 complex entries, holds the coefficients, both parts written
    in place with the bits of the complex product. Neither buffer's content
    on entry matters, so one pair serves any count of records."""
    k = amp.size
    ab = y[: 2 * k].reshape(2, k)
    rng.standard_normal(out=ab)
    coeff[0] = coeff[-1] = 0.0
    np.multiply(amp, ab[0], out=coeff.real[1:-1])
    np.multiply(amp, ab[1], out=coeff.imag[1:-1])
    np.fft.irfft(coeff, n=y.size, out=y)


def synthesize_timeseries(v, cfg: AcquisitionConfig, seed) -> TimeSeries:
    """Generate one stationary Gaussian record whose expected periodogram
    is f(nu_i, v) on the raw grid.

    The record is built in the frequency domain: independent complex
    Gaussian coefficients C_i with E|C_i|^2 = M*f_i/(2*delta) for
    i = 1 .. M/2 - 1, zero DC and Nyquist, inverse real FFT. Deterministic
    given the seed: a Generator to draw from, or a seed in a form _generators
    takes, whose generator is default_rng(seed)'s (None is a TypeError).
    """
    rng = seed if isinstance(seed, np.random.Generator) else next(_generators([seed]))
    amp, y = _amplitudes(v, cfg), np.empty(cfg.record_length)
    _record(amp, rng, y, np.empty(amp.size + 2, dtype=complex))
    return TimeSeries(cfg.delta, y)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(n_rows: int, record_length: int) -> int:
    """Threads for a stack of n_rows records of record_length samples each:
    one per CPU, at most one per row and _MAX_WORKERS in all, where a record
    is long enough for its GIL-free draws and FFTs to outweigh a thread's
    cost; else 1."""
    if record_length < _THREAD_MIN_SAMPLES:
        return 1
    return max(1, min(_cpu_count(), n_rows, _MAX_WORKERS))


def _fill_in_slices(fill, n_rows: int, n_workers: int) -> None:
    """Call fill(rows, halt) on n_workers contiguous slices of range(n_rows):
    the caller runs the first, and each further slice runs in a thread of its
    own, inside a copy of the caller's context, so numpy's errstate holds
    there too. fill checks the threading.Event halt before each row and
    returns once it is set, which the first exception of any slice does, so
    a failure or an interrupt in one slice ends the others at their next row.
    Every thread is joined before the first exception of any slice, in slice
    order, is raised in the caller."""
    cuts = [n_rows * i // n_workers for i in range(n_workers + 1)]
    errors: list[BaseException | None] = [None] * n_workers
    halt = threading.Event()

    def run(i: int) -> None:
        try:
            fill(slice(cuts[i], cuts[i + 1]), halt)
        except BaseException as exc:  # raised in the caller, after the join
            errors[i] = exc
            halt.set()

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i), daemon=True)
        for i in range(1, n_workers)
    ]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        run(0)
        for thread in started:
            thread.join()
    finally:  # a thread refused or an interrupt in the join: end the rest
        halt.set()
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def timeseries_periodogram_stack(v, cfg: AcquisitionConfig, seeds, bins: slice = slice(None)) -> np.ndarray:
    """The timeseries route for each seed: a (len(seeds), len(grid[bins]))
    array on grid = cfg.coarse_grid().

    Row k holds, bit for bit, the bins of what n_ave records drawn in turn
    from default_rng(seeds[k]) give through periodogram, average_spectra and
    coarse_grain; a seed takes the forms sample_periodogram_exact_stack
    takes. The amplitudes are computed once. The rows are filled in
    contiguous slices, one per worker (see _workers); each worker hashes its
    slice's seeds before its first draw and builds each row's generator as
    it comes (_generators), and reuses one record, one coefficient buffer
    and one buffer for the n_ave periodograms of its current row, on the raw
    bins of the range only, so a row has the same bits for any worker count.
    """
    amp, n_bin, delta = _amplitudes(v, cfg), cfg.n_bin, cfg.delta
    start, stop = _bin_range(bins, cfg.n_coarse)
    raw_bins = slice(start * n_bin, stop * n_bin)
    out = np.empty((len(seeds), stop - start))

    def fill(rows: slice, halt: threading.Event) -> None:
        y, coeff = np.empty(cfg.record_length), np.empty(amp.size + 2, dtype=complex)
        raw = np.empty((cfg.n_ave, (stop - start) * n_bin))
        for row, rng in zip(out[rows], _generators(seeds[rows])):
            if halt.is_set():  # another slice failed
                return
            for record in raw:
                _record(amp, rng, y, coeff)
                _periodogram_bins(y, delta, raw_bins, coeff, record)
            row[:] = _block_mean(raw.mean(axis=0), n_bin)

    _fill_in_slices(fill, len(out), _workers(len(out), cfg.record_length))
    return out


def _record_grid(m: int, delta: float, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Periodogram frequencies i/(m*delta), i = 1 .. m/2 - 1, or at the raw
    bins start .. stop - 1 of those: exact integers i, divided one by one."""
    stop = m // 2 - 1 if stop is None else stop
    return np.arange(start + 1, stop + 1, dtype=float) / (m * delta)


def _periodogram_bins(y: np.ndarray, delta: float, bins: slice = slice(None), coeff=None, out=None) -> np.ndarray:
    """2*delta*|rfft(y)|^2/M at i = 1 .. M/2 - 1, or at the range bins of
    those; rfft writes into coeff and the bins into out, where given."""
    m = y.size
    out = np.abs(np.fft.rfft(y, out=coeff)[1 : m // 2][bins], out=out)
    np.square(out, out=out)
    out *= 2.0 * delta / m
    return out


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
