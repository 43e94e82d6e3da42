"""Parametric model of a measured noise power spectrum.

The spectrum is a white photodetection background plus a Lorentzian
resonance line,

    f(nu) = s_ph + s_at * delta_nu^2 / (4 (nu - nu_l)^2 + delta_nu^2),

with all spectral densities in uV^2/Hz and frequencies in Hz. The forward
model maps experimental conditions (atom density, probe power, probe
squeezing) to the four spectral parameters through instrument constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# The forward model is evaluated in SI units (V^2/Hz) and converted to the
# package-internal uV^2/Hz at the end.
V2_PER_HZ_TO_UV2_PER_HZ = 1e12


@dataclass(frozen=True)
class SpectralParams:
    """Parameter vector of the model spectrum, ordered (s_ph, nu_l, s_at, delta_nu).

    s_ph     : white background level, uV^2/Hz
    nu_l     : resonance center frequency, Hz
    s_at     : resonance peak height above background, uV^2/Hz
    delta_nu : full width at half maximum, Hz

    The ordering is fixed package-wide so that covariance-matrix indices are
    comparable everywhere (1 = s_ph, 2 = nu_l, 3 = s_at, 4 = delta_nu).
    """

    s_ph: float
    nu_l: float
    s_at: float
    delta_nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s_ph) and self.s_ph > 0):
            raise ValueError(f"s_ph must be finite and > 0, got {self.s_ph}")
        if not math.isfinite(self.nu_l):
            raise ValueError(f"nu_l must be finite, got {self.nu_l}")
        if not (math.isfinite(self.s_at) and self.s_at >= 0):
            raise ValueError(f"s_at must be finite and >= 0, got {self.s_at}")
        if not (math.isfinite(self.delta_nu) and self.delta_nu > 0):
            raise ValueError(f"delta_nu must be finite and > 0, got {self.delta_nu}")

    def as_array(self) -> np.ndarray:
        return np.array([self.s_ph, self.nu_l, self.s_at, self.delta_nu])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """as_array, so np.asarray and the model functions accept a SpectralParams."""
        return self.as_array()

    @classmethod
    def from_array(cls, a) -> "SpectralParams":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"parameter vector must have shape (4,), got {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class ExperimentConditions:
    """Operating point of the experiment.

    n   : atom number density, cm^-3
    p   : probe optical power, W
    xi2 : squeezing factor xi^2 multiplying the photodetection background
          (1 = coherent probe, < 1 = squeezed probe)
    """

    n: float
    p: float
    xi2: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n) and self.n >= 0):
            raise ValueError(f"n must be finite and >= 0, got {self.n}")
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValueError(f"p must be finite and > 0, got {self.p}")
        if not (math.isfinite(self.xi2) and self.xi2 > 0):
            raise ValueError(f"xi2 must be finite and > 0, got {self.xi2}")


@dataclass(frozen=True)
class InstrumentConstants:
    """Fixed constants of the detection chain and vapor cell.

    g                : transimpedance gain, V/A
    q                : electron charge, C
    eta              : photodetection quantum efficiency, dimensionless in (0, 1]
    e_ph             : photon energy, J
    kappa2           : coupling constant of the atomic noise signal; units such
                       that the atomic peak comes out in V^2/Hz
    a_eff            : effective beam cross-section, cm^2
    l_cell           : cell length, cm
    isotope_fraction : fraction of the probed isotope at natural abundance
    gamma0           : residual spin relaxation rate, s^-1
    alpha            : density broadening coefficient, s^-1 cm^3 (default 0)
    beta             : power broadening coefficient, s^-1 W^-1 (default 0)
    nu_l_fixed       : resonance center frequency set by the bias field, Hz
    """

    g: float
    q: float
    eta: float
    e_ph: float
    kappa2: float
    a_eff: float
    l_cell: float
    isotope_fraction: float
    gamma0: float
    nu_l_fixed: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("g", "q", "e_ph", "kappa2", "a_eff", "l_cell", "gamma0", "nu_l_fixed"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (0 < self.eta <= 1):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not (0 < self.isotope_fraction <= 1):
            raise ValueError(
                f"isotope_fraction must be in (0, 1], got {self.isotope_fraction}"
            )
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def eval_psd(v, nu):
    """Model power spectral density at frequency nu (scalar or array), uV^2/Hz.

    v is a SpectralParams or an array whose last axis is (s_ph, nu_l, s_at,
    delta_nu); a stack of parameter vectors broadcasts against nu, so each
    may have its own frequency row. An array is not validated. A scalar
    result is a float. Strictly positive for any valid parameter
    vector since s_ph > 0 and the Lorentzian term is nonnegative.
    """
    v = np.asarray(v, dtype=float)
    nu = np.asarray(nu, dtype=float)
    d2 = v[..., 3] * v[..., 3]
    out = v[..., 0] + v[..., 2] * d2 / (4.0 * (nu - v[..., 1]) ** 2 + d2)
    return float(out) if out.ndim == 0 else out


def log_jacobian(v, nu):
    """J = d ln f / d theta, theta = (ln s_ph, nu_l, ln s_at, ln delta_nu): (J, f, lor).

    The one place the model's log-derivative is formed: the fit uses J, and
    fisher takes it to v. v and nu broadcast as in eval_psd, to a shape of at
    least one axis; J is (4,) + that shape, one contiguous plane per
    parameter, and f and lor = delta_nu^2 / q have that shape. With off =
    nu - nu_l, w = 4 off^2, q = w + delta_nu^2 and a = s_at lor, f = s_ph + a
    and J = (s_ph/f, 8 off (a/f)/q, a/f, 2 (a/f) w/q). Neither q^2 nor
    8 s_at off is formed, so levels near 2^1000 stay finite.
    """
    v = np.asarray(v, dtype=float)
    s_ph, nu_l, s_at, d = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    d2 = d * d
    jac = np.empty((4,) + np.broadcast(nu, s_ph).shape)
    j_ph, j_nu, j_at, j_d = jac
    # j_nu holds off and j_d holds w, and j_at a, until each plane is formed
    np.subtract(nu, nu_l, out=j_nu)
    np.multiply(j_nu, j_nu, out=j_d)
    j_d *= 4.0
    q = np.add(j_d, d2)
    lor = np.divide(d2, q)
    np.multiply(lor, s_at, out=j_at)
    f = np.add(j_at, s_ph)
    j_at /= f
    np.divide(s_ph, f, out=j_ph)
    j_nu *= j_at
    j_nu /= q
    j_nu *= 8.0
    j_d /= q
    j_d *= j_at
    j_d *= 2.0
    return jac, f, lor


def params_from_conditions(
    c: ExperimentConditions, k: InstrumentConstants
) -> SpectralParams:
    """Forward model: map (density, power, squeezing) to spectral parameters.

    The background is photodetection shot noise scaled by the squeezing
    factor; the resonance height follows from the coupling constant, the
    probed column of atoms, and the linewidth; the linewidth collects the
    residual, density, and power broadening contributions:

        delta_nu = (gamma0 + alpha n + beta P) / pi
        s_ph     = 2 g^2 q (R P) xi^2,           R = eta q / e_ph
        s_at     = 8 g^2 (R P)^2 kappa2 a_eff l_cell (isotope_fraction n)
                   / (pi delta_nu)

    evaluated in V^2/Hz and returned in uV^2/Hz. The center frequency is the
    constant nu_l_fixed (set by the bias field, independent of n and P).
    Note s_at * delta_nu does not depend on how the broadening splits among
    the three contributions.
    """
    # an overflow (or inf * 0 at n = 0) leaves a non-finite entry, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        theta = params_from_conditions_array(c.n, c.p, c.xi2, k)
    if not np.isfinite(theta).all():
        raise NumericalError(
            f"forward model leaves the finite range at n = {c.n!r} cm^-3, "
            f"P = {c.p!r} W, xi2 = {c.xi2!r}: (s_ph, nu_l, s_at, delta_nu) = "
            f"{tuple(float(x) for x in theta)}"
        )
    return SpectralParams.from_array(theta)


def params_from_conditions_array(n, p, xi2, k: InstrumentConstants) -> np.ndarray:
    """params_from_conditions on condition arrays that broadcast together.

    Returns the broadcast shape plus a trailing axis of length 4 holding
    (s_ph, nu_l, s_at, delta_nu). No validation: the caller passes valid
    conditions.
    """
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    delta_nu = (k.gamma0 + k.alpha * n + k.beta * p) / math.pi
    responsivity = k.eta * k.q / k.e_ph  # A/W
    photocurrent = responsivity * p  # A
    s_ph = 2.0 * k.g**2 * k.q * photocurrent * xi2
    # float_power calls C pow, as a Python float's ** does; np.power squares,
    # which differs from pow in the last bit for about 1 value in 1200
    s_at = (
        8.0
        * k.g**2
        * np.float_power(photocurrent, 2)
        * k.kappa2
        * k.a_eff
        * k.l_cell
        * (k.isotope_fraction * n)
        / (math.pi * delta_nu)
    )
    s_ph, s_at, delta_nu = np.broadcast_arrays(s_ph, s_at, delta_nu)
    theta = np.empty(s_ph.shape + (4,))
    theta[..., 0] = s_ph * V2_PER_HZ_TO_UV2_PER_HZ
    theta[..., 1] = k.nu_l_fixed
    theta[..., 2] = s_at * V2_PER_HZ_TO_UV2_PER_HZ
    theta[..., 3] = delta_nu
    return theta
