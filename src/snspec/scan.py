"""Covariance-bound maps over the (density, power) plane.

The forward model maps the whole (n, P) grid to one stack of spectral
parameter vectors, and `fisher.integral_covariance_stack` turns the stack
into the integral-form covariance bounds under the acquisition geometry, in
a few array passes rather than one call per cell; the scan keeps the four
diagonal entries. The surfaces expose the sensitivity optimum: photon shot
noise falls with power while power and collision broadening grow, so the
variances of the line parameters pass through a minimum inside the plane.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .fisher import integral_covariance_stack
from .model import (
    ExperimentConditions,
    InstrumentConstants,
    params_from_conditions,
    params_from_conditions_array,
)
from .synthesis import AcquisitionConfig

__all__ = ["ScanGrid", "OptimumReport", "scan_grid", "find_optimum", "squeezing_gain"]


@dataclass(frozen=True)
class ScanGrid:
    """Diagonal covariance surfaces on an (n, P) grid.

    surfaces has shape (4, len(n_values), len(p_values)); entry [a, i, j] is
    Gamma_th[a, a] at (n_values[i], p_values[j]). Cells where the information
    matrix was singular hold NaN.
    """

    n_values: np.ndarray
    p_values: np.ndarray
    xi2: float
    surfaces: np.ndarray

    def __post_init__(self) -> None:
        n_values = np.asarray(self.n_values, dtype=float)
        p_values = np.asarray(self.p_values, dtype=float)
        surfaces = np.asarray(self.surfaces, dtype=float)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "p_values", p_values)
        object.__setattr__(self, "surfaces", surfaces)
        if surfaces.shape != (4, n_values.size, p_values.size):
            raise ValueError(
                f"surfaces shape {surfaces.shape} does not match grid "
                f"(4, {n_values.size}, {p_values.size})"
            )

    def surface(self, param_index: int) -> np.ndarray:
        """2-D surface for a 1-based parameter index."""
        if param_index not in (1, 2, 3, 4):
            raise ConfigError(f"param_index must be 1..4, got {param_index!r}")
        return self.surfaces[param_index - 1]


@dataclass(frozen=True)
class OptimumReport:
    """Grid minimum of one covariance surface."""

    param_index: int
    n_opt: float
    p_opt: float
    gamma_min: float
    interior: bool


def scan_grid(
    n_values,
    p_values,
    k: InstrumentConstants,
    cfg: AcquisitionConfig,
    xi2: float = 1.0,
) -> ScanGrid:
    """Evaluate the four diagonal covariance surfaces over the (n, P) grid.

    Singular cells become NaN rather than raising, so one degenerate corner
    does not void a scan. Both grids must be sorted strictly ascending; then
    the forward model and its range checks are monotone in n and P, so the
    (min, min) and (max, max) corners stand for every cell.
    """
    n_values = np.asarray(n_values, dtype=float)
    p_values = np.asarray(p_values, dtype=float)
    if n_values.size == 0 or p_values.size == 0:
        raise ConfigError("scan grids must be nonempty")
    if not (np.all(np.diff(n_values) > 0.0) and np.all(np.diff(p_values) > 0.0)):
        raise ConfigError("scan grids must be sorted strictly ascending")
    for n, p in ((n_values[0], p_values[0]), (n_values[-1], p_values[-1])):
        try:
            c = ExperimentConditions(n=float(n), p=float(p), xi2=xi2)
        except ValueError as exc:
            raise ConfigError(f"scan range: {exc}") from exc
        params_from_conditions(c, k)  # raises where the forward model leaves its range
    theta = params_from_conditions_array(n_values[:, None], p_values[None, :], xi2, k)
    gamma = integral_covariance_stack(
        theta.reshape(-1, 4), (cfg.fit_lo, cfg.fit_hi), cfg.coarse_spacing, cfg.n_eff
    )
    surfaces = np.diagonal(gamma, axis1=1, axis2=2).T.reshape(4, n_values.size, p_values.size)
    return ScanGrid(n_values=n_values, p_values=p_values, xi2=xi2, surfaces=surfaces)


def find_optimum(sg: ScanGrid, param_index: int) -> OptimumReport:
    """Grid argmin of one surface; ties break toward smaller (n, P)."""
    a = sg.surface(param_index)
    if not np.any(np.isfinite(a)):
        raise NumericalError(f"surface {param_index} holds no finite values")
    flat = np.nanargmin(a)  # C-order: first minimum is smallest (n, P) lexicographically
    i, j = (int(x) for x in np.unravel_index(flat, a.shape))
    return OptimumReport(
        param_index=param_index,
        n_opt=float(sg.n_values[i]),
        p_opt=float(sg.p_values[j]),
        gamma_min=float(a[i, j]),
        interior=bool(0 < i < a.shape[0] - 1 and 0 < j < a.shape[1] - 1),
    )


def squeezing_gain(
    c: ExperimentConditions,
    k: InstrumentConstants,
    cfg: AcquisitionConfig,
    xi2_a: float,
    xi2_b: float,
) -> np.ndarray:
    """Elementwise Gamma_th diagonal ratio at xi2_b over xi2_a, fixed (n, P).

    Each diagonal is the one cell of a 1x1 scan_grid at that xi2.
    """
    if not (xi2_a > 0.0 and xi2_b > 0.0):
        raise ConfigError("squeezing factors must be positive")
    diag = []
    for xi2 in (xi2_a, xi2_b):
        d = scan_grid([c.n], [c.p], k, cfg, xi2).surfaces[:, 0, 0]
        if np.isnan(d).any():
            raise NumericalError(f"information matrix singular at xi2 = {xi2}")
        diag.append(d)
    return diag[1] / diag[0]
