"""Covariance surfaces over the (n, P) plane, optima, squeezing ratios."""

from dataclasses import replace

import numpy as np
import pytest

from snspec import fisher
from snspec.errors import ConfigError, NumericalError
from snspec.fisher import fisher_integral
from snspec.model import (
    ExperimentConditions,
    InstrumentConstants,
    params_from_conditions,
    params_from_conditions_array,
)
from snspec.profiles import REFERENCE_ACQUISITION, REFERENCE_INSTRUMENT
from snspec.scan import OptimumReport, ScanGrid, find_optimum, scan_grid, squeezing_gain

N_SMALL = np.linspace(2e12, 1.6e13, 8)
P_SMALL = np.linspace(1e-3, 12e-3, 7)


def no_broadening_instrument():
    # alpha = beta = 0: the linewidth never grows, so more atoms and more
    # light can only help the line parameters
    return InstrumentConstants(
        g=1e6,
        q=1.6e-19,
        eta=0.9,
        e_ph=2.49e-19,
        kappa2=1e-24,
        a_eff=0.054,
        l_cell=3.0,
        isotope_fraction=0.72,
        gamma0=3720.15,
        nu_l_fixed=42600.0,
    )


class TestScanGridType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(
                n_values=np.arange(3.0),
                p_values=np.arange(4.0),
                xi2=1.0,
                surfaces=np.zeros((4, 4, 3)),
            )

    def test_surface_index_is_one_based(self):
        sg = ScanGrid(
            n_values=np.arange(2.0),
            p_values=np.arange(3.0),
            xi2=1.0,
            surfaces=np.arange(24.0).reshape(4, 2, 3),
        )
        np.testing.assert_array_equal(sg.surface(1), sg.surfaces[0])
        np.testing.assert_array_equal(sg.surface(4), sg.surfaces[3])
        for bad in (0, 5, "2"):
            with pytest.raises(ConfigError):
                sg.surface(bad)


class TestScanGridOp:
    def test_shapes_and_positivity(self):
        sg = scan_grid(N_SMALL, P_SMALL, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION)
        assert sg.surfaces.shape == (4, N_SMALL.size, P_SMALL.size)
        assert np.all(np.isfinite(sg.surfaces))
        assert np.all(sg.surfaces > 0)

    def test_rerun_is_bit_identical(self):
        a = scan_grid(N_SMALL, P_SMALL, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION)
        b = scan_grid(N_SMALL, P_SMALL, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION)
        np.testing.assert_array_equal(a.surfaces, b.surfaces)

    def test_no_broadening_makes_center_variance_monotone(self):
        sg = scan_grid(N_SMALL, P_SMALL, no_broadening_instrument(), REFERENCE_ACQUISITION)
        g22 = sg.surface(2)
        assert np.all(np.diff(g22, axis=0) < 0)  # decreasing in n
        assert np.all(np.diff(g22, axis=1) < 0)  # decreasing in P
        g44 = sg.surface(4)
        assert np.all(np.diff(g44, axis=0) < 0)
        assert np.all(np.diff(g44, axis=1) < 0)

    def test_singular_cells_become_nan(self):
        # n = 0 kills the atomic peak; the line parameters carry no
        # information there and the cell must be missing, not fatal
        n_vals = np.array([0.0, 4e12])
        sg = scan_grid(n_vals, P_SMALL, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION)
        assert np.all(np.isnan(sg.surfaces[:, 0, :]))
        assert np.all(np.isfinite(sg.surfaces[:, 1, :]))

    def test_rejects_bad_grids(self):
        k, cfg = REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION
        with pytest.raises(ConfigError):
            scan_grid(np.array([]), P_SMALL, k, cfg)
        with pytest.raises(ConfigError):
            scan_grid(N_SMALL[::-1], P_SMALL, k, cfg)
        with pytest.raises(ConfigError):
            scan_grid(np.array([1e12, 1e12]), P_SMALL, k, cfg)

    @pytest.mark.parametrize(
        "n_values, p_values, xi2",
        [
            (np.array([-1e12, 4e12]), P_SMALL, 1.0),  # negative density corner
            (N_SMALL, np.array([0.0, 1e-3]), 1.0),  # zero power corner
            (N_SMALL, np.array([1e-3, np.inf]), 1.0),  # infinite power corner
            (np.array([1e12, np.nan, 4e12]), P_SMALL, 1.0),  # NaN inside the grid
            (N_SMALL, P_SMALL, 0.0),
            (N_SMALL, P_SMALL, np.nan),
        ],
    )
    def test_rejects_out_of_range_conditions(self, n_values, p_values, xi2):
        with pytest.raises(ConfigError):
            scan_grid(n_values, p_values, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, xi2)


def per_cell_surfaces(n_values, p_values, k, cfg, xi2):
    """The reference route: one forward model and one fisher_integral per cell."""
    out = np.full((4, n_values.size, p_values.size), np.nan)
    for i, n in enumerate(n_values):
        for j, p in enumerate(p_values):
            v = params_from_conditions(ExperimentConditions(n=n, p=p, xi2=xi2), k)
            result = fisher_integral(v, (cfg.fit_lo, cfg.fit_hi), cfg.coarse_spacing, cfg.n_eff)
            if result.gamma_th is not None:
                out[:, i, j] = np.diag(result.gamma_th)
    return out


class TestBatchedScanEqualsPerCell:
    # gamma0 = 5 s^-1: at low n and P the line is 1.7-4 Hz wide and the fit
    # window reaches 2^14 half-widths from it; at high n and P it is kHz
    # wide and reaches 2^3. The rule runs on |nu - nu_l|, on the panels
    # between 0, 1, 2, 4, ... 2^K half-widths and the fold point where the
    # window's shorter side ends, so a cell of depth K has K + 2 panels. The
    # cells of one block need different depths, and the shallow ones are
    # padded with zero-width panels in the stack but not alone. n = 0 is a
    # singular row, and the 88 cells span more than one block. kappa2 at
    # 1e-3 of the reference keeps s_at / s_ph below 0.085 in every cell, out
    # of the closed form's band, so every cell takes the rule.
    K = replace(REFERENCE_INSTRUMENT, gamma0=5.0, kappa2=REFERENCE_INSTRUMENT.kappa2 * 1e-3)
    N = np.array([0.0, 1e9, 1e10, 1e11, 1e12, 4e12, 1e13, 4e13])
    P = np.geomspace(1e-6, 1e-2, 11)

    @pytest.mark.parametrize("xi2", [1.0, 0.55])
    def test_bit_identical(self, xi2):
        sg = scan_grid(self.N, self.P, self.K, REFERENCE_ACQUISITION, xi2)
        want = per_cell_surfaces(self.N, self.P, self.K, REFERENCE_ACQUISITION, xi2)
        np.testing.assert_array_equal(sg.surfaces, want)

    def test_grid_covers_the_hard_cells(self):
        cfg = REFERENCE_ACQUISITION
        assert self.N.size * self.P.size > fisher._BLOCK_CELLS
        theta = params_from_conditions_array(self.N[:, None], self.P[None, :], 1.0, self.K)
        nu_l, half = theta[..., 1].ravel(), 0.5 * theta[..., 3].ravel()
        reach = np.maximum(np.abs(cfg.fit_lo - nu_l), np.abs(cfg.fit_hi - nu_l))
        depth = np.maximum(np.ceil(np.log2(reach / half)), 0)  # least K with 2^K >= |u|
        for s in range(0, depth.size, fisher._BLOCK_CELLS):
            assert np.unique(depth[s : s + fisher._BLOCK_CELLS]).size >= 3
        for xi2 in (1.0, 0.55):
            theta = params_from_conditions_array(self.N[:, None], self.P[None, :], xi2, self.K)
            assert not fisher._closed_rows(theta.reshape(-1, 4), cfg.fit_lo, cfg.fit_hi)[0].any()
        nan_cells = np.isnan(scan_grid(self.N, self.P, self.K, cfg).surfaces).sum()
        assert nan_cells == 4 * self.P.size  # the n = 0 row only


class TestFindOptimum:
    def test_single_cell_grid(self):
        sg = scan_grid(
            np.array([4e12]), np.array([2e-3]), REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION
        )
        opt = find_optimum(sg, 2)
        assert opt == OptimumReport(
            param_index=2,
            n_opt=4e12,
            p_opt=2e-3,
            gamma_min=float(sg.surface(2)[0, 0]),
            interior=False,
        )

    def test_monotone_surface_lands_on_boundary(self):
        sg = scan_grid(N_SMALL, P_SMALL, no_broadening_instrument(), REFERENCE_ACQUISITION)
        opt = find_optimum(sg, 2)
        assert not opt.interior
        assert opt.n_opt == N_SMALL[-1] and opt.p_opt == P_SMALL[-1]

    def test_reference_line_parameters_have_interior_minima(self):
        sg = scan_grid(
            np.linspace(1e12, 2e13, 12),
            np.linspace(0.5e-3, 15e-3, 12),
            REFERENCE_INSTRUMENT,
            REFERENCE_ACQUISITION,
        )
        for idx in (2, 4):
            opt = find_optimum(sg, idx)
            assert opt.interior, idx
            assert opt.gamma_min == np.nanmin(sg.surface(idx))

    def test_constant_surface_ties_break_low(self):
        sg = ScanGrid(
            n_values=np.array([1.0, 2.0, 3.0]),
            p_values=np.array([1.0, 2.0]),
            xi2=1.0,
            surfaces=np.ones((4, 3, 2)),
        )
        opt = find_optimum(sg, 3)
        assert (opt.n_opt, opt.p_opt) == (1.0, 1.0)

    def test_all_nan_surface_rejected(self):
        sg = ScanGrid(
            n_values=np.array([1.0, 2.0]),
            p_values=np.array([1.0, 2.0]),
            xi2=1.0,
            surfaces=np.full((4, 2, 2), np.nan),
        )
        with pytest.raises(NumericalError):
            find_optimum(sg, 1)

    def test_bad_index_rejected(self):
        sg = scan_grid(
            np.array([4e12]), np.array([2e-3]), REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION
        )
        with pytest.raises(ConfigError):
            find_optimum(sg, 0)


def test_center_variance_diverges_at_power_edges():
    # with beta > 0 the SNR dies at P -> 0 and broadening blows up at large P,
    # so on a wide enough grid both boundary columns tower over the minimum
    sg = scan_grid(
        np.linspace(1e12, 2e13, 8),
        np.geomspace(0.01e-3, 200e-3, 21),
        REFERENCE_INSTRUMENT,
        REFERENCE_ACQUISITION,
    )
    g22 = sg.surface(2)
    interior_min = np.nanmin(g22)
    assert np.nanmin(g22[:, 0]) >= 10 * interior_min
    assert np.nanmin(g22[:, -1]) >= 10 * interior_min


class TestSqueezingGain:
    C = ExperimentConditions(n=7.65e12, p=3e-3)

    def test_equal_factors_give_unit_ratios(self):
        r = squeezing_gain(self.C, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 0.7, 0.7)
        np.testing.assert_allclose(r, 1.0, rtol=1e-14)

    def test_squeezing_improves_line_parameters(self):
        r = squeezing_gain(self.C, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 1.0, 0.55)
        assert r[1] < 1.0 and r[3] < 1.0

    def test_reference_linewidth_ratio(self):
        # frozen regression for the shipped calibration at the bench point
        r = squeezing_gain(self.C, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 1.0, 0.55)
        assert r[3] == pytest.approx(0.61, abs=0.1)

    def test_argmin_shifts_to_lower_power(self):
        p_line = np.linspace(0.5e-3, 15e-3, 30)
        n_line = np.array([7.65e12])
        coherent = scan_grid(
            n_line, p_line, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, xi2=1.0
        ).surface(4)[0]
        squeezed = scan_grid(
            n_line, p_line, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, xi2=0.55
        ).surface(4)[0]
        assert p_line[np.nanargmin(squeezed)] <= p_line[np.nanargmin(coherent)]

    @pytest.mark.parametrize("xi2_a, xi2_b", [(1.0, 0.55), (0.55, 1.0)])
    def test_equals_two_one_cell_scans_bit_for_bit(self, xi2_a, xi2_b):
        # the two-row stack call keeps each 1x1 scan_grid cell's bits
        r = squeezing_gain(self.C, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, xi2_a, xi2_b)
        a, b = (
            scan_grid([self.C.n], [self.C.p], REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, xi2)
            .surfaces[:, 0, 0]
            for xi2 in (xi2_a, xi2_b)
        )
        np.testing.assert_array_equal(r, b / a)

    @pytest.mark.parametrize("xi2", [-0.5, np.inf, np.nan])
    def test_rejects_nonfinite_factors(self, xi2):
        with pytest.raises(ConfigError, match="squeezing factor"):
            squeezing_gain(self.C, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 1.0, xi2)

    def test_rejects_nonpositive_factors(self):
        with pytest.raises(ConfigError):
            squeezing_gain(self.C, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 0.0, 0.5)

    def test_singular_point_names_its_factor(self):
        no_atoms = ExperimentConditions(n=0.0, p=3e-3)
        with pytest.raises(NumericalError, match=r"singular at xi2 = 0\.7$"):
            squeezing_gain(no_atoms, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 0.7, 0.55)

    def test_singular_point_reported(self):
        no_atoms = ExperimentConditions(n=0.0, p=3e-3)
        with pytest.raises(NumericalError):
            squeezing_gain(no_atoms, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION, 1.0, 0.55)
