"""Spectral model: parameter validation, PSD evaluation, gradients, forward map."""

import math

import numpy as np
import pytest

from snspec.errors import NumericalError
from snspec.model import (
    ExperimentConditions,
    InstrumentConstants,
    SpectralParams,
    eval_psd,
    grad_log_psd,
    params_from_conditions,
)

V = SpectralParams(s_ph=1.2, nu_l=42600.0, s_at=4.8, delta_nu=1500.0)


def simple_instrument(**overrides):
    base = dict(
        g=1e6,
        q=1.6e-19,
        eta=1.0,
        e_ph=2.49e-19,
        kappa2=1e-24,
        a_eff=0.054,
        l_cell=3.0,
        isotope_fraction=0.72,
        gamma0=math.pi * 500.0,  # delta_nu = 500 Hz with alpha = beta = 0
        nu_l_fixed=42600.0,
    )
    base.update(overrides)
    return InstrumentConstants(**base)


class TestSpectralParams:
    def test_round_trip_through_array(self):
        assert SpectralParams.from_array(V.as_array()) == V

    def test_array_order_is_sph_nul_sat_deltanu(self):
        np.testing.assert_array_equal(V.as_array(), [1.2, 42600.0, 4.8, 1500.0])

    @pytest.mark.parametrize(
        "kw",
        [
            dict(s_ph=0.0),
            dict(s_ph=-1.0),
            dict(s_ph=math.nan),
            dict(nu_l=math.inf),
            dict(s_at=-0.1),
            dict(delta_nu=0.0),
            dict(delta_nu=-5.0),
        ],
    )
    def test_invalid_fields_rejected(self, kw):
        fields = dict(s_ph=1.0, nu_l=42600.0, s_at=4.0, delta_nu=500.0)
        fields.update(kw)
        with pytest.raises(ValueError):
            SpectralParams(**fields)

    def test_zero_peak_allowed(self):
        SpectralParams(s_ph=1.0, nu_l=0.0, s_at=0.0, delta_nu=1.0)

    def test_from_array_wrong_shape(self):
        with pytest.raises(ValueError):
            SpectralParams.from_array([1.0, 2.0, 3.0])


class TestConditionsAndConstants:
    def test_zero_density_allowed(self):
        ExperimentConditions(n=0.0, p=1e-3)

    @pytest.mark.parametrize(
        "kw", [dict(n=-1.0), dict(p=0.0), dict(p=-2e-3), dict(xi2=0.0), dict(xi2=-0.5)]
    )
    def test_invalid_conditions_rejected(self, kw):
        fields = dict(n=1e12, p=2e-3, xi2=1.0)
        fields.update(kw)
        with pytest.raises(ValueError):
            ExperimentConditions(**fields)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(g=0.0),
            dict(q=-1e-19),
            dict(eta=0.0),
            dict(eta=1.5),
            dict(isotope_fraction=0.0),
            dict(isotope_fraction=1.2),
            dict(gamma0=0.0),
            dict(alpha=-1.0),
            dict(beta=-1.0),
        ],
    )
    def test_invalid_constants_rejected(self, kw):
        with pytest.raises(ValueError):
            simple_instrument(**kw)

    def test_broadening_coefficients_default_to_zero(self):
        k = simple_instrument()
        assert k.alpha == 0.0 and k.beta == 0.0


class TestEvalPsd:
    def test_peak_value_is_background_plus_height(self):
        assert eval_psd(V, V.nu_l) == pytest.approx(V.s_ph + V.s_at, rel=1e-15)

    def test_half_maximum_at_half_width(self):
        # at nu_l +/- delta_nu/2 the Lorentzian term is s_at/2 by definition of FWHM
        for sign in (-1.0, 1.0):
            f = eval_psd(V, V.nu_l + sign * V.delta_nu / 2)
            assert f == pytest.approx(V.s_ph + V.s_at / 2, rel=1e-12)

    def test_far_wings_approach_background(self):
        f = eval_psd(V, V.nu_l + 1e4 * V.delta_nu)
        assert abs(f - V.s_ph) < 1e-7 * V.s_at

    def test_scalar_in_scalar_out(self):
        out = eval_psd(V, 40000.0)
        assert isinstance(out, float)

    def test_array_shape_preserved(self):
        nu = np.linspace(33e3, 52e3, 7).reshape(7, 1)
        assert eval_psd(V, nu).shape == (7, 1)

    def test_flat_when_no_peak(self):
        flat = SpectralParams(s_ph=2.5, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        nu = np.linspace(1e3, 1e5, 11)
        np.testing.assert_allclose(eval_psd(flat, nu), 2.5)


class TestGradLogPsd:
    def test_shape(self):
        nu = np.linspace(33e3, 52e3, 13)
        assert grad_log_psd(V, nu).shape == (13, 4)
        assert grad_log_psd(V, 40000.0).shape == (4,)

    def test_matches_finite_differences(self):
        nu = np.linspace(33e3, 52e3, 25)
        g = grad_log_psd(V, nu)
        v0 = V.as_array()
        for j in range(4):
            h = 1e-6 * abs(v0[j]) if v0[j] != 0 else 1e-6
            vp, vm = v0.copy(), v0.copy()
            vp[j] += h
            vm[j] -= h
            fd = (
                np.log(eval_psd(SpectralParams.from_array(vp), nu))
                - np.log(eval_psd(SpectralParams.from_array(vm), nu))
            ) / (2 * h)
            np.testing.assert_allclose(g[:, j], fd, rtol=5e-6, atol=1e-12)

    def test_center_and_width_components_vanish_on_resonance(self):
        g = grad_log_psd(V, V.nu_l)
        assert g[1] == 0.0 and g[3] == 0.0

    def test_line_components_vanish_without_peak(self):
        flat = SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.0, delta_nu=500.0)
        g = grad_log_psd(flat, np.linspace(33e3, 52e3, 9))
        np.testing.assert_array_equal(g[:, 1], 0.0)
        np.testing.assert_array_equal(g[:, 3], 0.0)
        np.testing.assert_array_equal(g[:, 0], 1.0)  # d ln f / d s_ph = 1/f = 1

    def test_background_component_is_inverse_psd(self):
        nu = np.linspace(33e3, 52e3, 9)
        np.testing.assert_allclose(
            grad_log_psd(V, nu)[:, 0], 1.0 / eval_psd(V, nu), rtol=1e-15
        )


class TestParameterStacks:
    ROWS = [
        V,
        SpectralParams(s_ph=1.0, nu_l=42600.0, s_at=0.05, delta_nu=1000.0),
        SpectralParams(s_ph=3e-3, nu_l=40123.5, s_at=7e4, delta_nu=1e-3),
        SpectralParams(s_ph=2.0, nu_l=50000.0, s_at=0.0, delta_nu=20.0),
    ]

    def test_spectral_params_is_its_array(self):
        np.testing.assert_array_equal(np.asarray(V), V.as_array(), strict=True)

    @pytest.mark.parametrize("fn", [eval_psd, grad_log_psd], ids=["eval_psd", "grad_log_psd"])
    def test_stack_with_frequency_rows_equals_each_row_alone(self, fn):
        # one (m, 4) stack against an (m, K) frequency block: row i of the
        # result has the bits of the SpectralParams call on row i of nu
        theta = np.array([v.as_array() for v in self.ROWS])
        nu = np.linspace(33e3, 52e3, 4 * 11).reshape(4, 11) + np.arange(4)[:, None] * 17.25
        got = fn(theta[:, None, :], nu)
        assert got.shape[:2] == (4, 11)
        for i, v in enumerate(self.ROWS):
            np.testing.assert_array_equal(got[i], fn(v, nu[i]), strict=True)

    def test_stack_with_scalar_frequency(self):
        theta = np.array([v.as_array() for v in self.ROWS])
        np.testing.assert_array_equal(eval_psd(theta, 42000.0), [eval_psd(v, 42000.0) for v in self.ROWS])
        np.testing.assert_array_equal(grad_log_psd(theta, 42000.0), [grad_log_psd(v, 42000.0) for v in self.ROWS])




class TestForwardModel:
    def test_background_level_frozen_value(self):
        # 2 g^2 q (eta q / e_ph) P in V^2/Hz, converted to uV^2/Hz
        v = params_from_conditions(
            ExperimentConditions(n=1e12, p=2e-3, xi2=1.0), simple_instrument()
        )
        assert v.s_ph == pytest.approx(411.2449799196787, rel=1e-12)

    def test_peak_height_frozen_value(self):
        v = params_from_conditions(
            ExperimentConditions(n=1e12, p=2e-3, xi2=1.0), simple_instrument()
        )
        assert v.s_at == pytest.approx(981.112668181863, rel=1e-12)
        assert v.delta_nu == pytest.approx(500.0, rel=1e-15)
        assert v.nu_l == 42600.0

    def test_squeezing_scales_background_only(self):
        c1 = ExperimentConditions(n=1e12, p=2e-3, xi2=1.0)
        c2 = ExperimentConditions(n=1e12, p=2e-3, xi2=0.25)
        k = simple_instrument()
        v1, v2 = params_from_conditions(c1, k), params_from_conditions(c2, k)
        assert v2.s_ph == pytest.approx(0.25 * v1.s_ph, rel=1e-14)
        assert v2.s_at == v1.s_at
        assert v2.delta_nu == v1.delta_nu

    def test_peak_area_independent_of_broadening_split(self):
        # s_at * delta_nu depends on the total relaxation rate, not on how it
        # divides among residual, density, and power contributions
        c = ExperimentConditions(n=2e12, p=3e-3)
        total = math.pi * 800.0
        k_res = simple_instrument(gamma0=total)
        k_mix = simple_instrument(
            gamma0=total - 1e-10 * c.n - 1e4 * c.p, alpha=1e-10, beta=1e4
        )
        v_res = params_from_conditions(c, k_res)
        v_mix = params_from_conditions(c, k_mix)
        assert v_res.delta_nu == pytest.approx(v_mix.delta_nu, rel=1e-12)
        assert v_res.s_at * v_res.delta_nu == pytest.approx(
            v_mix.s_at * v_mix.delta_nu, rel=1e-12
        )

    def test_zero_density_gives_flat_spectrum(self):
        v = params_from_conditions(
            ExperimentConditions(n=0.0, p=2e-3), simple_instrument()
        )
        assert v.s_at == 0.0
        assert v.s_ph > 0

    def test_linewidth_grows_with_density_and_power(self):
        k = simple_instrument(alpha=2e-10, beta=5e5)
        v00 = params_from_conditions(ExperimentConditions(n=1e12, p=1e-3), k)
        v10 = params_from_conditions(ExperimentConditions(n=5e12, p=1e-3), k)
        v01 = params_from_conditions(ExperimentConditions(n=1e12, p=5e-3), k)
        assert v10.delta_nu > v00.delta_nu
        assert v01.delta_nu > v00.delta_nu

    def test_background_linear_in_power(self):
        k = simple_instrument()
        v1 = params_from_conditions(ExperimentConditions(n=1e12, p=1e-3), k)
        v4 = params_from_conditions(ExperimentConditions(n=1e12, p=4e-3), k)
        assert v4.s_ph == pytest.approx(4 * v1.s_ph, rel=1e-14)

    def test_peak_quadratic_in_power_at_fixed_width(self):
        k = simple_instrument()  # beta = 0 so delta_nu is power independent
        v1 = params_from_conditions(ExperimentConditions(n=1e12, p=1e-3), k)
        v3 = params_from_conditions(ExperimentConditions(n=1e12, p=3e-3), k)
        assert v3.s_at == pytest.approx(9 * v1.s_at, rel=1e-14)
