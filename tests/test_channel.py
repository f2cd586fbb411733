"""Feeder and inter-satellite link budgets."""
import math

import numpy as np
import pytest

from meoflow.channel import (
    BOLTZMANN_J_PER_K,
    RAIN_CLASS_RATES_MM_H,
    FeederLinkParams,
    IslParams,
    RainModelParams,
    db_to_linear,
    fl_capacity_bps,
    fl_cnr_db,
    fspl_db,
    isl_capacity_bps,
    isl_received_power_w,
    linear_to_db,
    rain_attenuation_db,
    shannon_capacity_bps,
    specific_attenuation_db_km,
)

# rain geometry used by the bundled scenarios (thinner layer than the
# model default, chosen together with the class rates)
CALIBRATED_RAIN = RainModelParams(rain_height_km=2.0)


def test_db_round_trip():
    for db in (-35.5, 0.0, 8.8, 49.7, 228.6):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


class TestRain:
    def test_specific_attenuation_zero_rate(self):
        assert specific_attenuation_db_km(0.0, RainModelParams()) == 0.0

    def test_specific_attenuation_fifty(self):
        # a * 50^b with the 20 GHz horizontal coefficients
        got = specific_attenuation_db_km(50.0, RainModelParams())
        assert got == pytest.approx(5.7221, abs=1e-3)

    def test_specific_attenuation_monotone_in_rate(self):
        p = RainModelParams()
        rates = np.linspace(0.0, 50.0, 101)
        vals = [specific_attenuation_db_km(float(r), p) for r in rates]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_attenuation_zero_rate_and_bad_elevation(self):
        assert rain_attenuation_db(45.0, 0.0, RainModelParams()) == 0.0
        with pytest.raises(ValueError):
            rain_attenuation_db(0.0, 10.0, RainModelParams())
        with pytest.raises(ValueError):
            rain_attenuation_db(-5.0, 10.0, RainModelParams())

    def test_site_above_layer(self):
        p = RainModelParams(rain_height_km=2.0)
        assert rain_attenuation_db(30.0, 20.0, p, gs_altitude_km=2.5) == 0.0

    def test_calibrated_class_curves(self):
        # frozen from the closed-form layer model at the calibrated rates
        heavy = RAIN_CLASS_RATES_MM_H["heavy"]
        moderate = RAIN_CLASS_RATES_MM_H["moderate"]
        light = RAIN_CLASS_RATES_MM_H["light"]
        assert rain_attenuation_db(8.0, heavy, CALIBRATED_RAIN) == pytest.approx(16.7546, abs=1e-3)
        assert rain_attenuation_db(80.0, heavy, CALIBRATED_RAIN) == pytest.approx(3.5549, abs=1e-3)
        assert rain_attenuation_db(80.0, moderate, CALIBRATED_RAIN) == pytest.approx(1.9861, abs=1e-3)
        assert rain_attenuation_db(80.0, light, CALIBRATED_RAIN) == pytest.approx(1.0087, abs=1e-3)

    def test_non_increasing_in_elevation(self):
        for rate in (1.0, 5.0, 9.5, 16.5, 40.0):
            for params in (RainModelParams(), CALIBRATED_RAIN):
                grid = np.arange(5.0, 90.0 + 0.5, 1.0)
                vals = [rain_attenuation_db(float(e), rate, params) for e in grid]
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_increasing_in_rain_rate(self):
        rng = np.random.RandomState(3)
        for _ in range(200):
            el = float(rng.uniform(5.0, 90.0))
            r1 = float(rng.uniform(0.1, 49.0))
            r2 = r1 + float(rng.uniform(0.01, 1.0))
            p = RainModelParams(rain_height_km=float(rng.uniform(1.0, 5.0)))
            assert rain_attenuation_db(el, r2, p) > rain_attenuation_db(el, r1, p)

    def test_altitude_thins_the_layer(self):
        p = CALIBRATED_RAIN
        a0 = rain_attenuation_db(30.0, 16.5, p, gs_altitude_km=0.0)
        a1 = rain_attenuation_db(30.0, 16.5, p, gs_altitude_km=0.52)
        assert a1 < a0


class TestFeederLink:
    def test_fspl_golden(self):
        assert fspl_db(8000.0, 20e9) == pytest.approx(196.530, abs=1e-3)

    def test_fspl_six_db_per_doubling(self):
        for d in (1000.0, 8062.0):
            assert fspl_db(2 * d, 20e9) - fspl_db(d, 20e9) == pytest.approx(20 * math.log10(2), abs=1e-12)

    def test_clear_sky_cnr_golden(self):
        # EIRP 49.7 - FSPL + G/T 7 - 10log10(kB) - 10log10(100 MHz)
        cnr = fl_cnr_db(8000.0, 90.0, 0.0, FeederLinkParams(), RainModelParams())
        assert cnr == pytest.approx(8.769, abs=1e-3)

    def test_rain_subtracts_exactly_its_attenuation(self):
        fl, rm = FeederLinkParams(), CALIBRATED_RAIN
        clear = fl_cnr_db(9000.0, 40.0, 0.0, fl, rm)
        rainy = fl_cnr_db(9000.0, 40.0, 16.5, fl, rm)
        assert clear - rainy == pytest.approx(rain_attenuation_db(40.0, 16.5, rm), abs=1e-9)

    def test_shadowing_loss_linear_in_db(self):
        base = fl_cnr_db(8000.0, 50.0, 0.0, FeederLinkParams(), RainModelParams())
        shadowed = fl_cnr_db(8000.0, 50.0, 0.0, FeederLinkParams(shadowing_loss_db=2.5), RainModelParams())
        assert base - shadowed == pytest.approx(2.5, abs=1e-9)

    def test_cnr_decreasing_in_distance_and_rate(self):
        fl, rm = FeederLinkParams(), CALIBRATED_RAIN
        rng = np.random.RandomState(5)
        for _ in range(200):
            d = float(rng.uniform(8062.0, 13000.0))
            el = float(rng.uniform(5.0, 90.0))
            r = float(rng.uniform(0.0, 40.0))
            assert fl_cnr_db(d + 50.0, el, r, fl, rm) < fl_cnr_db(d, el, r, fl, rm)
            assert fl_cnr_db(d, el, r + 0.5, fl, rm) < fl_cnr_db(d, el, r, fl, rm)


class TestShannon:
    def test_zero_cnr_zero_capacity(self):
        assert shannon_capacity_bps(0.0, 100e6) == 0.0

    def test_unit_cnr_one_bit_per_hz(self):
        assert shannon_capacity_bps(1.0, 100e6) == pytest.approx(100e6, rel=1e-12)

    def test_golden_310_mbps(self):
        got = shannon_capacity_bps(db_to_linear(8.8), 100e6)
        assert got == pytest.approx(310.195e6, rel=1e-4)

    def test_fl_capacity_composition(self):
        fl, rm = FeederLinkParams(), RainModelParams()
        cnr = fl_cnr_db(8000.0, 90.0, 0.0, fl, rm)
        assert fl_capacity_bps(8000.0, 90.0, 0.0, fl, rm) == pytest.approx(
            shannon_capacity_bps(db_to_linear(cnr), fl.bandwidth_hz), rel=1e-12
        )


class TestIsl:
    def test_tx_gain_golden(self):
        # 16 / Theta^2 at 15 urad divergence
        g = IslParams().tx_gain
        assert linear_to_db(g) == pytest.approx(108.519, abs=1e-3)

    def test_rx_gain_golden(self):
        # (D pi / lambda)^2 at 80 mm / 1550 nm
        g = IslParams().rx_gain
        assert linear_to_db(g) == pytest.approx(104.198, abs=1e-3)

    def test_pointing_loss_bounds_and_value(self):
        p = IslParams()
        l_tx = math.exp(-p.tx_gain * p.tx_pointing_error_rad**2)
        assert 0.0 < l_tx <= 1.0
        assert linear_to_db(l_tx) == pytest.approx(-0.3088, abs=1e-3)
        # zero jitter means no loss
        q = IslParams(tx_pointing_error_rad=0.0, rx_pointing_error_rad=0.0)
        assert isl_received_power_w(14433.0, q) > isl_received_power_w(14433.0, p)

    def test_received_power_golden(self):
        # 5 W across the K=6 ring chord
        p_rx = isl_received_power_w(14433.1, IslParams())
        assert linear_to_db(p_rx * 1e3) == pytest.approx(-34.019, abs=2e-3)

    def test_received_power_inverse_square(self):
        p = IslParams()
        assert isl_received_power_w(2 * 14433.0, p) == pytest.approx(isl_received_power_w(14433.0, p) / 4.0, rel=1e-12)

    def test_override_mode_ignores_distance(self):
        p = IslParams(fixed_capacity_override_bps=600e6)
        assert isl_capacity_bps(1000.0, p) == 600e6
        assert isl_capacity_bps(30000.0, p) == 600e6

    def test_sensitivity_cutoff(self):
        p = IslParams()
        # ring chord is above sensitivity, the K=3 chord (~25,000 km) is not
        assert isl_capacity_bps(14433.0, p) > 0.0
        assert isl_capacity_bps(25000.0, p) == 0.0

    def test_physical_mode_composition(self):
        p = IslParams()
        c = isl_capacity_bps(14433.0, p)
        expected = shannon_capacity_bps(isl_received_power_w(14433.0, p) / p.noise_power_w, p.bandwidth_hz)
        assert c == pytest.approx(expected, rel=1e-12)

    def test_friis_factorization(self):
        # doubling tx power doubles rx power; efficiency scales linearly
        p = IslParams()
        double = IslParams(tx_power_w=10.0)
        assert isl_received_power_w(14433.0, double) == pytest.approx(2 * isl_received_power_w(14433.0, p), rel=1e-12)
        half_eta = IslParams(tx_efficiency=0.4)
        assert isl_received_power_w(14433.0, half_eta) == pytest.approx(
            isl_received_power_w(14433.0, p) / 2.0, rel=1e-12
        )


def test_boltzmann_term_close_to_228_6():
    assert -10 * math.log10(BOLTZMANN_J_PER_K) == pytest.approx(228.599, abs=1e-3)
