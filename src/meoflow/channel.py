"""Link budgets: Ka-band feeder downlink with rain fading, optical ISL.

Feeder-link carrier-to-noise ratio in dB:

    CNR = EIRP - FSPL - L_sf - L_rain + G/T - 10 log10(k_B) - 10 log10(B)

with FSPL = 20 log10(4 pi d / lambda).  Rain attenuation follows the
power-law specific attenuation gamma = a * rho^b (coefficients for a
20 GHz horizontally polarized carrier) over an effective path through a
flat rain layer: slant length (rain_height - site_altitude)/sin(el)
scaled by the horizontal reduction factor 1/(1 + L_G / (35 e^{-0.015 rho})).

The optical inter-satellite link multiplies transmit power, optics
efficiencies, gains, pointing losses and free-space loss:

    P_rx = P_tx * eta_tx * eta_rx * G_tx * G_rx * L_tx * L_rx * (lambda / 4 pi d)^2

with G_tx = 16/Theta^2 (divergence Theta), G_rx = (D pi / lambda)^2
(aperture D) and pointing loss L = exp(-G * phi^2) for jitter phi.
Capacity is Shannon: B log2(1 + CNR).

The feeder and ISL budgets take plain floats or equal-shape arrays of
links.  On arrays, + - * / run in numpy in the scalar code's operation
order, while log10, powers and log2 still go through libm one entry at a
time (numpy's SIMD versions differ from libm in the last bit on some
inputs), so an array budget is bit-equal to the scalar one, entry by entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from typing import Optional

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
SPEED_OF_LIGHT_M_S = 299792458.0

RAIN_CLASS_RATES_MM_H = {"heavy": 16.5, "moderate": 9.5, "light": 5.0}
"""Calibrated rain rates for the three bundled weather classes.

Chosen together with the bundled scenarios' 2.0 km rain layer so the
heavy curve exceeds 16 dB at 8 deg elevation while all three curves land
on ~3 / ~2 / ~1 dB at 80 deg."""

MAX_RAIN_RATE_MM_H = 2000.0
"""Above the heaviest rain ever measured (about 1,900 mm/h over one minute)."""


def _check_ranges(params, **ranges) -> None:
    """Raise ValueError for the first field outside its closed range (low, high).

    The link-budget ranges are wide enough for any physical link and narrow
    enough that every budget stays finite on any link of a metre or more.
    """
    for name, (low, high) in ranges.items():
        if not low <= getattr(params, name) <= high:
            raise ValueError(f"{name} must be in [{low:g}, {high:g}]")


@dataclass(frozen=True)
class FeederLinkParams:
    """RF downlink budget inputs (satellite -> ground station).

    Defaults describe a 20 GHz, 100 MHz channel with 49.7 dBW EIRP
    received at G/T = 7 dB/K; the receive side enters the budget only
    through that figure of merit.
    """

    carrier_frequency_hz: float = 20e9
    bandwidth_hz: float = 100e6
    eirp_dbw: float = 49.7
    rx_figure_of_merit_db_k: float = 7.0
    shadowing_loss_db: float = 0.0

    def __post_init__(self):
        db = (-300.0, 300.0)
        _check_ranges(
            self, carrier_frequency_hz=(3e3, 3e12), bandwidth_hz=(1.0, 3e12), eirp_dbw=db,
            rx_figure_of_merit_db_k=db, shadowing_loss_db=(0.0, db[1]),
        )  # the radio spectrum; 10**(CNR/10) stays finite


@dataclass(frozen=True)
class RainModelParams:
    """Power-law rain attenuation model.

    coeff_a/coeff_b: specific-attenuation coefficients (dB/km per (mm/h)^b).
    rain_height_km: top of the flat rain layer.
    reduction_length_scale_km: horizontal reduction length L_0 at rho = 0;
        the effective length is reduction_length_scale_km * e^{-0.015 rho}.
    """

    coeff_a: float = 0.09164
    coeff_b: float = 1.0568
    rain_height_km: float = 3.0
    reduction_length_scale_km: float = 35.0

    def __post_init__(self):
        if self.coeff_a <= 0 or self.coeff_b <= 0 or self.rain_height_km <= 0:
            raise ValueError("coeff_a, coeff_b and rain_height_km must be > 0")
        _check_ranges(
            self, coeff_a=(0.0, 100.0), coeff_b=(0.0, 10.0), rain_height_km=(0.0, 100.0),
            reduction_length_scale_km=(1e-3, math.inf),
        )  # rate**coeff_b and the path through the layer stay finite


@dataclass(frozen=True)
class RainEvent:
    """Constant-rate rain at one station over a half-open time interval."""

    station_id: str
    start: datetime
    end: datetime
    rain_rate_mm_h: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("rain event end must be after start")
        if not 0.0 <= self.rain_rate_mm_h <= MAX_RAIN_RATE_MM_H:
            raise ValueError(f"rain_rate_mm_h must be in [0, {MAX_RAIN_RATE_MM_H:g}]")

    def active_at(self, time: datetime) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class IslParams:
    """Optical inter-satellite link budget inputs.

    With `fixed_capacity_override_bps` set (the default operating mode for
    the bundled scenarios) the physical budget is bypassed and every ISL
    carries that constant capacity.  Otherwise the received power is run
    through the Shannon formula against `noise_power_w` over
    `bandwidth_hz`, and drops to zero capacity below `sensitivity_dbm`.
    """

    wavelength_m: float = 1550e-9
    tx_power_w: float = 5.0
    tx_efficiency: float = 0.8
    rx_efficiency: float = 0.8
    aperture_diameter_m: float = 0.08
    tx_pointing_error_rad: float = 1e-6
    rx_pointing_error_rad: float = 1e-6
    beam_divergence_rad: float = 15e-6
    sensitivity_dbm: float = -35.5
    bandwidth_hz: float = 1e9
    noise_power_w: float = 4e-9
    fixed_capacity_override_bps: Optional[float] = None

    def __post_init__(self):
        if self.tx_power_w <= 0 or self.aperture_diameter_m <= 0:
            raise ValueError("tx_power_w and aperture_diameter_m must be > 0")
        if not 0 < self.tx_efficiency <= 1 or not 0 < self.rx_efficiency <= 1:
            raise ValueError("efficiencies must be in (0, 1]")
        if self.bandwidth_hz <= 0 or self.noise_power_w <= 0:
            raise ValueError("bandwidth_hz and noise_power_w must be > 0")
        if self.fixed_capacity_override_bps is not None and self.fixed_capacity_override_bps < 0:
            raise ValueError("fixed_capacity_override_bps must be >= 0")
        _check_ranges(
            self, wavelength_m=(1e-7, 1e-3), tx_power_w=(0.0, 1e6), aperture_diameter_m=(0.0, 100.0),
            beam_divergence_rad=(1e-9, 1.0), tx_pointing_error_rad=(0.0, 1.0), rx_pointing_error_rad=(0.0, 1.0),
            sensitivity_dbm=(-300.0, 300.0), bandwidth_hz=(0.0, 3e15), noise_power_w=(1e-30, math.inf),
        )  # gains, powers and the Shannon capacity stay finite

    @property
    def tx_gain(self) -> float:
        return 16.0 / self.beam_divergence_rad**2

    @property
    def rx_gain(self) -> float:
        return (self.aperture_diameter_m * math.pi / self.wavelength_m) ** 2


def _libm(f, x):
    """f(x) through libm: a float for a float, entry by entry for an array."""
    if np.ndim(x) == 0:
        return f(x)
    return np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def db_to_linear(db: float) -> float:
    return _libm(partial(math.pow, 10.0), db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ValueError("dB of a non-positive ratio")
    return 10.0 * math.log10(x)


def specific_attenuation_db_km(rain_rate_mm_h: float, params: RainModelParams) -> float:
    """gamma = a * rho^b, dB/km; 0 for rho = 0."""
    if rain_rate_mm_h < 0:
        raise ValueError("rain_rate_mm_h must be >= 0")
    if rain_rate_mm_h == 0.0:
        return 0.0
    return params.coeff_a * rain_rate_mm_h**params.coeff_b


def rain_attenuation_db(
    elevation_deg: float,
    rain_rate_mm_h: float,
    params: RainModelParams,
    gs_altitude_km: float = 0.0,
) -> float:
    """Path attenuation through the rain layer, dB.

    Effective path = slant length through the layer times the horizontal
    reduction factor.  The reduction-factor geometry is clamped at
    el* = atan(L_0 / layer thickness): above el* the literal formula would
    turn back up by a fraction of a percent, so the curve is held at its
    el* value to keep attenuation non-increasing in elevation all the way
    to zenith.

    Raises ValueError for elevation <= 0 (no path through the layer).
    """
    if elevation_deg <= 0.0:
        raise ValueError("elevation_deg must be > 0")
    if rain_rate_mm_h < 0:
        raise ValueError("rain_rate_mm_h must be >= 0")
    if rain_rate_mm_h == 0.0:
        return 0.0
    thickness = params.rain_height_km - gs_altitude_km
    if thickness <= 0.0:
        return 0.0  # site above the rain layer
    gamma = specific_attenuation_db_km(rain_rate_mm_h, params)
    scale = params.reduction_length_scale_km * math.exp(-0.015 * rain_rate_mm_h)
    el_star = math.degrees(math.atan(scale / thickness))
    el = math.radians(min(elevation_deg, el_star))
    slant = thickness / math.sin(el)
    horizontal = slant * math.cos(el)
    reduction = 1.0 / (1.0 + horizontal / scale)
    return slant * reduction * gamma


def fspl_db(distance_km: float, frequency_hz: float) -> float:
    """Free-space path loss 20 log10(4 pi d / lambda), dB."""
    if np.any(distance_km <= 0) or frequency_hz <= 0:
        raise ValueError("distance and frequency must be > 0")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    return 20.0 * _libm(math.log10, 4.0 * math.pi * distance_km * 1e3 / wavelength)


def fl_cnr_db(
    distance_km: float,
    elevation_deg: float,
    rain_rate_mm_h: float,
    params: FeederLinkParams,
    rain: RainModelParams,
    gs_altitude_km: float = 0.0,
) -> float:
    """Feeder downlink carrier-to-noise ratio, dB.

    On arrays, the rain attenuation of the wet links goes through the scalar
    `rain_attenuation_db`, one link at a time.
    """
    loss = fspl_db(distance_km, params.carrier_frequency_hz) + params.shadowing_loss_db
    if np.ndim(loss):
        wet = np.flatnonzero(rain_rate_mm_h > 0.0)
        columns = (elevation_deg[wet].tolist(), rain_rate_mm_h[wet].tolist(), gs_altitude_km[wet].tolist())
        loss[wet] += [rain_attenuation_db(el, rate, rain, alt) for el, rate, alt in zip(*columns)]
    elif rain_rate_mm_h > 0.0:
        loss += rain_attenuation_db(elevation_deg, rain_rate_mm_h, rain, gs_altitude_km)
    return (
        params.eirp_dbw
        - loss
        + params.rx_figure_of_merit_db_k
        - 10.0 * math.log10(BOLTZMANN_J_PER_K)
        - 10.0 * math.log10(params.bandwidth_hz)
    )


def shannon_capacity_bps(cnr_linear: float, bandwidth_hz: float) -> float:
    """B log2(1 + CNR), bit/s."""
    if np.any(cnr_linear < 0):
        raise ValueError("cnr_linear must be >= 0")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be > 0")
    return bandwidth_hz * _libm(math.log2, 1.0 + cnr_linear)


def fl_capacity_bps(
    distance_km: float,
    elevation_deg: float,
    rain_rate_mm_h: float,
    params: FeederLinkParams,
    rain: RainModelParams,
    gs_altitude_km: float = 0.0,
) -> float:
    """Shannon capacity of one feeder downlink, bit/s."""
    cnr = fl_cnr_db(distance_km, elevation_deg, rain_rate_mm_h, params, rain, gs_altitude_km)
    return shannon_capacity_bps(db_to_linear(cnr), params.bandwidth_hz)


def isl_received_power_w(distance_km: float, params: IslParams) -> float:
    """Optical receive power after gains, pointing losses and spreading, W."""
    if np.any(distance_km <= 0):
        raise ValueError("distance_km must be > 0")
    g_tx = params.tx_gain
    g_rx = params.rx_gain
    l_tx = math.exp(-g_tx * params.tx_pointing_error_rad**2)
    l_rx = math.exp(-g_rx * params.rx_pointing_error_rad**2)
    spreading = _libm(lambda x: x**2, params.wavelength_m / (4.0 * math.pi * distance_km * 1e3))
    return (
        params.tx_power_w
        * params.tx_efficiency
        * params.rx_efficiency
        * g_tx
        * g_rx
        * l_tx
        * l_rx
        * spreading
    )


def isl_capacity_bps(distance_km: float, params: IslParams) -> float:
    """ISL capacity, bit/s: the override if set, else the physical budget.

    In physical mode the link is usable only at or above the receiver
    sensitivity; below it the capacity is 0.
    """
    override = params.fixed_capacity_override_bps
    if override is not None:
        return np.full(np.shape(distance_km), override) if np.ndim(distance_km) else override
    p_rx = isl_received_power_w(distance_km, params)
    sensitivity_w = db_to_linear(params.sensitivity_dbm) / 1e3
    # a bool factor: the capacity is 0.0 below the receiver sensitivity
    return shannon_capacity_bps(p_rx / params.noise_power_w, params.bandwidth_hz) * (p_rx >= sensitivity_w)
