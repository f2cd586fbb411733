"""Orbit propagation and per-slot visibility geometry for a ring constellation.

A single circular ring of satellites is propagated with two-body Keplerian
motion: every satellite moves at the same angular rate on a shell of radius
R_e + h, separated by fixed phase offsets.  The ring is held fixed in the
Earth-fixed frame (Earth rotation is deliberately not modeled), so ground
stations keep constant ECEF coordinates and the geometry repeats exactly
every orbital period.  That keeps the simulation deterministic and closed
under the period while still sweeping every satellite across the whole
ground-station landscape.

Ground stations are placed with a WGS-84 geodetic conversion; visibility
and elevation are computed from the raw ECEF vectors with a spherical
Earth (radius 6371 km) as the occlusion body.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
"""Mean spherical Earth radius used for the orbit shell and occlusion."""

EARTH_MU_KM3_S2 = 398600.4418
"""Gravitational parameter of Earth, km^3/s^2."""

WGS84_A_KM = 6378.137
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)


@dataclass(frozen=True)
class ConstellationSpec:
    """Single-ring constellation definition.

    Attributes:
        satellite_count: number of satellites K (>= 2).
        altitude_km: shell altitude above the spherical Earth.
        phase_offsets_deg: per-satellite in-plane phase at the epoch,
            strictly increasing once normalized to [0, 360).
        epoch: reference time; satellite 0 with phase 0 sits at
            longitude 0 on the shell at this instant.
        inclination_deg: ring plane tilt; 0 is equatorial.
    """

    satellite_count: int
    altitude_km: float
    phase_offsets_deg: tuple[float, ...]
    epoch: datetime
    inclination_deg: float = 0.0

    def __post_init__(self):
        if self.satellite_count < 2:
            raise ValueError("satellite_count must be >= 2")
        if self.altitude_km <= 0:
            raise ValueError("altitude_km must be > 0")
        if self.altitude_km > 1.5e6:
            # past Earth's Hill sphere no orbit is bound to Earth
            raise ValueError("altitude_km must be <= 1.5e6, Earth's Hill sphere")
        if len(self.phase_offsets_deg) != self.satellite_count:
            raise ValueError("phase_offsets_deg length must equal satellite_count")
        norm = [p % 360.0 for p in self.phase_offsets_deg]
        if any(b <= a for a, b in zip(norm, norm[1:])):
            raise ValueError("phase_offsets_deg must be strictly increasing modulo 360")

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def angular_rate_rad_s(self) -> float:
        # circular two-body rate: sqrt(mu / a^3)
        return math.sqrt(EARTH_MU_KM3_S2 / self.orbit_radius_km**3)

    @property
    def orbital_period_s(self) -> float:
        return 2.0 * math.pi / self.angular_rate_rad_s


@dataclass(frozen=True)
class GroundStationSpec:
    """One gateway site.

    Attributes:
        station_id: unique name used in scenarios and outputs.
        latitude_deg / longitude_deg / altitude_m: geodetic position.
        min_elevation_deg: visibility mask, default 5 degrees.
    """

    station_id: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0
    min_elevation_deg: float = 5.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError("latitude_deg must be in [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 360.0:
            raise ValueError("longitude_deg must be in [-180, 360]")
        if self.min_elevation_deg < 0.0:
            raise ValueError("min_elevation_deg must be >= 0")

    def ecef_km(self) -> np.ndarray:
        return geodetic_to_ecef(self.latitude_deg, self.longitude_deg, self.altitude_m)


def propagate(spec: ConstellationSpec, time: "datetime | float") -> np.ndarray:
    """Satellite ECEF positions (K, 3) in km at `time`.

    Each satellite sits at in-plane angle phase_k + n*(t - epoch) on the
    circular shell; the ascending node is pinned to the +x axis so phase 0
    at the epoch means longitude 0.  `time` is a datetime or plain seconds
    since the epoch (floats dodge the microsecond quantization of
    datetime arithmetic).
    """
    dt = (time - spec.epoch).total_seconds() if isinstance(time, datetime) else float(time)
    u = np.radians(np.asarray(spec.phase_offsets_deg, dtype=float)) + spec.angular_rate_rad_s * dt
    inc = math.radians(spec.inclination_deg)
    r = spec.orbit_radius_km
    pos = np.empty((spec.satellite_count, 3))
    pos[:, 0] = r * np.cos(u)
    pos[:, 1] = r * np.sin(u) * math.cos(inc)
    pos[:, 2] = r * np.sin(u) * math.sin(inc)
    return pos


def geodetic_to_ecef(latitude_deg: float, longitude_deg: float, altitude_m: float = 0.0) -> np.ndarray:
    """WGS-84 geodetic coordinates to an ECEF vector in km."""
    lat = math.radians(latitude_deg)
    lon = math.radians(longitude_deg)
    h = altitude_m / 1000.0
    sin_lat = math.sin(lat)
    # prime-vertical radius of curvature
    n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    return np.array(
        [
            (n + h) * math.cos(lat) * math.cos(lon),
            (n + h) * math.cos(lat) * math.sin(lon),
            (n * (1.0 - WGS84_E2) + h) * sin_lat,
        ]
    )


def elevation_angle(sat_ecef_km: np.ndarray, gs_ecef_km: np.ndarray) -> float:
    """Elevation of the satellite above the station's local horizon, degrees.

    Positive above the horizon plane (the plane normal to the station's
    position vector), negative below.
    """
    gs = np.asarray(gs_ecef_km, dtype=float)
    d = np.asarray(sat_ecef_km, dtype=float) - gs
    gs_norm = np.linalg.norm(gs)
    d_norm = np.linalg.norm(d)
    if gs_norm == 0.0 or d_norm == 0.0:
        raise ValueError("positions must be distinct and away from the geocenter")
    s = float(np.dot(d, gs) / (gs_norm * d_norm))
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


@dataclass(frozen=True)
class SlotGeometry:
    """All pairwise geometry for one time slot.

    Arrays are indexed [satellite] or [satellite, station]:
        sat_positions_km: (K, 3) ECEF.
        gs_positions_km: (I, 3) ECEF.
        distances_fl_km: (K, I) slant ranges.
        elevations_deg: (K, I) station-side elevation angles.
        visible: (K, I) elevation >= per-station mask.
        distances_isl_km: (K, K) inter-satellite ranges, 0 on the diagonal.
    """

    slot_index: int
    time: datetime
    sat_positions_km: np.ndarray
    gs_positions_km: np.ndarray
    distances_fl_km: np.ndarray
    elevations_deg: np.ndarray
    visible: np.ndarray
    distances_isl_km: np.ndarray


def slot_geometry(
    spec: ConstellationSpec,
    stations: Sequence[GroundStationSpec],
    time: "datetime | float",
    slot_index: int = 0,
) -> SlotGeometry:
    """Evaluate the full satellite/station geometry at one instant."""
    sats = propagate(spec, time)
    if not isinstance(time, datetime):
        time = spec.epoch + timedelta(seconds=float(time))
    gs = np.array([s.ecef_km() for s in stations]) if stations else np.zeros((0, 3))
    k, i = sats.shape[0], gs.shape[0]

    diff = sats[:, None, :] - gs[None, :, :]  # (K, I, 3)
    dist_fl = np.linalg.norm(diff, axis=2)

    gs_norm = np.linalg.norm(gs, axis=1) if i else np.zeros(0)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_el = np.einsum("kij,ij->ki", diff, gs) / (dist_fl * gs_norm[None, :])
    elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0))) if i else np.zeros((k, 0))

    masks = np.array([s.min_elevation_deg for s in stations]) if i else np.zeros(0)
    visible = elev >= masks[None, :] if i else np.zeros((k, 0), dtype=bool)

    dist_isl = np.linalg.norm(sats[:, None, :] - sats[None, :, :], axis=2)

    return SlotGeometry(
        slot_index=slot_index,
        time=time,
        sat_positions_km=sats,
        gs_positions_km=gs,
        distances_fl_km=dist_fl,
        elevations_deg=elev,
        visible=visible,
        distances_isl_km=dist_isl,
    )


def ring_neighbors(satellite_count: int) -> tuple[tuple[int, ...], ...]:
    """Ring adjacency k -> (k-1, k+1) mod K, deduplicated for K=2."""
    out = []
    for k in range(satellite_count):
        nbrs = sorted({(k - 1) % satellite_count, (k + 1) % satellite_count} - {k})
        out.append(tuple(nbrs))
    return tuple(out)
